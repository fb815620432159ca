// GPS receiver model (§7 "Support psbox on extra hardware").
//
// GPS power is unaffected by concurrent uses once the device is operating:
// any number of apps can read fixes from the one navigation engine. The
// expensive state is the off→operating transition (cold start / satellite
// acquisition), which psbox deliberately does NOT virtualise — recreating it
// per sandbox would be prohibitive, and revealing raw off/suspended state
// would leak other apps' usage (§4.1). While operating, the kernel can
// safely reveal the hardware power to every psbox; while off or acquiring it
// reports idle power instead.

#ifndef SRC_HW_GPS_DEVICE_H_
#define SRC_HW_GPS_DEVICE_H_

#include <set>

#include "src/base/types.h"
#include "src/hw/power_rail.h"
#include "src/sim/simulator.h"

namespace psbox {

enum class GpsState : uint8_t { kOff, kAcquiring, kOn };

struct GpsConfig {
  Watts off_power = 0.004;
  Watts acquire_power = 0.145;  // cold start: correlators at full tilt
  Watts on_power = 0.075;       // tracking/navigation
  DurationNs cold_start = 2 * kSecond;
};

class GpsDevice : public EventTarget {
 public:
  GpsDevice(Simulator* sim, PowerRail* rail, GpsConfig config);

  // Reference-counted use: the device powers on with the first requester and
  // off with the last release.
  void Request(AppId app);
  void Release(AppId app);

  GpsState state() const { return state_; }
  bool Operating() const { return state_ == GpsState::kOn; }
  size_t users() const { return users_.size(); }
  bool HasUser(AppId app) const { return users_.count(app) > 0; }

  Watts ModelPower() const;
  const GpsConfig& config() const { return config_; }

  // The intervals during which the device was operating — what a psbox's
  // virtual meter may reveal (off/acquiring periods read as idle).
  const StepTrace& operating_trace() const { return operating_trace_; }

  // Drops operating history behind |horizon| (telemetry retention); reads at
  // or after the horizon stay exact. Returns steps dropped.
  size_t TrimHistory(TimeNs horizon) { return operating_trace_.TrimBefore(horizon); }

  // Snapshot support: power state, reference counts and operating history;
  // the load takes the in-flight acquisition's handle back from the engine.
  template <class Ar>
  void Serialize(Ar& ar);

  // The acquisition finishing.
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;

 private:
  void Update();

  Simulator* sim_;
  TargetId target_;
  PowerRail* rail_;
  GpsConfig config_;
  GpsState state_ = GpsState::kOff;
  std::set<AppId> users_;
  EventId acquire_event_ = kInvalidEventId;
  StepTrace operating_trace_;  // 1.0 while kOn, else 0.0
};

}  // namespace psbox

#endif  // SRC_HW_GPS_DEVICE_H_
