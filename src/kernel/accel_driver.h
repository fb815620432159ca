// Accelerator driver: fair command scheduling + psbox temporal balloons.
//
// Baseline behaviour is a fair-queueing command scheduler in the spirit of
// CFS (§5): per-app pending queues, a per-app virtual accelerator runtime,
// and dispatch always favouring the app with the minimum virtual runtime.
// The psbox extension is the five-phase temporal balloon of §4.2
// "Accelerators"; both live in the shared CommandDriver core. What is
// accelerator-specific stays here: the driver virtualises the operating
// frequency per principal — each app's lane and the global context keep
// their own OPP — and runs an ondemand governor that judges each principal
// by its own demand.

#ifndef SRC_KERNEL_ACCEL_DRIVER_H_
#define SRC_KERNEL_ACCEL_DRIVER_H_

#include "src/base/types.h"
#include "src/hw/accel_device.h"
#include "src/kernel/command_driver.h"
#include "src/sim/simulator.h"

namespace psbox {

class Kernel;

struct AccelDriverConfig : CommandDriverConfig {
  // Simple ondemand frequency governor for the accelerator.
  DurationNs governor_period = 10 * kMillisecond;
  double governor_up = 0.60;
  double governor_down = 0.20;

  // --- fault recovery (DESIGN.md "Fault model & recovery semantics") ------
  // A dispatched command producing no completion within
  //   command_timeout_base + nominal_work * command_timeout_work_factor
  // is declared hung: the engine is reset and aborted commands requeued.
  // The bound is sized so that a command running at the lowest OPP under
  // full slot contention still finishes well inside it.
  DurationNs command_timeout_base = 100 * kMillisecond;
  double command_timeout_work_factor = 20.0;
};

// The DSP serves long-running kernels: its balloons get a 40 ms grant and a
// 20 ms switch lead (why the paper reports ~100 ms DSP dispatch latencies).
inline AccelDriverConfig MakeDspDriverConfig() {
  AccelDriverConfig config;
  config.min_grant = 40 * kMillisecond;
  config.switch_lead = 20 * kMillisecond;
  return config;
}

// A principal's virtualised frequency state: the OPP its balloons run at
// (the lowest until the governor raises it), and the busy and wall time it
// ran the device since the last governor tick.
struct AccelPowerState {
  int opp = 0;
  DurationNs busy = 0;
  DurationNs wall = 0;

  template <class Ar>
  void Serialize(Ar& ar) {
    ar.U32(opp);
    ar.I64(busy);
    ar.I64(wall);
  }
};

class AccelDriver
    : public CommandDriver<AccelDevice, AccelCommand, AccelPowerState> {
 public:
  AccelDriver(Simulator* sim, AccelDevice* device, HwComponent kind, Kernel* kernel,
              AccelDriverConfig config = {});

  // --- app retirement (ResourceDomain) ---
  // Retirable as a command-driver app that does not run the device's
  // operating point and has no governor time left to consume.
  bool Retirable(AppId app, TimeNs cutoff) const override;

  const AccelDriverConfig& config() const { return config_; }

  // Snapshot support: queues, in-flight commands and fairness/governor
  // bookkeeping (the driver's timers are the engine's records).
  template <class Ar>
  void Serialize(Ar& ar);

  // The governor tick, then the command driver's kinds.
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;

 private:
  // Balloon-in runs the owner's virtualised operating frequency; balloon-out
  // returns to the global one.
  void EnterBalloon(Lane& /*owner*/) override { SwitchTo(balloon_owner()); }
  void LeaveBalloon(Lane& /*owner*/) override { SwitchTo(kNoApp); }
  void Deliver(Task* task) override;
  DurationNs CommandTimeout(const AccelCommand& cmd) const override;
  // A drain that timed out with anything still executing was stuck behind
  // wedged work.
  bool DrainStuck() const override { return device_->in_flight() > 0; }
  void TrackBusy() override;

  // The state of |app| (kNoApp: the global principal).
  AccelPowerState& StateOf(AppId app) {
    return app == kNoApp ? global_state_ : queue_[app].extra.vstate;
  }
  // Saves the device OPP into the running principal and applies |app|'s.
  void SwitchTo(AppId app);
  // Charges the time since the last mark to the running principal.
  void MarkRunningTime();
  void OnGovernorTick();

  enum : uint8_t { kGovernorTick = kCommandEventKinds, kAccelEventKinds };

  AccelDriverConfig config_;
  AccelPowerState global_state_;
  AppId running_ = kNoApp;  // whose operating point the device runs
  TimeNs busy_since_ = -1;
  TimeNs last_mark_ = 0;
};

}  // namespace psbox

#endif  // SRC_KERNEL_ACCEL_DRIVER_H_
