// WiFi NIC model (TI WiLink8-like).
//
// The NIC serialises the half-duplex medium: one frame (TX or RX) at a time.
// Its power is dominated by a state machine with a *lingering* component: the
// chip stays in a high-power "tail" state for a power-save timeout after the
// last activity before dropping back to power-save idle — the WiFi analogue
// of Fig 3c. The controllable power state (transmission power level and
// power-save timeout) is what psbox virtualises per sandbox. Packet
// *reception* cannot be deferred by software — mirroring the paper's WiLink8
// limitation (§5), which shows up as the +17 % wget outlier in Fig 6.

#ifndef SRC_HW_WIFI_DEVICE_H_
#define SRC_HW_WIFI_DEVICE_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/base/types.h"
#include "src/hw/power_rail.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"

namespace psbox {

struct WifiFrame {
  uint64_t id = 0;
  AppId app = kNoApp;
  int socket = -1;
  size_t bytes = 0;
  bool is_rx = false;
};

struct WifiFrameDone {
  WifiFrame frame;
  TimeNs start_time = 0;
  TimeNs end_time = 0;
  // False when the frame was corrupted on the air or sent into a link-down
  // window: it consumed its airtime (and power) but was never ACKed. The
  // driver is expected to retransmit. RX frames are always delivered.
  bool delivered = true;
};

// The OS-controllable power state, virtualised per psbox (§4.2).
struct WifiPowerState {
  // 0 = low transmission power, 1 = high. Affects TX draw and rate.
  int tx_power_level = 1;
  // How long the chip lingers in the tail state after activity.
  DurationNs ps_timeout = 45 * kMillisecond;

  template <class Ar>
  void Serialize(Ar& ar) {
    ar.U32(tx_power_level);
    ar.I64(ps_timeout);
  }
};

struct WifiConfig {
  Watts idle_power = 0.045;  // power-save doze
  Watts tail_power = 0.30;   // awake, no traffic, PS timer running
  Watts rx_power = 0.55;
  Watts tx_power_high = 0.95;
  Watts tx_power_low = 0.68;
  double rate_mbps_high = 24.0;
  double rate_mbps_low = 16.0;
  DurationNs per_frame_overhead = 180 * kMicrosecond;  // contention + preamble + ACK
};

class WifiDevice {
 public:
  using FrameCallback = std::function<void(const WifiFrameDone&)>;

  WifiDevice(Simulator* sim, PowerRail* rail, WifiConfig config);

  // Enqueues a frame for the medium; TX frames come from the driver, RX
  // frames from the channel model. Completion is reported via the callback.
  void SubmitFrame(const WifiFrame& frame);

  void set_on_frame_done(FrameCallback cb) { on_frame_done_ = std::move(cb); }

  // Optional fault hook; null (the default) means a loss-free medium.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  uint64_t frames_lost() const { return frames_lost_; }

  // Applies an OS-selected power state (the virtualised state).
  void SetPowerState(const WifiPowerState& state);
  const WifiPowerState& power_state() const { return power_state_; }

  // Airtime a frame of |bytes| occupies under the current power state.
  DurationNs FrameAirtime(size_t bytes) const;

  bool busy() const { return busy_; }
  size_t queued_frames() const { return queue_.size(); }
  const WifiConfig& config() const { return config_; }
  PowerRail* rail() { return rail_; }

  // Snapshot support: queued/in-flight frames, the tail state machine, the
  // virtualisable power state, and the frame/tail timers.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  void StartNextFrame();
  void OnFrameComplete();
  void OnTailExpire();
  void UpdateRail();

  Simulator* sim_;
  PowerRail* rail_;
  WifiConfig config_;
  WifiPowerState power_state_;
  FrameCallback on_frame_done_;
  FaultInjector* faults_ = nullptr;
  uint64_t frames_lost_ = 0;

  std::deque<WifiFrame> queue_;
  bool busy_ = false;
  bool in_tail_ = false;
  WifiFrame current_frame_;
  TimeNs current_start_ = 0;
  EventId frame_event_ = kInvalidEventId;
  EventId tail_event_ = kInvalidEventId;
};

}  // namespace psbox

#endif  // SRC_HW_WIFI_DEVICE_H_
