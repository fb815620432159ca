// Onboard storage model (eMMC-like managed flash).
//
// The controller serialises a single command channel: one read or write
// transfer on the bus at a time. Writes land in the controller's write-back
// buffer at bus speed and complete quickly; the flash translation layer
// flushes the buffer to the NAND array in the background, starting a
// coalescing delay after the last write. The flush keeps the rail hot long
// after the completion interrupt — storage's version of the lingering power
// state / blurry request boundary of §2.3 and Fig 3c: software observes
// "write done" while the energy is still being spent. The OS-controllable
// power state (bus performance level and the coalescing delay) is what psbox
// virtualises per sandbox.

#ifndef SRC_HW_STORAGE_DEVICE_H_
#define SRC_HW_STORAGE_DEVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/base/types.h"
#include "src/hw/power_rail.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"

namespace psbox {

struct StorageCommand {
  uint64_t id = 0;
  AppId app = kNoApp;
  bool is_write = false;
  size_t bytes = 0;

  template <class Ar>
  void Serialize(Ar& ar) {
    ar.U64(id);
    ar.I64(app);
    ar.Bool(is_write);
    ar.U64(bytes);
  }
};

struct StorageCompletion {
  StorageCommand cmd;
  TimeNs dispatch_time = 0;
  TimeNs end_time = 0;
};

// The OS-controllable power state, virtualised per psbox (§4.2).
struct StoragePowerState {
  // 0 = low bus performance (slower transfers, lower draw), 1 = high.
  int perf_level = 1;
  // Coalescing window before the write-back buffer starts flushing.
  DurationNs flush_delay = 10 * kMillisecond;

  template <class Ar>
  void Serialize(Ar& ar) {
    ar.U32(perf_level);
    ar.I64(flush_delay);
  }
};

struct StorageConfig {
  Watts idle_power = 0.020;
  // Bus transfer draw while a command occupies the channel.
  Watts read_power_high = 0.28;
  Watts read_power_low = 0.18;
  Watts write_power_high = 0.33;
  Watts write_power_low = 0.22;
  // NAND-array programming draw while the buffer flushes (superposes with
  // any concurrent channel activity — the entanglement term).
  Watts flush_power = 0.26;
  double read_mbps_high = 280.0;
  double read_mbps_low = 140.0;
  // Writes stream into the buffer at bus speed...
  double write_buffer_mbps_high = 380.0;
  double write_buffer_mbps_low = 190.0;
  // ...and trickle to the array at programming speed.
  double flush_mbps = 45.0;
  DurationNs per_command_overhead = 60 * kMicrosecond;
};

class StorageDevice : public EventTarget {
 public:
  using CompletionCallback = std::function<void(const StorageCompletion&)>;

  StorageDevice(Simulator* sim, PowerRail* rail, StorageConfig config);

  bool CanDispatch() const { return !channel_busy_; }
  // One command channel: at most one command executes at a time.
  int in_flight() const { return channel_busy_ ? 1 : 0; }
  int slots() const { return 1; }
  // Starts the bus transfer for |cmd|; requires CanDispatch(). With a fault
  // injector attached, the command may wedge the channel until Reset().
  void Dispatch(const StorageCommand& cmd);

  void set_on_complete(CompletionCallback cb) { on_complete_ = std::move(cb); }
  // Fired whenever the device drains to a fully quiescent state (channel
  // idle and write-back buffer empty) — the driver's drain-phase trigger.
  void set_on_quiescent(std::function<void()> cb) { on_quiescent_ = std::move(cb); }

  // Optional fault hook; null (the default) means an ideal device.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  struct AbortedCommand {
    StorageCommand cmd;
    bool hung = false;  // wedged the channel (vs innocent queued victim)
  };
  // Controller reset: aborts the in-flight command, returning the channel to
  // an empty usable state. The write-back buffer survives — already-buffered
  // data keeps flushing (its energy has to go somewhere).
  std::vector<AbortedCommand> Reset();
  // True when the in-flight command is hung and only Reset() helps.
  bool Wedged() const { return channel_busy_ && hung_; }
  // Id of the command on the channel, hung or not; none when idle.
  std::vector<uint64_t> ExecutingIds() const {
    return channel_busy_ ? std::vector<uint64_t>{current_.id}
                         : std::vector<uint64_t>{};
  }

  // Channel idle AND write-back buffer fully flushed: no storage energy is
  // attributable to past requests any more (what balloon drains wait for).
  bool Quiescent() const { return !channel_busy_ && !flush_active_ && flush_start_event_ == kInvalidEventId; }
  bool channel_busy() const { return channel_busy_; }
  size_t buffered_bytes() const;
  bool flushing() const { return flush_active_; }

  // Applies an OS-selected power state; an in-progress transfer is rescaled
  // to the new bus speed.
  void SetPowerState(const StoragePowerState& state);
  const StoragePowerState& power_state() const { return power_state_; }

  Watts ModelPower() const;
  uint64_t resets() const { return resets_; }
  uint64_t hung_commands() const { return hung_commands_; }
  const StorageConfig& config() const { return config_; }
  PowerRail* rail() { return rail_; }

  // Snapshot support: channel transfer, write-back buffer/flush machinery
  // and the virtualisable power state; the load takes the three timers'
  // handles back from the engine.
  template <class Ar>
  void Serialize(Ar& ar);

  // The transfer, flush-start and flush-end timers.
  enum EventKind : uint8_t { kTransferDone, kFlushStart, kFlushEnd, kEventKinds };
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;

 private:
  double BusRate(bool is_write) const;  // bytes per nanosecond
  Watts ChannelPower() const;
  void UpdateRail();
  void OnTransferComplete();
  // (Re)arms the coalescing timer after a write completes into the buffer.
  void ArmFlushStart();
  void BeginFlush();
  void AdvanceFlush();
  void OnFlushComplete();
  void NotifyIfQuiescent();

  Simulator* sim_;
  TargetId target_;
  PowerRail* rail_;
  StorageConfig config_;
  StoragePowerState power_state_;
  CompletionCallback on_complete_;
  std::function<void()> on_quiescent_;
  FaultInjector* faults_ = nullptr;

  // Channel (one transfer at a time).
  bool channel_busy_ = false;
  bool hung_ = false;
  StorageCommand current_;
  TimeNs current_dispatch_ = 0;
  double remaining_bytes_ = 0.0;  // of the in-progress transfer
  TimeNs last_channel_update_ = 0;
  EventId transfer_event_ = kInvalidEventId;

  // Write-back buffer & background flush.
  double buffer_bytes_ = 0.0;
  bool flush_active_ = false;
  TimeNs last_flush_update_ = 0;
  EventId flush_start_event_ = kInvalidEventId;
  EventId flush_end_event_ = kInvalidEventId;

  uint64_t resets_ = 0;
  uint64_t hung_commands_ = 0;
};

}  // namespace psbox

#endif  // SRC_HW_STORAGE_DEVICE_H_
