// Accelerator model: an asynchronous command-queue device (GPU or DSP).
//
// CPU-side software dispatches commands and is notified of completion by an
// interrupt, with no visibility into execution in between (§2.3 "blurry
// request boundary"). The device executes up to |slots| commands concurrently
// (GPU pipelining / DSP multi-core), so in-flight commands from different
// apps overlap in time and their power impacts superpose with an interference
// term — exactly the entanglement of Fig 3b. Configured as:
//   * GPU: 2 pipelined slots, PowerVR SGX544-like operating points;
//   * DSP: 4 spatial slots, TI C66x-like operating points.

#ifndef SRC_HW_ACCEL_DEVICE_H_
#define SRC_HW_ACCEL_DEVICE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/hw/cpu_device.h"
#include "src/hw/power_rail.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"

namespace psbox {

struct AccelCommand {
  uint64_t id = 0;
  AppId app = kNoApp;
  // Workload-defined command type; commands of the same type have the same
  // nominal power/duration signature (the colours in Fig 3b).
  int type = 0;
  // Execution time at the top operating point with the device to itself.
  DurationNs nominal_work = 0;
  // Additional rail draw while this command executes at the top OPP.
  Watts active_power = 0.0;

  template <class Ar>
  void Serialize(Ar& ar) {
    ar.U64(id);
    ar.I64(app);
    ar.U32(type);
    ar.I64(nominal_work);
    ar.F64(active_power);
  }
};

// Completion record delivered to the driver, with the true execution span
// (which the CPU side of a real system would *not* know; exposed here for
// ground-truth validation in tests and figures).
struct AccelCompletion {
  AccelCommand cmd;
  TimeNs dispatch_time = 0;
  TimeNs start_time = 0;
  TimeNs end_time = 0;
};

struct AccelConfig {
  std::string name = "accel";
  int slots = 2;
  std::vector<CpuOpp> opps = {{200, 0.95}, {304, 1.05}, {400, 1.15}};
  Watts idle_power = 0.12;
  // Each extra in-flight command stretches everyone's execution by this
  // fraction (shared bandwidth / scheduling interference).
  double contention_slowdown = 0.18;
  // Each extra in-flight command discounts the summed active power by this
  // fraction (shared front-end; power impacts entangle sub-additively).
  double power_interference = 0.10;
};

class AccelDevice : public EventTarget {
 public:
  using CompletionCallback = std::function<void(const AccelCompletion&)>;

  AccelDevice(Simulator* sim, PowerRail* rail, AccelConfig config);

  // Whether another command can enter execution right now.
  bool CanDispatch() const { return static_cast<int>(in_flight_.size()) < config_.slots; }
  int in_flight() const { return static_cast<int>(in_flight_.size()); }
  // No command executing, hung or not: what balloon drains wait for.
  bool Quiescent() const { return in_flight_.empty(); }
  int slots() const { return config_.slots; }

  // Starts executing |cmd|; requires CanDispatch(). The completion interrupt
  // fires through the callback installed with set_on_complete(). With a fault
  // injector attached, the command may hang (wedging its slot until Reset())
  // or suffer a latency spike.
  void Dispatch(const AccelCommand& cmd);

  void set_on_complete(CompletionCallback cb) { on_complete_ = std::move(cb); }

  // Optional fault hook; null (the default) means an ideal device.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // A command aborted by a device reset; the driver decides whether to
  // requeue it (execution restarts from scratch — partial progress is lost).
  struct AbortedCommand {
    AccelCommand cmd;
    bool hung = false;  // this command wedged the engine (vs innocent victim)
  };

  // Engine reset: aborts every in-flight command (hung or not), cancels the
  // pending completion interrupt and returns the engine to an empty, usable
  // state at the current operating point. The kernel driver's watchdog path.
  std::vector<AbortedCommand> Reset();

  // Ids of the commands in flight, hung ones included.
  std::vector<uint64_t> ExecutingIds() const;

  uint64_t resets() const { return resets_; }
  uint64_t hung_commands() const { return hung_commands_; }

  // Operating point; the accelerator's main lingering power state, which
  // psbox virtualises per sandbox (§4.2).
  void SetOppIndex(int opp);
  int opp_index() const { return opp_index_; }
  int num_opps() const { return static_cast<int>(config_.opps.size()); }

  // Apps with at least one command currently in flight.
  std::vector<AppId> ActiveApps() const;

  Watts ModelPower() const;
  const AccelConfig& config() const { return config_; }
  PowerRail* rail() { return rail_; }

  // Snapshot support: in-flight commands with their exact remaining work, the
  // lingering OPP index and reset/hang counters. The pending completion
  // interrupt is the engine's record; the load takes its handle back.
  template <class Ar>
  void Serialize(Ar& ar);

  // The completion interrupt.
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;

 private:
  struct Exec {
    AccelCommand cmd;
    TimeNs dispatch_time;
    TimeNs start_time;
    // Remaining work expressed in nominal-duration nanoseconds.
    double remaining_work;
    // A hung command occupies its slot (contention + power) but makes no
    // progress and never completes; cleared only by Reset().
    bool hung = false;
  };

  double SpeedFactor() const;
  double PowerScale() const;
  // Nominal-work consumed per real nanosecond under current freq/contention.
  double ExecutionRate() const;
  // Folds elapsed time into remaining_work of all in-flight commands.
  void AdvanceProgress();
  // (Re)schedules the next completion event.
  void RescheduleCompletion();
  void UpdateRail();

  Simulator* sim_;
  TargetId target_;
  PowerRail* rail_;
  AccelConfig config_;
  CompletionCallback on_complete_;
  FaultInjector* faults_ = nullptr;
  std::vector<Exec> in_flight_;
  TimeNs last_progress_time_ = 0;
  int opp_index_;
  EventId completion_event_ = kInvalidEventId;
  uint64_t resets_ = 0;
  uint64_t hung_commands_ = 0;
};

// Factory configurations for the two accelerators of the paper's platform.
AccelConfig MakeGpuConfig();
AccelConfig MakeDspConfig();

}  // namespace psbox

#endif  // SRC_HW_ACCEL_DEVICE_H_
