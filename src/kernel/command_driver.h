// CommandDriver: the core the accelerator and storage drivers share.
//
// Both drive a device that executes submitted commands and raises one
// completion per command, and both schedule it the same way: a FairQueue of
// per-app command queues, billed the device time each command held, under
// the five-phase temporal balloon (§4.2):
//   1. Drain others : stop dispatching; wait for the device to go quiescent.
//   2. Flush psbox  : dispatch the sandboxed app's buffered commands.
//   3. Serve psbox  : only the sandboxed app reaches the device.
//   4. Drain psbox  : stop dispatching; wait for quiescence again.
//   5. Flush others : resume fair dispatch in queueing order.
// While a balloon holds the device (phases 1-4), the whole device for the
// whole window is billed to the sandboxed app, idle slots included.
//
// The core also owns the in-flight table, each command with a hang
// watchdog, and the recovery paths: a hung command resets the device and
// requeues what the reset aborted, within a retry budget per command; a
// stalled drain aborts the balloon and bills only the service rendered.
//
// A driver supplies what differs through the hooks below: what the
// sandbox's virtualised power state is and how it is swapped at the
// ownership edges, completion delivery to the submitting task, each
// command's hang bound, and whether a stalled drain needs a reset.

#ifndef SRC_KERNEL_COMMAND_DRIVER_H_
#define SRC_KERNEL_COMMAND_DRIVER_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/types.h"
#include "src/kernel/fair_queue.h"
#include "src/kernel/resource_domain.h"
#include "src/kernel/task.h"
#include "src/sim/simulator.h"

namespace psbox {

class Kernel;

// The knobs every command driver has.
struct CommandDriverConfig {
  // Minimum service period a balloon holds the device before the driver
  // considers switching away (avoids drain thrash).
  DurationNs min_grant = 2 * kMillisecond;
  // The sandboxed app loses the device once its virtual service time leads
  // the best competitor by this much.
  DurationNs switch_lead = 1 * kMillisecond;
  // A balloon with no pending or in-flight work is released after this long
  // even without a contender, so the ownership windows an app observes are
  // the same whether or not it co-runs ("pay as you go").
  DurationNs idle_release = 500 * kMicrosecond;
  // How many times a command that itself hung may be requeued before it is
  // dropped and a failure completion is delivered to the submitting task.
  int max_command_retries = 3;
  // A balloon stuck in a drain phase longer than this aborts: the driver
  // unwinds to fair mode and bills only the service actually rendered.
  DurationNs drain_timeout = 500 * kMillisecond;
};

template <class Device, class Command, class VState>
class CommandDriver : public ResourceDomain {
 public:
  // Syscall path: enqueues |cmd| on behalf of |task|.
  void Submit(Task* task, Command cmd);

  // --- psbox temporal balloons (ResourceDomain) ---
  void SetSandboxed(AppId app, PsboxId box) override;
  void ClearSandboxed(AppId app) override;

  // --- app retirement (ResourceDomain) ---
  // Retirable once the app's queue is empty with nothing in flight and its
  // last submit/completion is older than the recency window.
  bool Retirable(AppId app, TimeNs cutoff) const override;
  void RetireApp(AppId app) override { queue_.Erase(app); }

  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    DurationNs total_dispatch_latency = 0;  // submit -> device dispatch
    DurationNs max_dispatch_latency = 0;
    // Recovery counters.
    uint64_t watchdog_fires = 0;    // command and drain watchdog expirations
    uint64_t device_resets = 0;     // device resets made by recovery
    uint64_t command_retries = 0;   // commands requeued after a reset
    uint64_t commands_failed = 0;   // dropped after max_command_retries
  };
  const Stats& stats() const { return stats_; }
  uint64_t CompletedFor(AppId app) const;

 protected:
  struct Pending {
    Command cmd;
    Task* task = nullptr;
    TimeNs submit_time = 0;
    int retries = 0;  // times this command was requeued after a reset
    // Hang watchdog for the dispatched command; live only while in flight.
    EventId watchdog = kInvalidEventId;
  };
  struct LaneState {
    VState vstate{};  // the app's virtualised power state
    uint64_t completed = 0;
  };
  using Queue = FairQueue<Pending, LaneState>;
  using Lane = typename Queue::Lane;

  // Event kinds past the domain's; a driver numbers its own from
  // kCommandEventKinds and passes their count and handles on.
  enum : uint8_t { kCommandTimeout = kDomainEventKinds, kCommandEventKinds };

  CommandDriver(Simulator* sim, HwComponent kind, Device* device,
                Kernel* kernel, const CommandDriverConfig& config,
                uint8_t event_kinds = kCommandEventKinds,
                uint64_t handles = 0);

  // Dispatch loop; runs after every submit, completion and wake-up.
  void Pump();

  // The command watchdogs (a: the command id).
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;
  std::string CheckEvent(uint8_t kind, uint64_t a, uint64_t b) const override;

  // The driver's snapshot section |section|: the common lifecycle layer, the
  // queues and in-flight commands (each taking its watchdog's handle back
  // from the engine), then |state| for the driver's own fields, then the
  // counters.
  template <class Ar, class StateFn>
  void SerializeCommands(Ar& ar, const char* section, StateFn&& state);

  // --- driver hooks ---
  // Balloon-in: applies |owner|'s virtualised power state before the
  // observer looks.
  virtual void EnterBalloon(Lane& owner) = 0;
  // Balloon-out (or its abort): parks |owner|'s power state and restores
  // the global one before the observer looks.
  virtual void LeaveBalloon(Lane& owner) = 0;
  // Hands a completion, or the failure completion of a dropped command, to
  // the submitting task (which may wake and submit again synchronously).
  virtual void Deliver(Task* task) = 0;
  // How long |cmd| may run without completing before it counts as hung.
  virtual DurationNs CommandTimeout(const Command& cmd) const = 0;
  // Whether a drain that timed out is stuck behind work only a reset clears.
  virtual bool DrainStuck() const = 0;
  // Busy-time bookkeeping; runs after every dispatch and whenever the pump
  // stops.
  virtual void TrackBusy() {}

  Device* device_;
  Kernel* kernel_;
  Queue queue_;

 private:
  // One step of the phase machine; false when the pump has nothing to do.
  bool Step();
  bool ServeStep();
  void DispatchFrom(AppId app);
  void OnComplete(const Command& cmd, TimeNs dispatch_time, TimeNs end_time);

  // --- fault recovery ---
  // A dispatched command exceeded its completion bound: reset the device and
  // requeue the aborted commands (the hung one with a retry strike).
  void OnCommandTimeout(uint64_t cmd_id);
  // A balloon drain phase stalled: abort the balloon, unwind to fair
  // scheduling and bill only the service that was actually rendered.
  void OnDrainTimeout() override;
  // Resets the device and requeues the aborted commands at the front of
  // their owners' queues (original order preserved). Hung commands take a
  // retry strike; past max_command_retries they fail instead of requeueing.
  void ResetAndRequeue();
  // Delivers a failure completion for a command dropped by recovery.
  void FailCommand(const Pending& p);

  CommandDriverConfig limits_;
  std::unordered_map<uint64_t, Pending> in_flight_;
  uint64_t next_cmd_id_ = 1;
  TimeNs owner_idle_since_ = -1;
  Stats stats_;
};

template <class Device, class Command, class VState>
template <class Ar, class StateFn>
void CommandDriver<Device, Command, VState>::SerializeCommands(
    Ar& ar, const char* section, StateFn&& state) {
  if (!ar.Section(section)) {
    return;
  }
  SerializeDomain(ar);
  // TaskRef writes the task id as u64; this format calls it an i64, which is
  // the same eight bytes for every valid (positive) id.
  auto pending = [&](Pending& p) {
    p.cmd.Serialize(ar);
    ar.TaskRef(p.task, *kernel_,
               "driver command references unknown task in snapshot");
    ar.I64(p.submit_time);
    ar.U32(p.retries);
  };
  queue_.SerializeLanes(ar, pending, [&](Lane& l) {
    l.extra.vstate.Serialize(ar);
    ar.U64(l.extra.completed);
    ar.I64(l.last_seen);
  });
  // In-flight commands in id order; each has its hang watchdog pending.
  ar.Map(in_flight_, 8, [&](uint64_t& cmd_id, Pending& p) {
    pending(p);
    cmd_id = p.cmd.id;
    if constexpr (Ar::kLoading) {
      p.watchdog = sim_->FindPending(target_, kCommandTimeout, cmd_id);
    }
  });
  if constexpr (Ar::kLoading) {
    // The device was restored first. A command it executes that the driver
    // does not hold would complete into nothing, and one the driver holds
    // that it does not execute would never complete.
    std::vector<uint64_t> held;
    for (const auto& [cmd_id, p] : in_flight_) {
      held.push_back(cmd_id);
    }
    std::vector<uint64_t> executing = device_->ExecutingIds();
    std::sort(held.begin(), held.end());
    std::sort(executing.begin(), executing.end());
    if (ar.ok() && held != executing) {
      ar.Fail(std::string(name()) +
              " driver's in-flight commands are not the ones executing on "
              "the device in snapshot");
    }
  }
  ar.U64(next_cmd_id_);
  ar.I64(owner_idle_since_);
  state();
  ar.U64(stats_.submitted);
  ar.U64(stats_.completed);
  ar.I64(stats_.total_dispatch_latency);
  ar.I64(stats_.max_dispatch_latency);
  ar.U64(stats_.watchdog_fires);
  ar.U64(stats_.device_resets);
  ar.U64(stats_.command_retries);
  ar.U64(stats_.commands_failed);
}

}  // namespace psbox

#endif  // SRC_KERNEL_COMMAND_DRIVER_H_
