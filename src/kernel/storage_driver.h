// Storage driver: fair I/O scheduling + psbox temporal balloons for the
// onboard flash — the fourth sandboxed resource, onboarded entirely through
// the ResourceDomain layer.
//
// Baseline behaviour is a single-channel fair I/O scheduler: per-app request
// queues, a per-app virtual service time, dispatch favouring the app with
// the minimum virtual time. The psbox extension is the standard temporal
// balloon, with one storage-specific twist: the drain phases wait for the
// device to go *quiescent* — channel idle AND write-back buffer flushed.
// Draining others' flush tails keeps their lingering write energy out of the
// sandbox's window; draining the owner's own tail keeps it in (§4.1's
// lingering-power-state rule applied to the FTL).

#ifndef SRC_KERNEL_STORAGE_DRIVER_H_
#define SRC_KERNEL_STORAGE_DRIVER_H_

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/types.h"
#include "src/hw/storage_device.h"
#include "src/kernel/resource_domain.h"
#include "src/kernel/task.h"
#include "src/sim/simulator.h"

namespace psbox {

class Kernel;

struct StorageDriverConfig {
  // Minimum service period a balloon holds the device (drain thrash guard).
  DurationNs min_grant = 2 * kMillisecond;
  // The sandboxed app loses the channel once its virtual service time leads
  // the best competitor by this much.
  DurationNs switch_lead = 1 * kMillisecond;
  // A quiescent balloon with no contender is released after this long, so
  // ownership windows don't depend on who else is running.
  DurationNs idle_release = 500 * kMicrosecond;
  // Ablation knobs; both default to the paper's design.
  bool bill_balloon = true;           // charge the whole window to the owner
  bool virtualize_power_state = true;  // per-psbox bus perf / flush delay

  // --- fault recovery -----------------------------------------------------
  // A dispatched command producing no completion within this bound is
  // declared hung: the controller is reset and aborted commands requeued.
  DurationNs command_timeout = 200 * kMillisecond;
  int max_command_retries = 3;
  // A balloon stuck in a drain phase longer than this aborts.
  DurationNs drain_timeout = 500 * kMillisecond;
};

class StorageDriver : public ResourceDomain {
 public:
  StorageDriver(Simulator* sim, StorageDevice* device, Kernel* kernel,
                StorageDriverConfig config = {});

  // Syscall path: enqueues a transfer on behalf of |task|.
  void Submit(Task* task, StorageCommand cmd);

  // --- psbox temporal balloons (ResourceDomain) ---
  void SetSandboxed(AppId app, PsboxId box) override;
  void ClearSandboxed(AppId app) override;

  // --- app retirement (ResourceDomain) ---
  // Retirable once the app's queue is empty with nothing in flight and its
  // last submit/completion is older than the recency window.
  bool Retirable(AppId app, TimeNs cutoff) const override;
  void RetireApp(AppId app) override { queues_.erase(app); }

  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    DurationNs total_dispatch_latency = 0;  // submit -> channel dispatch
    DurationNs max_dispatch_latency = 0;
    // Recovery counters.
    uint64_t watchdog_fires = 0;
    uint64_t device_resets = 0;
    uint64_t command_retries = 0;
    uint64_t commands_failed = 0;
  };
  const Stats& stats() const { return stats_; }
  uint64_t CompletedFor(AppId app) const;
  const StorageDriverConfig& config() const { return config_; }

  // Snapshot support: queues, the in-flight command with its hang watchdog,
  // power-state virtualisation, and all pending driver timers.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  struct Pending {
    StorageCommand cmd;
    Task* task;
    TimeNs submit_time;
    int retries = 0;
    // Hang watchdog for the dispatched command; live only while in flight.
    EventId watchdog = kInvalidEventId;
  };

  struct AppQueue {
    std::deque<Pending> q;
    double vtime = 0.0;
    bool sandboxed = false;
    PsboxId box = kNoPsbox;
    StoragePowerState vstate;  // virtualised power state for the sandbox
    uint64_t completed = 0;
    TimeNs last_seen = -1;
  };

  // Apps seen within this window count as competitors of a sandboxed app.
  static constexpr DurationNs kRecency = 50 * kMillisecond;

  AppQueue& QueueFor(AppId app);
  void Pump();
  void OnComplete(const StorageCompletion& completion);
  AppId BestPendingApp(bool exclude_sandboxed_owner) const;
  double MinRecentCompetitorVtime(AppId owner) const;
  void DispatchFrom(AppId app);
  // Tracks a deferred Pump() wake-up so checkpoints can re-arm it; prunes
  // already-fired entries.
  void SchedulePumpAt(TimeNs when);

  // --- fault recovery ---
  void ArmCommandWatchdog(uint64_t cmd_id);
  void OnCommandTimeout(uint64_t cmd_id);
  void OnDrainTimeout() override;
  void ResetAndRequeue();
  void FailCommand(const Pending& p);

  StorageDevice* device_;
  Kernel* kernel_;
  StorageDriverConfig config_;

  std::map<AppId, AppQueue> queues_;
  std::unordered_map<uint64_t, Pending> in_flight_;
  uint64_t next_cmd_id_ = 1;

  TimeNs owner_idle_since_ = -1;
  EventId retry_event_ = kInvalidEventId;
  // Outstanding deferred-Pump() events (idle-release and min-grant wakeups).
  std::vector<EventId> pump_events_;
  StoragePowerState global_state_;

  Stats stats_;
};

}  // namespace psbox

#endif  // SRC_KERNEL_STORAGE_DRIVER_H_
