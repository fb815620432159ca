// Accelerator driver: fair command scheduling + psbox temporal balloons.
//
// Baseline behaviour is a fair-queueing command scheduler in the spirit of
// CFS (§5): per-app pending queues, a per-app virtual accelerator runtime,
// and dispatch always favouring the app with the minimum virtual runtime.
//
// psbox extension (§4.2 "Accelerators") — the five-phase temporal balloon:
//   1. Drain others : stop dispatching; wait for in-flight commands to end.
//   2. Flush psbox  : dispatch the sandboxed app's buffered commands.
//   3. Serve psbox  : only the sandboxed app reaches the device.
//   4. Drain psbox  : stop dispatching; wait for its commands to end.
//   5. Flush others : resume normal fair dispatch in queueing order.
// While a balloon holds the device (phases 1-4), the *entire* accelerator —
// under-utilised slots included — is billed to the sandboxed app. The driver
// also virtualises the accelerator's operating frequency per psbox.
//
// The balloon lifecycle itself (state machine, accounting window, observer
// dispatch, drain watchdog, DomainStats) lives in ResourceDomain; this
// policy keeps the fair queueing, OPP virtualisation and device recovery.

#ifndef SRC_KERNEL_ACCEL_DRIVER_H_
#define SRC_KERNEL_ACCEL_DRIVER_H_

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/types.h"
#include "src/hw/accel_device.h"
#include "src/kernel/resource_domain.h"
#include "src/kernel/task.h"
#include "src/sim/simulator.h"

namespace psbox {

class Kernel;

struct AccelDriverConfig {
  // Minimum service period a balloon holds the device before the scheduler
  // considers switching away (avoids drain thrash).
  DurationNs min_grant = 2 * kMillisecond;
  // The sandboxed app loses the device once its virtual runtime leads the
  // best competitor by this much.
  DurationNs switch_lead = 1 * kMillisecond;
  // A balloon with no pending or in-flight work is released after this long
  // even without a contender, so the ownership windows an app observes are
  // the same whether or not it co-runs ("pay as you go").
  DurationNs idle_release = 500 * kMicrosecond;
  // Simple ondemand frequency governor for the accelerator.
  DurationNs governor_period = 10 * kMillisecond;
  double governor_up = 0.60;
  double governor_down = 0.20;
  // Ablation knobs (DESIGN.md §4); both default to the paper's design.
  bool bill_balloon = true;      // charge the whole device for the balloon
  bool virtualize_freq = true;   // per-psbox frequency contexts

  // --- fault recovery (DESIGN.md "Fault model & recovery semantics") ------
  // A dispatched command producing no completion within
  //   command_timeout_base + nominal_work * command_timeout_work_factor
  // is declared hung: the engine is reset and aborted commands requeued.
  // The bound is sized so that a command running at the lowest OPP under
  // full slot contention still finishes well inside it.
  DurationNs command_timeout_base = 100 * kMillisecond;
  double command_timeout_work_factor = 20.0;
  // How many times a command that itself hung may be requeued before it is
  // dropped and a failure completion is delivered to the submitting task.
  int max_command_retries = 3;
  // A balloon stuck in a drain phase longer than this aborts: the scheduler
  // unwinds to fair mode and bills only the service actually rendered.
  DurationNs drain_timeout = 500 * kMillisecond;
};

class AccelDriver : public ResourceDomain {
 public:
  AccelDriver(Simulator* sim, AccelDevice* device, HwComponent kind, Kernel* kernel,
              AccelDriverConfig config = {});

  // Syscall path: enqueues a command on behalf of |task|.
  void Submit(Task* task, AccelCommand cmd);

  // --- psbox temporal balloons (ResourceDomain) ---
  void SetSandboxed(AppId app, PsboxId box) override;
  void ClearSandboxed(AppId app) override;

  // --- app retirement (ResourceDomain) ---
  // Retirable once the app's queue is empty with nothing in flight, its
  // last submit/completion is older than the recency window, and its
  // frequency context is idle with no governor time left to consume.
  bool Retirable(AppId app, TimeNs cutoff) const override;
  void RetireApp(AppId app) override;

  // Per-psbox virtualised frequency context management.
  int CreateOppContext();

  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    DurationNs total_dispatch_latency = 0;  // submit -> device dispatch
    DurationNs max_dispatch_latency = 0;
    // Recovery counters.
    uint64_t watchdog_fires = 0;    // per-command watchdog expirations
    uint64_t device_resets = 0;     // engine resets issued by recovery
    uint64_t command_retries = 0;   // commands requeued after a reset
    uint64_t commands_failed = 0;   // dropped after max_command_retries
  };
  const Stats& stats() const { return stats_; }
  uint64_t CompletedFor(AppId app) const;
  const AccelDriverConfig& config() const { return config_; }

  // Snapshot support: queues, in-flight commands with their hang watchdogs,
  // fairness/governor bookkeeping, and all pending driver timers.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  struct Pending {
    AccelCommand cmd;
    Task* task;
    TimeNs submit_time;
    int retries = 0;  // times this command was requeued after a reset
    // Hang watchdog for the dispatched command; live only while in flight.
    EventId watchdog = kInvalidEventId;
  };

  struct AppQueue {
    std::deque<Pending> q;
    double vruntime = 0.0;
    bool sandboxed = false;
    PsboxId box = kNoPsbox;
    int opp_context = -1;
    uint64_t completed = 0;
    TimeNs last_seen = -1;  // last submit/completion; recency for fairness
  };

  // Apps seen within this window count as competitors of a sandboxed app.
  static constexpr DurationNs kRecency = 50 * kMillisecond;

  AppQueue& QueueFor(AppId app);
  // Dispatch loop; runs after every submit and completion.
  void Pump();
  // Smallest virtual runtime among apps other than |owner| that used the
  // device recently (they will be back within a service round); +infinity
  // when there is none. A sandboxed app may only take a balloon when it does
  // not lead this by more than switch_lead — otherwise it is still repaying
  // its previous exclusive occupation.
  double MinRecentCompetitorVruntime(AppId owner) const;
  void OnComplete(const AccelCompletion& completion);
  // Smallest vruntime among apps with pending commands; kNoApp when none.
  AppId BestPendingApp(bool exclude_sandboxed_owner) const;
  void BeginBalloon(AppId app);
  void FinishBalloonIfDrained();
  void SwitchOppContext(int ctx);
  void OnGovernorTick();
  // Tracks a deferred Pump() wake-up so checkpoints can re-arm it; prunes
  // already-fired entries.
  void SchedulePumpAt(TimeNs when);

  // --- fault recovery ---
  void ArmCommandWatchdog(uint64_t cmd_id);
  // A dispatched command exceeded its completion bound: reset the engine and
  // requeue the aborted commands (the hung one with a retry strike).
  void OnCommandTimeout(uint64_t cmd_id);
  // A balloon drain phase stalled: abort the balloon, unwind to fair
  // scheduling and bill only the service that was actually rendered.
  void OnDrainTimeout() override;
  // Resets the engine and requeues the aborted commands at the front of
  // their owners' queues (original order preserved). Hung commands take a
  // retry strike; past max_command_retries they fail instead of requeueing.
  void ResetAndRequeue();
  // Delivers a failure completion for a command dropped by recovery.
  void FailCommand(const Pending& p);

  AccelDevice* device_;
  Kernel* kernel_;
  AccelDriverConfig config_;

  std::map<AppId, AppQueue> queues_;
  std::unordered_map<uint64_t, Pending> in_flight_;
  uint64_t next_cmd_id_ = 1;

  TimeNs owner_idle_since_ = -1;
  EventId retry_event_ = kInvalidEventId;
  EventId gov_event_ = kInvalidEventId;
  // Outstanding deferred-Pump() events (idle-release and min-grant wakeups).
  std::vector<EventId> pump_events_;

  // Frequency virtualisation contexts; context 0 is global.
  std::unordered_map<int, int> context_opp_;
  int next_context_ = 1;
  int current_context_ = 0;

  // Governor busy tracking, attributed per frequency context so a sandbox's
  // virtual frequency is driven by its own demand only.
  void MarkContextTime();
  TimeNs busy_since_ = -1;
  TimeNs last_ctx_mark_ = 0;
  std::unordered_map<int, DurationNs> ctx_busy_;
  std::unordered_map<int, DurationNs> ctx_wall_;

  Stats stats_;
};

}  // namespace psbox

#endif  // SRC_KERNEL_ACCEL_DRIVER_H_
