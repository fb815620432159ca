// Multicore CPU scheduler: a CFS-style fair scheduler extended for psbox.
//
// Baseline behaviour mirrors the Linux completely fair scheduler: one
// scheduler instance per core, each with a runqueue ordered by virtual
// runtime; 1 ms ticks drive preemption; idle cores steal lagging runnable
// tasks so long-run fairness holds across cores.
//
// psbox extensions (§4.2 "Multicore CPU"):
//  * each power sandbox is encapsulated in a task group (a cgroup): one
//    scheduling entity per core holding the group's local tasks;
//  * when a group entity with an active *spatial balloon* is picked on one
//    core, the scheduler coschedules the group on ALL cores via task
//    shootdown (modelled IPIs with a configurable delay). Cores with no
//    runnable group task run a dummy task that forces them idle;
//  * every cycle of the coscheduling period — dummy-idle cycles included —
//    is billed to the group (charging the lost sharing opportunity);
//  * a *scheduling loan* is taken per core when the group is force-picked
//    without the best credit; extra loans accrue while it keeps occupying a
//    contended core. When the balloon ends, the accumulated loans are
//    redistributed evenly across the group's per-core entities, spreading
//    the repayment disadvantage over all cores (long-term fairness).

#ifndef SRC_KERNEL_CPU_SCHEDULER_H_
#define SRC_KERNEL_CPU_SCHEDULER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/base/types.h"
#include "src/hw/cpu_device.h"
#include "src/kernel/resource_domain.h"
#include "src/kernel/task.h"
#include "src/sim/simulator.h"

namespace psbox {

struct SchedConfig {
  DurationNs tick_period = 1 * kMillisecond;
  // A runnable entity preempts the current one only when it leads by more
  // than this much vruntime.
  DurationNs wakeup_granularity = 1 * kMillisecond;
  // Cross-core steal threshold: an idle pick steals a queued remote task
  // lagging the local leftmost by more than this.
  DurationNs steal_threshold = 2 * kMillisecond;
  // Latency of a task-shootdown IPI (start/end of coscheduling periods).
  DurationNs ipi_delay = 20 * kMicrosecond;
  // Hard cap on one coscheduling period.
  DurationNs max_balloon_slice = 6 * kMillisecond;
  // Implicit CPU cost of each non-blocking kernel call (submit/send).
  DurationNs syscall_overhead = 3 * kMicrosecond;
  // Ablation knob (DESIGN.md §4), on in the paper's design: a balloon bills
  // its group the whole cluster occupancy, dummy-idle cycles included, and
  // the group repays its scheduling loans at balloon end. Off, the balloon
  // is naive coscheduling: only the cycles its tasks ran are billed and the
  // loans are forgiven.
  bool charge_lost_sharing = true;
};

class CpuScheduler;

// A task group (cgroup): the scheduler-side body of one psbox (§5). Has one
// scheduling entity per core; `balloon_exclusive` marks the psbox spatial
// balloon as armed (the app is "inside" its sandbox).
class TaskGroup {
 public:
  TaskGroup(AppId app, PsboxId psbox, int num_cores)
      : app_(app), psbox_(psbox), per_core_(static_cast<size_t>(num_cores)) {}

  AppId app() const { return app_; }
  PsboxId psbox() const { return psbox_; }

 private:
  friend class CpuScheduler;

  struct PerCore {
    double vruntime = 0.0;
    double loan = 0.0;
    bool queued = false;        // entity present in the core runqueue
    bool wants_resched = false; // lost best-credit during coscheduling
    std::vector<Task*> runnable;
  };

  AppId app_;
  PsboxId psbox_;
  std::vector<PerCore> per_core_;
  std::vector<Task*> members_;
  bool balloon_exclusive_ = false;
  bool coscheduling_ = false;
  bool owned_notified_ = false;
  TimeNs balloon_started_ = 0;
  EventId slice_timer_ = kInvalidEventId;
  int runnable_tasks_ = 0;
};

// The spatial CPU domain: unlike the temporal domains it has its own
// coscheduling lifecycle (balloons start whenever the group entity is
// picked), so it drives the ResourceDomain primitives directly instead of
// the five-phase machine.
class CpuScheduler : public ResourceDomain {
 public:
  CpuScheduler(Simulator* sim, CpuDevice* cpu, SchedConfig config, Kernel* kernel);
  ~CpuScheduler() override;

  // --- task lifecycle -------------------------------------------------
  // Adds |task| (owned by the kernel) to the scheduler; placed on the least
  // loaded core unless |core| >= 0.
  void AddTask(Task* task, CoreId core = -1);
  // Wakes a blocked task (timer/IRQ path).
  void WakeTask(Task* task);
  // Asks the scheduler to re-evaluate |core| at the next opportunity.
  void Resched(CoreId core);

  // --- psbox task-group extension (ResourceDomain) ----------------------
  // Creates the psbox's task group and its governor operating point.
  void BindBox(AppId app, PsboxId box) override;
  // A retiring box's group is idle once disarmed, out of every runqueue and
  // balloon, named by no pending timer, and its balloon utilisation has
  // been consumed by the governor, which no longer runs the box's operating
  // point; unbinding frees the group and the operating point.
  bool BoxRetirable(PsboxId box) const override;
  void UnbindBox(PsboxId box) override;
  // Drops a retired task's wake-latency stamp.
  void ForgetTask(TaskId task) { wake_time_.erase(task); }
  // Moves the app's tasks into the box's group and arms the spatial balloon.
  void SetSandboxed(AppId app, PsboxId box) override;
  // Disarms the balloon and moves the tasks back to the normal runqueues.
  void ClearSandboxed(AppId app) override;
  // App of the in-progress coscheduling period (kNoApp when none).
  AppId balloon_owner() const override;

  // Lower-level group surface (used by the overrides above; tests drive it
  // directly when no kernel is attached). Groups are keyed by their box id.
  TaskGroup* CreateGroup(AppId app, PsboxId psbox);
  // Moves all of |app|'s current tasks into |group| and arms the spatial
  // balloon: from now on the group's tasks only run inside coscheduling
  // periods. |tasks| is the app's task list (the kernel's registry).
  void EnterGroup(TaskGroup* group, const std::vector<Task*>& tasks);
  // Disarms the balloon and moves the tasks back to the normal runqueues.
  void LeaveGroup(TaskGroup* group);
  // Group an app's tasks currently belong to (nullptr when unsandboxed).
  TaskGroup* ActiveGroup(AppId app) const;

  // --- DVFS coupling ----------------------------------------------------
  // Changes the cluster OPP; accounts for all in-progress compute first so
  // completed work is charged at the old speed. Returns false when the
  // hardware transition failed (frequency-transition fault): the cluster
  // keeps running at the old OPP and the governor is expected to retry.
  bool SetOpp(int opp_index);
  // Utilization split by principal since the previous call (the
  // ondemand governor's input); resets the measurement window.
  //   global  — busiest core's busy fraction of the *non-ballooned* time;
  //   per_box — busiest core's busy fraction of each psbox's balloon time
  //             (a sandboxed app's DVFS demand is judged inside its own
  //             balloons only, matching power state virtualisation §4.1).
  struct UtilizationSample {
    double global = 0.0;
    std::map<PsboxId, double> per_box;
  };
  UtilizationSample ConsumeUtilization();

  // --- introspection ----------------------------------------------------
  struct Stats {
    uint64_t context_switches = 0;
    uint64_t shootdown_ipis = 0;
    uint64_t wakeups = 0;
    DurationNs total_wake_latency = 0;  // wake -> first run
    uint64_t steals = 0;
  };
  const Stats& stats() const { return stats_; }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  Task* CurrentTask(CoreId core) const { return cores_[static_cast<size_t>(core)].current_task; }
  bool InBalloon(CoreId core) const { return cores_[static_cast<size_t>(core)].balloon != nullptr; }
  const SchedConfig& config() const { return config_; }

  // Schedule trace for Figure 7: per core, a step trace of the AppId
  // currently on the core (kNoApp when idle, kIdleApp for balloon dummies).
  const StepTrace& ScheduleTrace(CoreId core) const {
    return cores_[static_cast<size_t>(core)].schedule_trace;
  }

  // Telemetry retention: also trims the per-core schedule traces.
  void TrimTelemetry(TimeNs horizon) override;

  // Snapshot support: groups, per-core runqueues and occupancy and
  // utilisation windows; the load takes the tick, completion and slice
  // timers' handles back from the engine. Requires the groups to have been
  // recreated (via BindBox) and the tasks restored before the call; a group
  // travels as its box id.
  template <class Ar>
  void Serialize(Ar& ar);

  // The scheduler's timers (see EventKind), then the domain's kinds.
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;
  std::string CheckEvent(uint8_t kind, uint64_t a, uint64_t b) const override;

 private:
  // Event kinds past the domain's. a names a core, or a box for the group
  // timers; an IPI's b is the core it joins.
  enum EventKind : uint8_t {
    kReEvaluate = kDomainEventKinds,  // a rescheduling point or idle retry
    kTick,
    kCompletion,
    kSliceEnd,     // the balloon slice cap
    kIpi,          // a task-shootdown IPI reaching core b
    kOwnedNotify,  // every core owned: the balloon-in edge
    kSchedulerEventKinds
  };

  friend class Kernel;

  // An entry in a core runqueue: either a plain task or a group entity.
  struct Entity {
    Task* task = nullptr;
    TaskGroup* group = nullptr;
    bool is_group() const { return group != nullptr; }
  };

  struct Core {
    // Runnable-but-not-running entities ordered by (vruntime, kind, id).
    struct QueuedLess {
      const CpuScheduler* sched;
      CoreId core;
      bool operator()(const Entity& a, const Entity& b) const;
    };
    std::set<Entity, QueuedLess> rq;
    Task* current_task = nullptr;    // nullptr when idle or balloon dummy
    TaskGroup* current_group = nullptr;  // group the current slot belongs to
    TaskGroup* balloon = nullptr;        // active coscheduling period
    TimeNs last_update = 0;
    double min_vruntime = 0.0;
    EventId tick_event = kInvalidEventId;
    EventId completion_event = kInvalidEventId;
    DurationNs busy_outside = 0;  // busy time outside balloons (this window)
    StepTrace schedule_trace;
  };

  struct BalloonUtil {
    std::vector<DurationNs> busy_per_core;
    double wall = 0.0;  // ballooned wall time (each core contributes 1/n)
  };

  double EntityVruntime(const Entity& e, CoreId core) const;
  int64_t EntityKey(const Entity& e) const;

  void Enqueue(CoreId core, Entity e);
  void Dequeue(CoreId core, Entity e);
  bool IsQueued(CoreId core, const Entity& e) const;

  // Charges the time since last_update to whatever occupies |core| (task
  // vruntime, group vruntime, compute progress, ledger, utilization).
  void AccountCore(CoreId core);

  // Core main entry: accounts, then picks and switches to the next entity.
  void Schedule(CoreId core);
  // Picks the best entity for |core|; may steal across cores.
  Entity PickNext(CoreId core);
  void SwitchTo(CoreId core, Task* task, TaskGroup* group);
  void SwitchToIdle(CoreId core);

  void OnTick(CoreId core);
  void ArmTick(CoreId core);
  void DisarmTick(CoreId core);
  void ArmCompletion(CoreId core);
  void DisarmCompletion(CoreId core);
  void OnComputeComplete(CoreId core);

  // Pulls the next behaviour action(s) of the task current on |core|;
  // returns when the task has compute to run, blocked, or exited.
  void ProcessActions(CoreId core);

  // --- coscheduling internals ---
  void StartBalloon(CoreId initiator, TaskGroup* group);
  void JoinBalloon(CoreId core, TaskGroup* group);
  void EndBalloon(TaskGroup* group, bool group_blocked);
  // Power-state virtualisation (§4.1) at the ownership edges: the governor
  // runs |box|'s operating point from balloon-in, the global one
  // (kNoPsbox) from balloon-out, before the observer hears the edge. Off
  // under KernelConfig::virtualize_cpu_freq = false.
  void SwitchPowerState(PsboxId box);
  void CheckBalloonEnd(TaskGroup* group);
  // Spreads the group's runnable tasks across balloon cores; idle dummies on
  // the rest.
  void SpreadGroupTasks(TaskGroup* group);

  void BlockCurrent(CoreId core);
  void ExitCurrent(CoreId core);
  // Common tail of Block/Exit: refills a balloon slot or reschedules.
  void AfterCurrentLeft(CoreId core);
  void ReEvaluate(CoreId core);
  CoreId LeastLoadedCore() const;
  // Smallest queued vruntime on |core| (entities of |exclude| skipped);
  // +infinity when the runqueue is empty.
  double CoreLeftmostVruntime(CoreId core, const TaskGroup* exclude) const;
  // Smallest vruntime among every queued or running competitor of |group|
  // across all cores; +infinity when the group has no competitor. A balloon
  // may only start when the group's local entity does not trail this by more
  // than the wakeup granularity — this is what makes the loan repayment bite
  // (the sandboxed app waits for the others to catch up).
  double GlobalCompetitorVruntime(const TaskGroup* group) const;
  bool BalloonEligible(CoreId core, TaskGroup* group) const;
  // Removes |task| from its group's runnable list (it must be queued there).
  void RemoveFromGroupRunnable(Task* task);
  double ClampVruntime(CoreId core, double vr) const;

  CpuDevice* cpu_;
  SchedConfig config_;
  Kernel* kernel_;
  std::vector<Core> cores_;
  std::map<PsboxId, std::unique_ptr<TaskGroup>> groups_;
  std::unordered_map<AppId, TaskGroup*> active_group_by_app_;
  // At most one coscheduling period at a time (balloons span all cores).
  TaskGroup* active_balloon_ = nullptr;
  Stats stats_;
  TimeNs util_last_consume_ = 0;
  std::map<PsboxId, BalloonUtil> balloon_util_;
  // Wake timestamps for latency accounting.
  std::unordered_map<TaskId, TimeNs> wake_time_;
};

}  // namespace psbox

#endif  // SRC_KERNEL_CPU_SCHEDULER_H_
