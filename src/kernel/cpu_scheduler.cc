#include "src/kernel/cpu_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/base/check.h"
#include "src/kernel/kernel.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

bool CpuScheduler::Core::QueuedLess::operator()(const Entity& a, const Entity& b) const {
  const double va = sched->EntityVruntime(a, core);
  const double vb = sched->EntityVruntime(b, core);
  if (va != vb) {
    return va < vb;
  }
  return sched->EntityKey(a) < sched->EntityKey(b);
}

CpuScheduler::CpuScheduler(Simulator* sim, CpuDevice* cpu, SchedConfig config,
                           Kernel* kernel)
    : ResourceDomain(sim, HwComponent::kCpu, /*drain_timeout=*/0),
      cpu_(cpu), config_(config), kernel_(kernel) {
  const int n = cpu_->num_cores();
  cores_.reserve(static_cast<size_t>(n));
  for (CoreId c = 0; c < n; ++c) {
    cores_.emplace_back();
    Core& core = cores_.back();
    core.rq = std::set<Entity, Core::QueuedLess>(Core::QueuedLess{this, c});
    core.schedule_trace.Set(0, static_cast<double>(kNoApp));
  }
}

CpuScheduler::~CpuScheduler() = default;

double CpuScheduler::EntityVruntime(const Entity& e, CoreId core) const {
  if (e.is_group()) {
    return e.group->per_core_[static_cast<size_t>(core)].vruntime;
  }
  return e.task->vruntime;
}

int64_t CpuScheduler::EntityKey(const Entity& e) const {
  // Groups sort after tasks at equal vruntime; ids disambiguate within kind.
  if (e.is_group()) {
    return (1LL << 32) + e.group->psbox();
  }
  return e.task->id();
}

void CpuScheduler::Enqueue(CoreId core, Entity e) {
  Core& c = cores_[static_cast<size_t>(core)];
  const auto [it, inserted] = c.rq.insert(e);
  PSBOX_CHECK(inserted);
  if (e.is_group()) {
    e.group->per_core_[static_cast<size_t>(core)].queued = true;
  }
}

void CpuScheduler::Dequeue(CoreId core, Entity e) {
  Core& c = cores_[static_cast<size_t>(core)];
  const size_t erased = c.rq.erase(e);
  PSBOX_CHECK_EQ(erased, 1u);
  if (e.is_group()) {
    e.group->per_core_[static_cast<size_t>(core)].queued = false;
  }
}

bool CpuScheduler::IsQueued(CoreId core, const Entity& e) const {
  const Core& c = cores_[static_cast<size_t>(core)];
  return c.rq.find(e) != c.rq.end();
}

double CpuScheduler::ClampVruntime(CoreId core, double vr) const {
  const Core& c = cores_[static_cast<size_t>(core)];
  const double floor = c.min_vruntime - static_cast<double>(config_.wakeup_granularity);
  return std::max(vr, floor);
}

void CpuScheduler::AccountCore(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  const TimeNs now = sim_->Now();
  const DurationNs delta = now - c.last_update;
  if (delta <= 0) {
    c.last_update = now;
    return;
  }
  const double fdelta = static_cast<double>(delta);
  if (c.balloon != nullptr) {
    // Utilization attribution for the governor: balloon time belongs to the
    // sandbox's operating point.
    BalloonUtil& bu = balloon_util_[c.balloon->psbox()];
    if (bu.busy_per_core.empty()) {
      bu.busy_per_core.assign(static_cast<size_t>(num_cores()), 0);
    }
    bu.wall += fdelta / static_cast<double>(num_cores());
    if (c.current_task != nullptr) {
      bu.busy_per_core[static_cast<size_t>(core)] += delta;
    }
  } else if (c.current_task != nullptr) {
    c.busy_outside += delta;
  }
  if (c.balloon != nullptr) {
    // Coscheduling: the whole balloon occupancy — dummy-idle cores included
    // — is billed to the group (charging the lost sharing opportunity,
    // §4.2). Each per-core entity carries the full N-core occupancy so that
    // per-core competitions see the group's true consumption, mirroring the
    // accelerator drivers billing the whole device for a balloon.
    auto& pc = c.balloon->per_core_[static_cast<size_t>(core)];
    if (config_.charge_lost_sharing) {
      pc.vruntime += fdelta * num_cores();
    } else if (c.current_task != nullptr) {
      pc.vruntime += fdelta;
    }
    if (ledger_ != nullptr) {
      ledger_->Add(HwComponent::kCpu, c.balloon->app(), c.last_update, now);
    }
  }
  if (c.current_task != nullptr) {
    Task* t = c.current_task;
    t->vruntime += fdelta;
    t->total_cpu_time += delta;
    if (c.balloon == nullptr) {
      if (ledger_ != nullptr) {
        ledger_->Add(HwComponent::kCpu, t->app(), c.last_update, now);
      }
    }
    // Consume compute progress at the cluster's current speed.
    const double consumed = fdelta * cpu_->SpeedFactor();
    const DurationNs remaining = t->remaining_compute();
    const auto consumed_ns = static_cast<DurationNs>(std::llround(consumed));
    t->set_remaining_compute(std::max<DurationNs>(0, remaining - consumed_ns));
  }
  // min_vruntime follows the *least* vruntime still competing on this core
  // (CFS semantics): the smaller of the on-cpu entity and the leftmost
  // queued one. Using anything larger would let sleepers be clamped up
  // toward a ballooned group's inflated vruntime, forgiving its loans.
  double least = std::numeric_limits<double>::infinity();
  if (c.balloon != nullptr) {
    least = c.balloon->per_core_[static_cast<size_t>(core)].vruntime;
  } else if (c.current_task != nullptr) {
    least = c.current_task->vruntime;
  }
  if (!c.rq.empty()) {
    least = std::min(least, EntityVruntime(*c.rq.begin(), core));
  }
  if (least != std::numeric_limits<double>::infinity()) {
    c.min_vruntime = std::max(c.min_vruntime, least);
  }
  c.last_update = now;
}

// ---------------------------------------------------------------------------
// Task lifecycle
// ---------------------------------------------------------------------------

CoreId CpuScheduler::LeastLoadedCore() const {
  CoreId best = 0;
  size_t best_load = std::numeric_limits<size_t>::max();
  for (CoreId c = 0; c < num_cores(); ++c) {
    const Core& core = cores_[static_cast<size_t>(c)];
    size_t load = core.rq.size();
    if (core.current_task != nullptr || core.balloon != nullptr) {
      ++load;
    }
    if (load < best_load) {
      best_load = load;
      best = c;
    }
  }
  return best;
}

void CpuScheduler::AddTask(Task* task, CoreId core) {
  if (core < 0) {
    core = LeastLoadedCore();
  }
  task->core = core;
  task->set_state(TaskState::kRunnable);
  TaskGroup* group = task->group != nullptr ? task->group : ActiveGroup(task->app());
  if (group != nullptr) {
    task->group = group;
    if (std::find(group->members_.begin(), group->members_.end(), task) ==
        group->members_.end()) {
      group->members_.push_back(task);
    }
  }
  task->vruntime = ClampVruntime(core, task->vruntime);
  WakeTask(task);
}

void CpuScheduler::WakeTask(Task* task) {
  PSBOX_CHECK(task->state() != TaskState::kExited);
  if (task->state() == TaskState::kRunning) {
    return;
  }
  task->set_state(TaskState::kRunnable);
  CoreId core = task->core >= 0 ? task->core : LeastLoadedCore();
  task->core = core;
  Core& c = cores_[static_cast<size_t>(core)];
  ++stats_.wakeups;
  wake_time_[task->id()] = sim_->Now();
  task->vruntime = ClampVruntime(core, task->vruntime);

  TaskGroup* group = task->group;
  if (group != nullptr) {
    auto& pc = group->per_core_[static_cast<size_t>(core)];
    pc.runnable.push_back(task);
    ++group->runnable_tasks_;
    if (group->coscheduling_) {
      // If this core is the group's dummy-idle slot, fill it immediately.
      if (c.balloon == group && c.current_task == nullptr) {
        AccountCore(core);
        pc.runnable.pop_back();  // the task moves straight onto the core
        SwitchTo(core, task, group);
      }
      return;
    }
    Entity ge{nullptr, group};
    if (!pc.queued) {
      pc.vruntime = ClampVruntime(core, pc.vruntime);
      Enqueue(core, ge);
    }
    ReEvaluate(core);
    return;
  }

  Enqueue(core, Entity{task, nullptr});
  ReEvaluate(core);
}

void CpuScheduler::Resched(CoreId core) {
  sim_->ScheduleAfter(0, [this, core] { ReEvaluate(core); });
}

void CpuScheduler::ReEvaluate(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  if (c.balloon != nullptr) {
    return;  // Ticks and balloon logic govern coscheduled cores.
  }
  AccountCore(core);
  if (c.current_task == nullptr) {
    Schedule(core);
    return;
  }
  // Wakeup preemption: leftmost queued entity must lead by the granularity.
  if (c.rq.empty()) {
    return;
  }
  const Entity best = *c.rq.begin();
  const double lead = c.current_task->vruntime - EntityVruntime(best, core);
  if (lead > static_cast<double>(config_.wakeup_granularity)) {
    Task* prev = c.current_task;
    prev->set_state(TaskState::kRunnable);
    DisarmCompletion(core);
    c.current_task = nullptr;
    Enqueue(core, Entity{prev, nullptr});
    Schedule(core);
  }
}

// ---------------------------------------------------------------------------
// Core scheduling
// ---------------------------------------------------------------------------

double CpuScheduler::CoreLeftmostVruntime(CoreId core, const TaskGroup* exclude) const {
  const Core& c = cores_[static_cast<size_t>(core)];
  for (const Entity& e : c.rq) {
    if (e.is_group() && e.group == exclude) {
      continue;
    }
    return EntityVruntime(e, core);
  }
  return kInf;
}

double CpuScheduler::GlobalCompetitorVruntime(const TaskGroup* group) const {
  double best = kInf;
  for (CoreId j = 0; j < num_cores(); ++j) {
    const Core& cj = cores_[static_cast<size_t>(j)];
    for (const Entity& e : cj.rq) {
      if (e.is_group() && e.group == group) {
        continue;
      }
      best = std::min(best, EntityVruntime(e, j));
      break;  // runqueue is ordered; first non-group entry is the minimum
    }
    if (cj.current_task != nullptr && cj.current_task->group != group) {
      best = std::min(best, cj.current_task->vruntime);
    }
  }
  return best;
}

bool CpuScheduler::BalloonEligible(CoreId core, TaskGroup* group) const {
  if (active_balloon_ != nullptr) {
    return false;  // balloons are whole-cluster; two cannot coexist
  }
  const double competitor = GlobalCompetitorVruntime(group);
  if (competitor == kInf) {
    return true;
  }
  const double vr = group->per_core_[static_cast<size_t>(core)].vruntime;
  return vr <= competitor + static_cast<double>(config_.wakeup_granularity);
}

CpuScheduler::Entity CpuScheduler::PickNext(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  // Group entities are only eligible when the balloon could start: no other
  // balloon active, and the group is not still repaying its loans relative
  // to any competitor in the system.
  const Entity* local = nullptr;
  for (const Entity& e : c.rq) {
    if (e.is_group() && !BalloonEligible(core, e.group)) {
      continue;
    }
    local = &e;
    break;
  }
  const double local_vr = local != nullptr ? EntityVruntime(*local, core) : kInf;

  // Cross-core stealing keeps long-run fairness when runnable counts are
  // unbalanced (e.g. 3 tasks on 2 cores): a queued remote task whose
  // vruntime lags far behind is pulled over. Only plain tasks migrate.
  Task* steal = nullptr;
  CoreId steal_from = -1;
  double steal_vr = local_vr - static_cast<double>(config_.steal_threshold);
  for (CoreId j = 0; j < num_cores(); ++j) {
    if (j == core) {
      continue;
    }
    const Core& cj = cores_[static_cast<size_t>(j)];
    // Only steal from cores that are busy; an idle core will pick its own
    // queued tasks imminently.
    if (cj.current_task == nullptr && cj.balloon == nullptr) {
      continue;
    }
    for (const Entity& e : cj.rq) {
      if (e.is_group()) {
        continue;
      }
      const double vr = e.task->vruntime;
      if (vr < steal_vr) {
        steal = e.task;
        steal_from = j;
        steal_vr = vr;
      }
      break;  // only the leftmost plain task is a candidate
    }
  }
  if (steal != nullptr) {
    Dequeue(steal_from, Entity{steal, nullptr});
    steal->core = core;
    // No vruntime clamp here: the stolen task's lag is precisely its claim
    // to catch-up time (clamping is only for tasks returning from sleep).
    ++stats_.steals;
    return Entity{steal, nullptr};
  }
  if (local != nullptr) {
    Entity e = *local;
    Dequeue(core, e);
    return e;
  }
  return Entity{};
}

void CpuScheduler::Schedule(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  PSBOX_CHECK(c.balloon == nullptr);
  PSBOX_CHECK(c.current_task == nullptr);
  Entity next = PickNext(core);
  if (next.task == nullptr && next.group == nullptr) {
    SwitchToIdle(core);
    if (!c.rq.empty()) {
      // An ineligible group is waiting (repaying loans or blocked behind
      // another balloon); retry once the competition may have caught up.
      ScheduleIdleRetryAt(sim_->Now() + config_.tick_period, core);
    }
    return;
  }
  if (next.is_group()) {
    StartBalloon(core, next.group);
    return;
  }
  SwitchTo(core, next.task, nullptr);
}

void CpuScheduler::SwitchTo(CoreId core, Task* task, TaskGroup* group) {
  Core& c = cores_[static_cast<size_t>(core)];
  ++stats_.context_switches;
  c.current_task = task;
  c.current_group = group;
  c.last_update = sim_->Now();
  if (task != nullptr) {
    task->set_state(TaskState::kRunning);
    task->core = core;
    auto it = wake_time_.find(task->id());
    if (it != wake_time_.end()) {
      stats_.total_wake_latency += sim_->Now() - it->second;
      wake_time_.erase(it);
    }
    cpu_->SetCoreState(core, true, task->intensity(), task->app());
    c.schedule_trace.Set(sim_->Now(), static_cast<double>(task->app()));
    ArmTick(core);
    if (task->remaining_compute() > 0) {
      ArmCompletion(core);
    } else {
      ProcessActions(core);
    }
  } else {
    // Balloon dummy: forces the core idle on behalf of the group.
    PSBOX_CHECK(group != nullptr);
    cpu_->SetCoreState(core, false, 0.0, kNoApp);
    c.schedule_trace.Set(sim_->Now(), static_cast<double>(kIdleApp));
    DisarmCompletion(core);
    ArmTick(core);
  }
}

void CpuScheduler::SwitchToIdle(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  c.current_task = nullptr;
  c.current_group = nullptr;
  c.last_update = sim_->Now();
  cpu_->SetCoreState(core, false, 0.0, kNoApp);
  c.schedule_trace.Set(sim_->Now(), static_cast<double>(kNoApp));
  DisarmTick(core);
  DisarmCompletion(core);
}

void CpuScheduler::ArmTick(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  if (c.tick_event != kInvalidEventId) {
    return;
  }
  c.tick_event = sim_->ScheduleAfter(config_.tick_period, [this, core] {
    cores_[static_cast<size_t>(core)].tick_event = kInvalidEventId;
    OnTick(core);
  });
}

void CpuScheduler::DisarmTick(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  if (c.tick_event != kInvalidEventId) {
    sim_->Cancel(c.tick_event);
    c.tick_event = kInvalidEventId;
  }
}

void CpuScheduler::ArmCompletion(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  PSBOX_CHECK(c.current_task != nullptr);
  const double speed = cpu_->SpeedFactor();
  const double remaining = static_cast<double>(c.current_task->remaining_compute());
  const auto delay = static_cast<DurationNs>(std::ceil(remaining / speed));
  const TimeNs when = sim_->Now() + std::max<DurationNs>(delay, 0);
  if (c.completion_event != kInvalidEventId) {
    // Frequency change or preemption churn: the completion closure is
    // unchanged, only its deadline moves — take the in-place re-arm path.
    c.completion_event = sim_->Reschedule(c.completion_event, when);
    PSBOX_DCHECK(c.completion_event != kInvalidEventId);
    return;
  }
  c.completion_event = sim_->ScheduleAt(when, [this, core] {
    cores_[static_cast<size_t>(core)].completion_event = kInvalidEventId;
    OnComputeComplete(core);
  });
}

void CpuScheduler::DisarmCompletion(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  if (c.completion_event != kInvalidEventId) {
    sim_->Cancel(c.completion_event);
    c.completion_event = kInvalidEventId;
  }
}

void CpuScheduler::OnComputeComplete(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  PSBOX_CHECK(c.current_task != nullptr);
  AccountCore(core);
  // Rounding may leave a nanosecond-scale residue; treat it as done.
  if (c.current_task->remaining_compute() <= 1) {
    c.current_task->set_remaining_compute(0);
  }
  ProcessActions(core);
}

void CpuScheduler::OnTick(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  AccountCore(core);
  if (c.balloon != nullptr) {
    TaskGroup* g = c.balloon;
    auto& pc = g->per_core_[static_cast<size_t>(core)];
    const double left = CoreLeftmostVruntime(core, g);
    if (left < pc.vruntime) {
      // The group no longer has the best credit here; continuing requires an
      // extra loan covering the deficit (§4.2 step 3).
      pc.loan = std::max(pc.loan, pc.vruntime - left);
      pc.wants_resched = true;
    } else {
      pc.wants_resched = false;
    }
    CheckBalloonEnd(g);
    if (cores_[static_cast<size_t>(core)].balloon != nullptr) {
      ArmTick(core);
    }
    return;
  }
  if (c.current_task == nullptr) {
    return;
  }
  // Periodic-balance preemption: consider not only the local leftmost but
  // any queued plain task anywhere (it may be stranded behind a long runner
  // on another core; PickNext will steal it). This is what rotates 3 tasks
  // over 2 cores into a fair 2/3 share each.
  double best_vr = kInf;
  if (!c.rq.empty()) {
    best_vr = EntityVruntime(*c.rq.begin(), core);
  }
  for (CoreId j = 0; j < num_cores(); ++j) {
    if (j == core) {
      continue;
    }
    for (const Entity& e : cores_[static_cast<size_t>(j)].rq) {
      if (!e.is_group()) {
        best_vr = std::min(best_vr, e.task->vruntime);
        break;  // ordered: first plain task is the minimum
      }
    }
  }
  const double lead = c.current_task->vruntime - best_vr;
  if (lead > static_cast<double>(config_.wakeup_granularity)) {
    Task* prev = c.current_task;
    prev->set_state(TaskState::kRunnable);
    DisarmCompletion(core);
    c.current_task = nullptr;
    c.current_group = nullptr;
    Enqueue(core, Entity{prev, nullptr});
    Schedule(core);
    return;
  }
  ArmTick(core);
}

// ---------------------------------------------------------------------------
// Behaviour actions
// ---------------------------------------------------------------------------

void CpuScheduler::ProcessActions(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  Task* t = c.current_task;
  PSBOX_CHECK(t != nullptr);
  TaskEnv env{kernel_, t, sim_->Now()};
  while (true) {
    if (t->remaining_compute() > 0) {
      cpu_->SetCoreState(core, true, t->intensity(), t->app());
      ArmCompletion(core);
      return;
    }
    env.now = sim_->Now();
    const Action a = t->behavior().NextAction(env);
    switch (a.kind) {
      case ActionKind::kCompute: {
        PSBOX_CHECK_GT(a.duration, 0);
        t->set_remaining_compute(a.duration);
        t->set_intensity(a.intensity);
        break;
      }
      case ActionKind::kSleep: {
        kernel_->ScheduleTaskWake(t, a.duration);
        BlockCurrent(core);
        return;
      }
      case ActionKind::kSubmitAccel: {
        kernel_->HandleSubmitAccel(t, a);
        t->set_remaining_compute(config_.syscall_overhead);
        break;
      }
      case ActionKind::kWaitAccel: {
        if (t->pending_accel_completions >= a.count) {
          t->pending_accel_completions -= a.count;
          break;
        }
        t->awaited_accel_completions = a.count;
        BlockCurrent(core);
        return;
      }
      case ActionKind::kSend: {
        kernel_->HandleSend(t, a);
        t->set_remaining_compute(config_.syscall_overhead);
        break;
      }
      case ActionKind::kWaitNet: {
        if (t->net_inflight == 0) {
          break;
        }
        t->waiting_net = true;
        BlockCurrent(core);
        return;
      }
      case ActionKind::kSubmitStorage: {
        kernel_->HandleSubmitStorage(t, a);
        t->set_remaining_compute(config_.syscall_overhead);
        break;
      }
      case ActionKind::kWaitStorage: {
        if (t->pending_storage_completions >= a.count) {
          t->pending_storage_completions -= a.count;
          break;
        }
        t->awaited_storage_completions = a.count;
        BlockCurrent(core);
        return;
      }
      case ActionKind::kExit: {
        ExitCurrent(core);
        return;
      }
    }
  }
}

void CpuScheduler::BlockCurrent(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  Task* t = c.current_task;
  PSBOX_CHECK(t != nullptr);
  AccountCore(core);
  DisarmCompletion(core);
  t->set_state(TaskState::kBlocked);
  c.current_task = nullptr;
  if (t->group != nullptr) {
    --t->group->runnable_tasks_;
  }
  AfterCurrentLeft(core);
}

void CpuScheduler::ExitCurrent(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  Task* t = c.current_task;
  PSBOX_CHECK(t != nullptr);
  AccountCore(core);
  DisarmCompletion(core);
  t->set_state(TaskState::kExited);
  c.current_task = nullptr;
  if (t->group != nullptr) {
    TaskGroup* g = t->group;
    --g->runnable_tasks_;
    auto it = std::find(g->members_.begin(), g->members_.end(), t);
    if (it != g->members_.end()) {
      g->members_.erase(it);
    }
    t->group = nullptr;
  }
  if (kernel_ != nullptr) {
    kernel_->OnTaskExited(t);
  }
  AfterCurrentLeft(core);
}

void CpuScheduler::AfterCurrentLeft(CoreId core) {
  Core& c = cores_[static_cast<size_t>(core)];
  if (c.balloon != nullptr) {
    TaskGroup* g = c.balloon;
    if (g->runnable_tasks_ == 0) {
      EndBalloon(g, /*group_blocked=*/true);
      return;
    }
    // Refill this slot from the group's local (or a surplus remote) list.
    SpreadGroupTasks(g);
    Core& core_ref = cores_[static_cast<size_t>(core)];
    if (core_ref.current_task == nullptr && core_ref.balloon == g) {
      auto& pc = g->per_core_[static_cast<size_t>(core)];
      Task* next = nullptr;
      if (!pc.runnable.empty()) {
        auto it = std::min_element(pc.runnable.begin(), pc.runnable.end(),
                                   [](const Task* a, const Task* b) {
                                     return a->vruntime < b->vruntime;
                                   });
        next = *it;
        pc.runnable.erase(it);
      }
      SwitchTo(core, next, g);  // a waiting group task, or the dummy
    }
    return;
  }
  c.current_group = nullptr;
  Schedule(core);
}

// ---------------------------------------------------------------------------
// psbox groups & coscheduling
// ---------------------------------------------------------------------------

TaskGroup* CpuScheduler::CreateGroup(AppId app, PsboxId psbox) {
  auto& group = groups_[psbox];
  PSBOX_CHECK(group == nullptr);
  group = std::make_unique<TaskGroup>(app, psbox, num_cores());
  return group.get();
}

void CpuScheduler::BindBox(AppId app, PsboxId box) {
  kernel_->governor().BindBox(box);
  CreateGroup(app, box);
}

bool CpuScheduler::BoxRetirable(PsboxId box) const {
  const TaskGroup& g = *groups_.at(box);
  if (g.balloon_exclusive_ || g.coscheduling_ || active_balloon_ == &g ||
      g.slice_timer_ != kInvalidEventId || g.runnable_tasks_ != 0 ||
      !g.members_.empty()) {
    return false;
  }
  for (const TaskGroup::PerCore& pc : g.per_core_) {
    if (pc.queued || !pc.runnable.empty()) {
      return false;
    }
  }
  for (const IpiEvent& e : ipi_events_) {
    if (e.group == box && sim_->IsPending(e.event)) {
      return false;
    }
  }
  for (const NotifyEvent& e : notify_events_) {
    if (e.group == box && sim_->IsPending(e.event)) {
      return false;
    }
  }
  // Balloon time the governor has not consumed yet still reaches its next
  // sample (ConsumeUtilization's ballooned wall).
  auto util = balloon_util_.find(box);
  if (util != balloon_util_.end() &&
      (util->second.wall != 0.0 ||
       std::any_of(util->second.busy_per_core.begin(),
                   util->second.busy_per_core.end(),
                   [](DurationNs busy) { return busy != 0; }))) {
    return false;
  }
  return kernel_->governor().running() != box;
}

void CpuScheduler::UnbindBox(PsboxId box) {
  groups_.erase(box);
  balloon_util_.erase(box);
  kernel_->governor().UnbindBox(box);
}

void CpuScheduler::SetSandboxed(AppId app, PsboxId box) {
  EnterGroup(groups_.at(box).get(), kernel_->AppTasks(app));
}

void CpuScheduler::ClearSandboxed(AppId app) {
  // The group may already be disarmed if the app never ran sandboxed.
  TaskGroup* group = ActiveGroup(app);
  if (group != nullptr) {
    LeaveGroup(group);
  }
}

AppId CpuScheduler::balloon_owner() const {
  return active_balloon_ != nullptr ? active_balloon_->app() : kNoApp;
}

void CpuScheduler::TrimTelemetry(TimeNs horizon) {
  for (Core& core : cores_) {
    core.schedule_trace.TrimBefore(horizon);
  }
  ResourceDomain::TrimTelemetry(horizon);
}

TaskGroup* CpuScheduler::ActiveGroup(AppId app) const {
  auto it = active_group_by_app_.find(app);
  return it == active_group_by_app_.end() ? nullptr : it->second;
}

void CpuScheduler::EnterGroup(TaskGroup* group, const std::vector<Task*>& tasks) {
  if (group->balloon_exclusive_) {
    return;  // rapid enter/leave/enter collapsed into one armed period
  }
  group->balloon_exclusive_ = true;
  active_group_by_app_[group->app()] = group;
  for (CoreId c = 0; c < num_cores(); ++c) {
    auto& pc = group->per_core_[static_cast<size_t>(c)];
    pc.vruntime = ClampVruntime(c, pc.vruntime);
    pc.loan = 0.0;
    pc.wants_resched = false;
  }
  for (Task* t : tasks) {
    if (t->state() == TaskState::kExited) {
      continue;
    }
    t->group = group;
    group->members_.push_back(t);
    const CoreId core = t->core >= 0 ? t->core : LeastLoadedCore();
    t->core = core;
    auto& pc = group->per_core_[static_cast<size_t>(core)];
    switch (t->state()) {
      case TaskState::kRunning: {
        Core& c = cores_[static_cast<size_t>(core)];
        PSBOX_CHECK(c.current_task == t);
        AccountCore(core);
        DisarmCompletion(core);
        t->set_state(TaskState::kRunnable);
        c.current_task = nullptr;
        c.current_group = nullptr;
        pc.runnable.push_back(t);
        ++group->runnable_tasks_;
        if (!pc.queued) {
          Enqueue(core, Entity{nullptr, group});
        }
        Schedule(core);
        break;
      }
      case TaskState::kRunnable: {
        if (IsQueued(core, Entity{t, nullptr})) {
          Dequeue(core, Entity{t, nullptr});
        }
        pc.runnable.push_back(t);
        ++group->runnable_tasks_;
        if (!pc.queued) {
          Enqueue(core, Entity{nullptr, group});
        }
        break;
      }
      case TaskState::kBlocked:
        break;  // joins the group's runnable list on wake
      case TaskState::kExited:
        break;
    }
  }
}

void CpuScheduler::LeaveGroup(TaskGroup* group) {
  if (!group->balloon_exclusive_) {
    return;  // never armed (or already left)
  }
  // Disarm first so the EndBalloon -> Schedule path cannot restart a
  // coscheduling period for this group.
  group->balloon_exclusive_ = false;
  active_group_by_app_.erase(group->app());
  if (group->coscheduling_) {
    EndBalloon(group, /*group_blocked=*/false);
  }
  // Remove the group entities from all runqueues and release the tasks back
  // into the normal scheduler.
  for (CoreId c = 0; c < num_cores(); ++c) {
    auto& pc = group->per_core_[static_cast<size_t>(c)];
    if (pc.queued) {
      Dequeue(c, Entity{nullptr, group});
    }
    for (Task* t : pc.runnable) {
      t->group = nullptr;
      t->vruntime = ClampVruntime(c, t->vruntime);
      Enqueue(c, Entity{t, nullptr});
      --group->runnable_tasks_;
    }
    pc.runnable.clear();
  }
  for (Task* t : group->members_) {
    t->group = nullptr;
  }
  group->members_.clear();
  PSBOX_CHECK_EQ(group->runnable_tasks_, 0);
  for (CoreId c = 0; c < num_cores(); ++c) {
    ReEvaluate(c);
  }
}

void CpuScheduler::SpreadGroupTasks(TaskGroup* group) {
  // Move surplus runnable tasks to balloon cores whose local lists are empty
  // ("coschedules tasks of App on all the cores", §4.2).
  for (CoreId c = 0; c < num_cores(); ++c) {
    Core& core = cores_[static_cast<size_t>(c)];
    if (core.balloon != group) {
      continue;
    }
    auto& pc = group->per_core_[static_cast<size_t>(c)];
    if (core.current_task != nullptr || !pc.runnable.empty()) {
      continue;
    }
    // Find a donor core with a surplus (>= 1 queued beyond its own slot).
    for (CoreId j = 0; j < num_cores(); ++j) {
      if (j == c) {
        continue;
      }
      auto& pj = group->per_core_[static_cast<size_t>(j)];
      if (pj.runnable.empty()) {
        continue;
      }
      Task* moved = pj.runnable.front();
      pj.runnable.erase(pj.runnable.begin());
      moved->core = c;
      pc.runnable.push_back(moved);
      break;
    }
  }
}

void CpuScheduler::StartBalloon(CoreId initiator, TaskGroup* group) {
  PSBOX_CHECK(group->balloon_exclusive_);
  PSBOX_CHECK(!group->coscheduling_);
  PSBOX_CHECK(active_balloon_ == nullptr);
  active_balloon_ = group;
  group->coscheduling_ = true;
  group->owned_notified_ = false;
  group->balloon_started_ = sim_->Now();
  RecordBalloonStart();
  RecordEdge(BalloonEdge::Kind::kRequest, group->app(), group->psbox());
  // Remove the group's entities from every runqueue: while coscheduled the
  // group is "on cpu" everywhere.
  for (CoreId c = 0; c < num_cores(); ++c) {
    auto& pc = group->per_core_[static_cast<size_t>(c)];
    if (pc.queued) {
      Dequeue(c, Entity{nullptr, group});
    }
    pc.loan = 0.0;
    pc.wants_resched = false;
  }
  // Arm the shootdown IPIs, the owned-notify, and the slice timer BEFORE
  // joining the initiator: switching the group in can end the balloon
  // synchronously (its only runnable task exits on the switched-in slice),
  // and EndBalloon can only cancel timers it already knows about. Arming
  // after the join would leave timers of an already-ended balloon pending —
  // untracked by any serialiser and orphaned once the group's next balloon
  // overwrites slice_timer_.
  // Task shootdown: IPIs to all other cores (§4.2 step 2).
  const TimeNs owned_from =
      num_cores() > 1 ? sim_->Now() + config_.ipi_delay : sim_->Now();
  for (CoreId j = 0; j < num_cores(); ++j) {
    if (j == initiator) {
      continue;
    }
    ++stats_.shootdown_ipis;
    ScheduleIpiAt(sim_->Now() + config_.ipi_delay, j, group);
  }
  ScheduleOwnedNotifyAt(owned_from, group);
  group->slice_timer_ = sim_->ScheduleAfter(config_.max_balloon_slice, [this, group] {
    group->slice_timer_ = kInvalidEventId;
    if (group->coscheduling_) {
      EndBalloon(group, /*group_blocked=*/false);
    }
  });
  JoinBalloon(initiator, group);
}

void CpuScheduler::JoinBalloon(CoreId core, TaskGroup* group) {
  Core& c = cores_[static_cast<size_t>(core)];
  PSBOX_CHECK(c.balloon == nullptr);
  AccountCore(core);
  DisarmCompletion(core);
  if (c.current_task != nullptr) {
    Task* prev = c.current_task;
    prev->set_state(TaskState::kRunnable);
    c.current_task = nullptr;
    c.current_group = nullptr;
    Enqueue(core, Entity{prev, nullptr});
  }
  // Initial loan: the credit the group entity lacked vs. the task that would
  // otherwise run on this core (§4.2 step 2).
  auto& pc = group->per_core_[static_cast<size_t>(core)];
  const double left = CoreLeftmostVruntime(core, group);
  if (left < pc.vruntime) {
    pc.loan = pc.vruntime - left;
  }
  c.balloon = group;
  SpreadGroupTasks(group);
  Task* next = nullptr;
  if (!pc.runnable.empty()) {
    auto it = std::min_element(
        pc.runnable.begin(), pc.runnable.end(),
        [](const Task* a, const Task* b) { return a->vruntime < b->vruntime; });
    next = *it;
    pc.runnable.erase(it);
  }
  SwitchTo(core, next, group);
}

void CpuScheduler::CheckBalloonEnd(TaskGroup* group) {
  if (!group->coscheduling_) {
    return;
  }
  // End when the group has lost the best credit on every coscheduled core
  // (§4.2 step 4). Cores not yet joined (IPI in flight) don't count.
  bool all_want = true;
  int joined = 0;
  for (CoreId c = 0; c < num_cores(); ++c) {
    if (cores_[static_cast<size_t>(c)].balloon != group) {
      continue;
    }
    ++joined;
    if (!group->per_core_[static_cast<size_t>(c)].wants_resched) {
      all_want = false;
    }
  }
  if (joined == num_cores() && all_want) {
    EndBalloon(group, /*group_blocked=*/false);
  }
}

void CpuScheduler::EndBalloon(TaskGroup* group, bool group_blocked) {
  PSBOX_CHECK(group->coscheduling_);
  // Account every coscheduled core before touching vruntimes.
  std::vector<CoreId> members;
  for (CoreId c = 0; c < num_cores(); ++c) {
    if (cores_[static_cast<size_t>(c)].balloon == group) {
      AccountCore(c);
      members.push_back(c);
    }
  }
  // Loan redistribution & repayment (§4.2 step 5): the group pays back the
  // loans accumulated during the coscheduling period; all entities evenly
  // split the total so the disadvantage spreads across all cores. This is
  // the charge for the exclusive (possibly under-utilised) occupation that
  // keeps co-running apps' long-term shares intact (Fig 8).
  double total_loan = 0.0;
  for (CoreId c = 0; c < num_cores(); ++c) {
    total_loan += group->per_core_[static_cast<size_t>(c)].loan;
  }
  const double share = total_loan / static_cast<double>(num_cores());
  for (CoreId c = 0; c < num_cores(); ++c) {
    auto& pc = group->per_core_[static_cast<size_t>(c)];
    if (config_.charge_lost_sharing) {
      pc.vruntime += share;
    }
    pc.loan = 0.0;
    pc.wants_resched = false;
  }
  group->coscheduling_ = false;
  PSBOX_CHECK(active_balloon_ == group);
  active_balloon_ = nullptr;
  RecordBalloonTime(sim_->Now() - group->balloon_started_);
  // Spatial balloons end in one step — no separate release/drain edge.
  RecordEdge(BalloonEdge::Kind::kFinish, group->app(), group->psbox());
  if (group->slice_timer_ != kInvalidEventId) {
    sim_->Cancel(group->slice_timer_);
    group->slice_timer_ = kInvalidEventId;
  }
  // A balloon can end before its shootdown IPIs / owned-notify fired (a tiny
  // group drains within ipi_delay). Cancel the stragglers: if the group
  // started another balloon within the delay, a stale IPI would join a core
  // it already holds and a stale notify would double-open the ownership
  // window.
  const PsboxId ended = group->psbox();
  std::erase_if(ipi_events_, [&](const IpiEvent& e) {
    if (!sim_->IsPending(e.event)) {
      return true;
    }
    if (e.group != ended) {
      return false;
    }
    sim_->Cancel(e.event);
    return true;
  });
  std::erase_if(notify_events_, [&](const NotifyEvent& e) {
    if (!sim_->IsPending(e.event)) {
      return true;
    }
    if (e.group != ended) {
      return false;
    }
    sim_->Cancel(e.event);
    return true;
  });
  if (group->owned_notified_ && kernel_ != nullptr) {
    SwitchPowerState(kNoPsbox);
    NotifyBalloonOut(group->psbox(), sim_->Now());
    group->owned_notified_ = false;
  }
  // Tear down per-core occupancy; running group tasks go back to runnable.
  for (CoreId c : members) {
    Core& core = cores_[static_cast<size_t>(c)];
    if (core.current_task != nullptr) {
      Task* t = core.current_task;
      t->set_state(TaskState::kRunnable);
      group->per_core_[static_cast<size_t>(c)].runnable.push_back(t);
      core.current_task = nullptr;
    }
    core.balloon = nullptr;
    core.current_group = nullptr;
    DisarmCompletion(c);
  }
  // Requeue the group's entities wherever it still has runnable tasks.
  if (!group_blocked) {
    for (CoreId c = 0; c < num_cores(); ++c) {
      auto& pc = group->per_core_[static_cast<size_t>(c)];
      if (!pc.runnable.empty() && !pc.queued && group->balloon_exclusive_) {
        pc.vruntime = ClampVruntime(c, pc.vruntime);
        Enqueue(c, Entity{nullptr, group});
      }
    }
  } else {
    // All tasks blocked; entities stay dequeued until a wake re-adds them.
    for (CoreId c = 0; c < num_cores(); ++c) {
      PSBOX_CHECK(group->per_core_[static_cast<size_t>(c)].runnable.empty());
    }
  }
  for (CoreId c : members) {
    Schedule(c);
  }
}

// ---------------------------------------------------------------------------
// DVFS coupling & introspection
// ---------------------------------------------------------------------------

void CpuScheduler::SwitchPowerState(PsboxId box) {
  if (kernel_->config().virtualize_cpu_freq) {
    kernel_->governor().Switch(box);
  }
}

bool CpuScheduler::SetOpp(int opp_index) {
  if (opp_index == cpu_->opp_index()) {
    return true;
  }
  for (CoreId c = 0; c < num_cores(); ++c) {
    AccountCore(c);
  }
  const bool ok = cpu_->SetOppIndex(opp_index);
  for (CoreId c = 0; c < num_cores(); ++c) {
    Core& core = cores_[static_cast<size_t>(c)];
    if (core.current_task != nullptr && core.current_task->remaining_compute() > 0) {
      ArmCompletion(c);
    }
  }
  return ok;
}

CpuScheduler::UtilizationSample CpuScheduler::ConsumeUtilization() {
  UtilizationSample sample;
  const TimeNs now = sim_->Now();
  const DurationNs window = now - util_last_consume_;
  if (window <= 0) {
    return sample;
  }
  DurationNs busiest = 0;
  for (CoreId c = 0; c < num_cores(); ++c) {
    AccountCore(c);
    busiest = std::max(busiest, cores_[static_cast<size_t>(c)].busy_outside);
    cores_[static_cast<size_t>(c)].busy_outside = 0;
  }
  double ballooned_wall = 0.0;
  for (auto& [box, bu] : balloon_util_) {
    ballooned_wall += bu.wall;
    // Require a meaningful sample before judging the sandbox's demand.
    if (bu.wall >= 1.0 * kMillisecond) {
      DurationNs box_busiest = 0;
      for (DurationNs busy : bu.busy_per_core) {
        box_busiest = std::max(box_busiest, busy);
      }
      sample.per_box[box] =
          std::min(1.0, static_cast<double>(box_busiest) / bu.wall);
    }
    bu.wall = 0.0;
    std::fill(bu.busy_per_core.begin(), bu.busy_per_core.end(), 0);
  }
  const double global_window =
      std::max(1.0, static_cast<double>(window) - ballooned_wall);
  sample.global = std::min(1.0, static_cast<double>(busiest) / global_window);
  util_last_consume_ = now;
  return sample;
}

void CpuScheduler::RemoveFromGroupRunnable(Task* task) {
  TaskGroup* g = task->group;
  PSBOX_CHECK(g != nullptr);
  auto& pc = g->per_core_[static_cast<size_t>(task->core)];
  auto it = std::find(pc.runnable.begin(), pc.runnable.end(), task);
  PSBOX_CHECK(it != pc.runnable.end());
  pc.runnable.erase(it);
}

// ---------------------------------------------------------------------------
// Checkpoint/restore
// ---------------------------------------------------------------------------

void CpuScheduler::ScheduleIdleRetryAt(TimeNs when, CoreId core) {
  std::erase_if(retry_events_,
                [this](const RetryEvent& e) { return !sim_->IsPending(e.event); });
  retry_events_.push_back(
      {core, sim_->ScheduleAt(when, [this, core] { ReEvaluate(core); })});
}

void CpuScheduler::ScheduleIpiAt(TimeNs when, CoreId core, TaskGroup* group) {
  std::erase_if(ipi_events_,
                [this](const IpiEvent& e) { return !sim_->IsPending(e.event); });
  ipi_events_.push_back({core, group->psbox(),
                         sim_->ScheduleAt(when, [this, core, group] {
                           if (group->coscheduling_) {
                             JoinBalloon(core, group);
                           }
                         })});
}

void CpuScheduler::ScheduleOwnedNotifyAt(TimeNs when, TaskGroup* group) {
  std::erase_if(notify_events_, [this](const NotifyEvent& e) {
    return !sim_->IsPending(e.event);
  });
  notify_events_.push_back(
      {group->psbox(), sim_->ScheduleAt(when, [this, group, when] {
         if (group->coscheduling_ && kernel_ != nullptr) {
           group->owned_notified_ = true;
           SwitchPowerState(group->psbox());
           NotifyBalloonIn(group->psbox(), when);
           RecordEdge(BalloonEdge::Kind::kServe, group->app(), group->psbox());
         }
       })});
}

template <class Ar>
void CpuScheduler::Serialize(Ar& ar) {
  if (!ar.Section("scheduler")) {
    return;
  }
  SerializeDomain(ar);
  // A group travels as its box id (-1 for none): restore recreates the live
  // boxes' groups (via BindBox) before this runs.
  auto find_group = [&](PsboxId box, const char* unknown) -> TaskGroup* {
    auto it = groups_.find(box);
    if (it != groups_.end()) {
      return it->second.get();
    }
    if constexpr (Ar::kLoading) {
      ar.Fail(unknown);
    }
    return nullptr;
  };
  auto group_ref = [&](TaskGroup*& g, const char* unknown) {
    PsboxId box = g != nullptr ? g->psbox() : kNoPsbox;
    ar.I64(box);
    if constexpr (Ar::kLoading) {
      g = ar.ok() && box != kNoPsbox ? find_group(box, unknown) : nullptr;
    }
  };
  // The box of a group a tracked timer acts on.
  auto group_id = [&](PsboxId& box, const char* unknown) {
    ar.I64(box);
    if constexpr (Ar::kLoading) {
      if (ar.ok()) {
        find_group(box, unknown);
      }
    }
  };
  // A core a tracked timer acts on.
  auto core_id = [&](CoreId& core, const char* what) {
    ar.I64(core);
    if constexpr (Ar::kLoading) {
      if (ar.ok() && (core < 0 || core >= num_cores())) {
        ar.Fail(std::string("snapshot ") + what + " core " +
                std::to_string(core) + " out of range");
      }
    }
  };
  auto member = [&](Task*& t) {
    ar.TaskRef(t, *kernel_, "scheduler group member task missing from snapshot",
               /*nullable=*/false);
  };
  if constexpr (Ar::kLoading) {
    active_group_by_app_.clear();
  }
  ar.Fixed(groups_, 32,
           "scheduler group count mismatch between snapshot and restored boxes",
           [&](auto& entry) {
    TaskGroup* g = entry.second.get();
    ar.Expect(g->app_, "scheduler group identity mismatch in snapshot");
    ar.Expect(g->psbox_, "scheduler group identity mismatch in snapshot");
    ar.Bool(g->balloon_exclusive_);
    ar.Bool(g->coscheduling_);
    ar.Bool(g->owned_notified_);
    ar.I64(g->balloon_started_);
    ar.I64(g->runnable_tasks_);
    ar.Fixed(g->per_core_, 17,
             "scheduler group core count mismatch in snapshot",
             [&](TaskGroup::PerCore& pc) {
      ar.F64(pc.vruntime);
      ar.F64(pc.loan);
      ar.Bool(pc.wants_resched);
      // `queued` is re-derived when the runqueues are rebuilt.
      if constexpr (Ar::kLoading) {
        pc.queued = false;
      }
      ar.Seq(pc.runnable, 8, member);
    });
    ar.Seq(g->members_, 8, member);
    ar.Event(g->slice_timer_, [this, g](TimeNs when) {
      g->slice_timer_ = sim_->ScheduleAt(when, [this, g] {
        g->slice_timer_ = kInvalidEventId;
        if (g->coscheduling_) {
          EndBalloon(g, /*group_blocked=*/false);
        }
      });
    });
    if constexpr (Ar::kLoading) {
      for (Task* t : g->members_) {
        t->group = g;
      }
      if (g->balloon_exclusive_) {
        active_group_by_app_[g->app_] = g;
      }
    }
  });
  group_ref(active_balloon_, "scheduler balloon references unknown group");
  ar.Fixed(cores_, 64,
           "scheduler core count mismatch between snapshot and config",
           [&](Core& c) {
    const auto core = static_cast<CoreId>(&c - cores_.data());
    // Runqueue in order. Restore inserts the entities after all vruntimes
    // are back (the comparator reads them live) and re-marks queued groups.
    ar.Seq(c.rq, 9, [&](auto& e) {
      bool is_group = e.is_group();
      ar.Bool(is_group);
      if (!is_group) {
        ar.TaskRef(e.task, *kernel_,
                   "scheduler runqueue references unknown task",
                   /*nullable=*/false);
      } else {
        PsboxId box = Ar::kLoading ? kNoPsbox : e.group->psbox();
        ar.I64(box);
        if constexpr (Ar::kLoading) {
          e.group = ar.ok() ? find_group(
                                  box, "scheduler runqueue references unknown group")
                            : nullptr;
        }
      }
      if constexpr (Ar::kLoading) {
        if (ar.ok() && c.rq.count(e) > 0) {
          ar.Fail("scheduler runqueue lists an entity twice");
        }
      }
    });
    if constexpr (Ar::kLoading) {
      for (const Entity& e : c.rq) {
        if (e.is_group()) {
          e.group->per_core_[static_cast<size_t>(core)].queued = true;
        }
      }
    }
    ar.TaskRef(c.current_task, *kernel_,
               "scheduler core runs a task missing from snapshot");
    group_ref(c.current_group, "scheduler core references unknown group");
    group_ref(c.balloon, "scheduler core balloon references unknown group");
    ar.I64(c.last_update);
    ar.F64(c.min_vruntime);
    ar.I64(c.busy_outside);
    c.schedule_trace.Serialize(ar);
    ar.Event(c.tick_event, [this, core](TimeNs when) {
      cores_[static_cast<size_t>(core)].tick_event =
          sim_->ScheduleAt(when, [this, core] {
            cores_[static_cast<size_t>(core)].tick_event = kInvalidEventId;
            OnTick(core);
          });
    });
    ar.Event(c.completion_event, [this, core](TimeNs when) {
      cores_[static_cast<size_t>(core)].completion_event =
          sim_->ScheduleAt(when, [this, core] {
            cores_[static_cast<size_t>(core)].completion_event =
                kInvalidEventId;
            OnComputeComplete(core);
          });
    });
  });
  ar.U64(stats_.context_switches);
  ar.U64(stats_.shootdown_ipis);
  ar.U64(stats_.wakeups);
  ar.I64(stats_.total_wake_latency);
  ar.U64(stats_.steals);
  ar.I64(util_last_consume_);
  ar.Map(balloon_util_, 24, [&](PsboxId& box, BalloonUtil& bu) {
    ar.I64(box);
    ar.Seq(bu.busy_per_core, 8, [&](DurationNs& busy) { ar.I64(busy); });
    ar.F64(bu.wall);
  });
  ar.Map(wake_time_, 16, [&](TaskId& task_id, TimeNs& when) {
    ar.U64(task_id);
    ar.I64(when);
  });
  ar.PendingEvents(retry_events_, 18, [&](RetryEvent& e) {
    core_id(e.core, "scheduler retry event");
    ar.Event(e.event, [this, core = e.core](TimeNs when) {
      ScheduleIdleRetryAt(when, core);
    });
  });
  ar.PendingEvents(ipi_events_, 26, [&](IpiEvent& e) {
    core_id(e.core, "scheduler IPI event");
    group_id(e.group, "scheduler IPI event references unknown group");
    ar.Event(e.event, [this, core = e.core, box = e.group](TimeNs when) {
      ScheduleIpiAt(when, core, groups_.at(box).get());
    });
  });
  ar.PendingEvents(notify_events_, 18, [&](NotifyEvent& e) {
    group_id(e.group, "scheduler notify event references unknown group");
    ar.Event(e.event, [this, box = e.group](TimeNs when) {
      ScheduleOwnedNotifyAt(when, groups_.at(box).get());
    });
  });
}

template void CpuScheduler::Serialize(SnapshotWriter&);
template void CpuScheduler::Serialize(SnapshotReader&);

}  // namespace psbox
