#include "src/kernel/cpu_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/base/check.h"
#include "src/kernel/kernel.h"
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
    : ResourceDomain(sim, HwComponent::kCpu, /*drain_timeout=*/0,
                     kSchedulerEventKinds,
                     1u << kTick | 1u << kCompletion | 1u << kSliceEnd),
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
  TaskGroup* group = task->group;
  if (group == nullptr) {
    auto armed = active_group_by_app_.find(task->app());
    group = armed != active_group_by_app_.end() ? armed->second : nullptr;
  }
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
    if (Coscheduling(*group)) {
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
  if (balloon_phase() != BalloonPhase::kIdle) {
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
      sim_->ScheduleAfter(config_.tick_period, target_, kReEvaluate,
                          static_cast<uint64_t>(core));
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
  c.tick_event = sim_->ScheduleAfter(config_.tick_period, target_, kTick,
                                     static_cast<uint64_t>(core));
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
    // Frequency change or preemption churn: the completion record is
    // unchanged, only its deadline moves — take the in-place re-arm path.
    c.completion_event = sim_->Reschedule(c.completion_event, when);
    PSBOX_DCHECK(c.completion_event != kInvalidEventId);
    return;
  }
  c.completion_event = sim_->ScheduleAt(when, target_, kCompletion,
                                        static_cast<uint64_t>(core));
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
  kernel_->OnTaskExited(t);
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

void CpuScheduler::BindBox(AppId app, PsboxId box) {
  kernel_->governor().BindBox(box);
  auto& group = groups_[box];
  PSBOX_CHECK(group == nullptr);
  group = std::make_unique<TaskGroup>(app, box, num_cores());
}

bool CpuScheduler::BoxRetirable(PsboxId box) const {
  const TaskGroup& g = *groups_.at(box);
  if (g.balloon_exclusive_ || Coscheduling(g) ||
      g.slice_timer_ != kInvalidEventId || g.runnable_tasks_ != 0 ||
      !g.members_.empty()) {
    return false;
  }
  for (const TaskGroup::PerCore& pc : g.per_core_) {
    if (pc.queued || !pc.runnable.empty()) {
      return false;
    }
  }
  const auto id = static_cast<uint64_t>(box);
  if (sim_->FindPending(target_, kIpi, id) != kInvalidEventId ||
      sim_->FindPending(target_, kOwnedNotify, id) != kInvalidEventId) {
    return false;
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

void CpuScheduler::TrimTelemetry(TimeNs horizon) {
  for (Core& core : cores_) {
    core.schedule_trace.TrimBefore(horizon);
  }
  ResourceDomain::TrimTelemetry(horizon);
}

void CpuScheduler::SetSandboxed(AppId app, PsboxId box) {
  TaskGroup* group = groups_.at(box).get();
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
  for (Task* t : kernel_->AppTasks(app)) {
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

void CpuScheduler::ClearSandboxed(AppId app) {
  auto armed = active_group_by_app_.find(app);
  if (armed == active_group_by_app_.end()) {
    return;  // never armed (or already left)
  }
  TaskGroup* group = armed->second;
  // Disarm first so the EndBalloon -> Schedule path cannot restart a
  // coscheduling period for this group.
  group->balloon_exclusive_ = false;
  active_group_by_app_.erase(armed);
  if (Coscheduling(*group)) {
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
  BalloonRequest(group->app(), group->psbox());
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
  // and EndBalloon cancels the timers it finds pending. Arming after the
  // join would leave timers of an already-ended balloon pending, the slice
  // timer's orphaned once the group's next balloon overwrites slice_timer_.
  // Task shootdown: IPIs to all other cores (§4.2 step 2).
  const auto box = static_cast<uint64_t>(group->psbox());
  for (CoreId j = 0; j < num_cores(); ++j) {
    if (j == initiator) {
      continue;
    }
    ++stats_.shootdown_ipis;
    sim_->ScheduleAfter(config_.ipi_delay, target_, kIpi, box,
                        static_cast<uint64_t>(j));
  }
  sim_->ScheduleAfter(num_cores() > 1 ? config_.ipi_delay : 0, target_,
                      kOwnedNotify, box);
  group->slice_timer_ =
      sim_->ScheduleAfter(config_.max_balloon_slice, target_, kSliceEnd, box);
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
  if (!Coscheduling(*group)) {
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
  PSBOX_CHECK(Coscheduling(*group));
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
  if (group->slice_timer_ != kInvalidEventId) {
    sim_->Cancel(group->slice_timer_);
    group->slice_timer_ = kInvalidEventId;
  }
  // A balloon can end before its shootdown IPIs / owned-notify fired (a tiny
  // group drains within ipi_delay). Cancel the stragglers: if the group
  // started another balloon within the delay, a stale IPI would join a core
  // it already holds and a stale notify would double-open the ownership
  // window.
  const auto ended = static_cast<uint64_t>(group->psbox());
  sim_->CancelPending(target_, kIpi, ended);
  sim_->CancelPending(target_, kOwnedNotify, ended);
  if (balloon_phase() == BalloonPhase::kServe) {
    SwitchPowerState(kNoPsbox);
  }
  // Spatial balloons end in one step: no separate release/drain edge.
  BalloonEnd();
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

// ---------------------------------------------------------------------------
// Timers and checkpoint/restore
// ---------------------------------------------------------------------------

void CpuScheduler::OnEvent(uint8_t kind, uint64_t a, uint64_t b) {
  const auto core = static_cast<CoreId>(a);
  switch (kind) {
    case kReEvaluate:
      ReEvaluate(core);
      return;
    case kTick:
      cores_[static_cast<size_t>(core)].tick_event = kInvalidEventId;
      OnTick(core);
      return;
    case kCompletion:
      cores_[static_cast<size_t>(core)].completion_event = kInvalidEventId;
      OnComputeComplete(core);
      return;
    case kSliceEnd: {
      TaskGroup& g = *groups_.at(static_cast<PsboxId>(a));
      g.slice_timer_ = kInvalidEventId;
      if (Coscheduling(g)) {
        EndBalloon(&g, /*group_blocked=*/false);
      }
      return;
    }
    case kIpi: {
      TaskGroup& g = *groups_.at(static_cast<PsboxId>(a));
      if (Coscheduling(g)) {
        JoinBalloon(static_cast<CoreId>(b), &g);
      }
      return;
    }
    case kOwnedNotify: {
      TaskGroup& g = *groups_.at(static_cast<PsboxId>(a));
      if (Coscheduling(g) && balloon_phase() == BalloonPhase::kDrainOthers) {
        SwitchPowerState(g.psbox());
        BalloonServe();
      }
      return;
    }
    default:
      ResourceDomain::OnEvent(kind, a, b);
  }
}

std::string CpuScheduler::CheckEvent(uint8_t kind, uint64_t a,
                                     uint64_t b) const {
  const auto cores = static_cast<uint64_t>(num_cores());
  const auto core_bad = [cores](uint64_t core) {
    return core >= cores ? "names core " + std::to_string(core) + " of " +
                               std::to_string(cores)
                         : std::string();
  };
  switch (kind) {
    case kReEvaluate:
    case kTick:
    case kCompletion:
      return core_bad(a);
    case kSliceEnd:
    case kIpi:
    case kOwnedNotify:
      if (a != static_cast<uint64_t>(static_cast<PsboxId>(a)) ||
          groups_.count(static_cast<PsboxId>(a)) == 0) {
        return "names box " + std::to_string(a) +
               ", which has no scheduler group";
      }
      return kind == kIpi ? core_bad(b) : std::string();
    default:
      return ResourceDomain::CheckEvent(kind, a, b);
  }
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
    if constexpr (Ar::kLoading) {
      g->slice_timer_ = sim_->FindPending(target_, kSliceEnd,
                                          static_cast<uint64_t>(g->psbox_));
      for (Task* t : g->members_) {
        t->group = g;
      }
      if (g->balloon_exclusive_) {
        active_group_by_app_[g->app_] = g;
      }
    }
  });
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
    if constexpr (Ar::kLoading) {
      const auto id = static_cast<uint64_t>(core);
      c.tick_event = sim_->FindPending(target_, kTick, id);
      c.completion_event = sim_->FindPending(target_, kCompletion, id);
    }
  });
  if constexpr (Ar::kLoading) {
    // The domain's balloon is the one record of the coscheduling period: it
    // must name an armed group of its owner app, and every core in a
    // balloon must hold that group.
    const std::string domain = std::string(name()) + " domain";
    auto it = groups_.find(owner_box());
    const TaskGroup* owner = it != groups_.end() ? it->second.get() : nullptr;
    if (ar.ok() && balloon_owner() != kNoApp &&
        (owner == nullptr || owner->app() != balloon_owner() ||
         !owner->balloon_exclusive_)) {
      ar.Fail(domain + "'s balloon names box " + std::to_string(owner_box()) +
              ", which has no armed group of its owner app " +
              std::to_string(balloon_owner()));
    } else if (ar.ok() && balloon_phase() == BalloonPhase::kDrainOwner) {
      ar.Fail(domain + "'s balloon is in an owner drain, which coscheduling "
              "has not");
    }
    for (const Core& c : cores_) {
      if (ar.ok() && c.balloon != nullptr && c.balloon != owner) {
        ar.Fail(domain + ": core " + std::to_string(&c - cores_.data()) +
                " holds the balloon of box " +
                std::to_string(c.balloon->psbox()) +
                ", which is not the domain's balloon");
      }
    }
  }
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
}

template void CpuScheduler::Serialize(SnapshotWriter&);
template void CpuScheduler::Serialize(SnapshotReader&);

}  // namespace psbox
