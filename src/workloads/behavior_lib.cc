#include "src/workloads/behavior_lib.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/psbox/psbox_api.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

namespace {

// An action's accelerator command type travels as i64 here, unlike the
// devices' and drivers' u32.
template <class Ar>
void SerializeAction(Ar& ar, Action& a) {
  ar.Enum(a.kind, ActionKind::kExit, "action kind");
  ar.I64(a.duration);
  ar.F64(a.intensity);
  ar.Enum(a.accel, HwComponent::kStorage, "action accelerator");
  ar.U64(a.cmd.id);
  ar.I64(a.cmd.app);
  ar.I64(a.cmd.type);
  ar.I64(a.cmd.nominal_work);
  ar.F64(a.cmd.active_power);
  ar.U64(a.bytes);
  ar.U64(a.response_bytes);
  ar.I64(a.response_delay);
  ar.I64(a.response_count);
  ar.I64(a.count);
  ar.Bool(a.storage_write);
}

}  // namespace

LoopBehavior::LoopBehavior(std::shared_ptr<WorkloadStats> stats, StepFn step,
                           uint64_t max_iterations, TimeNs deadline, Rng rng,
                           std::shared_ptr<const bool> stop)
    : stats_(std::move(stats)), step_(std::move(step)),
      max_iterations_(max_iterations), deadline_(deadline), rng_(rng),
      stop_(std::move(stop)) {
  PSBOX_CHECK(stats_ != nullptr);
}

Action LoopBehavior::NextAction(TaskEnv& env) {
  if (finished_) {
    return Action::Exit();
  }
  if (queue_.empty()) {
    if (!started_) {
      started_ = true;
      // Stats may be shared by several worker threads: the app starts with
      // its first worker and finishes with its last.
      if (stats_->start_time < 0) {
        stats_->start_time = env.now;
      }
    } else {
      ++stats_->iterations;  // the previous iteration's actions all completed
    }
    const bool over_iters = max_iterations_ > 0 && iter_ >= max_iterations_;
    const bool over_deadline = deadline_ > 0 && env.now >= deadline_;
    const bool stopped = stop_ != nullptr && *stop_;
    if (stopped) {
      stats_->evicted = true;
    }
    if (over_iters || over_deadline || stopped) {
      finished_ = true;
      stats_->finish_time = std::max(stats_->finish_time, env.now);
      return Action::Exit();
    }
    std::vector<Action> actions = step_(env, iter_, rng_);
    ++iter_;
    if (actions.empty()) {
      finished_ = true;
      stats_->finish_time = std::max(stats_->finish_time, env.now);
      return Action::Exit();
    }
    queue_.assign(actions.begin(), actions.end());
  }
  Action a = queue_.front();
  queue_.pop_front();
  return a;
}

void LoopBehavior::Serialize(SnapshotWriter& ar) { SerializeFields(ar); }
void LoopBehavior::Serialize(SnapshotReader& ar) { SerializeFields(ar); }

template <class Ar>
void LoopBehavior::SerializeFields(Ar& ar) {
  // Stats may be shared by several worker tasks; every sharer writes the same
  // values, so the repeated restores are idempotent.
  ar.U64(stats_->iterations);
  ar.I64(stats_->start_time);
  ar.I64(stats_->finish_time);
  ar.F64(stats_->psbox_energy);
  ar.I64(stats_->box);
  ar.Bool(stats_->evicted);
  ar.Seq(queue_, 32, [&](Action& a) { SerializeAction(ar, a); });
  ar.U64(iter_);
  ar.Bool(started_);
  ar.Bool(finished_);
  rng_.Serialize(ar);
  // stop_ is re-wired by the restoring coordinator, not serialised.
}

PsboxWrapBehavior::PsboxWrapBehavior(std::unique_ptr<Behavior> inner,
                                     std::vector<HwComponent> hw,
                                     std::shared_ptr<WorkloadStats> stats,
                                     int psbox_parent, Joules psbox_budget)
    : inner_(std::move(inner)), hw_(std::move(hw)), stats_(std::move(stats)),
      psbox_parent_(psbox_parent), psbox_budget_(psbox_budget) {
  PSBOX_CHECK(inner_ != nullptr);
  PSBOX_CHECK(!hw_.empty());
}

Action PsboxWrapBehavior::NextAction(TaskEnv& env) {
  if (box_ < 0) {
    box_ = psbox_parent_ >= 0
               ? psbox_create_in(env, hw_, psbox_parent_, psbox_budget_)
               : psbox_create(env, hw_);
    stats_->box = box_;
    psbox_enter(env, box_);
    psbox_reset(env, box_);
  }
  Action a = inner_->NextAction(env);
  if (a.kind == ActionKind::kExit && !finished_) {
    finished_ = true;
    stats_->psbox_energy = psbox_read(env, box_);
    psbox_leave(env, box_);
  }
  return a;
}

void PsboxWrapBehavior::Serialize(SnapshotWriter& ar) { SerializeFields(ar); }
void PsboxWrapBehavior::Serialize(SnapshotReader& ar) { SerializeFields(ar); }

template <class Ar>
void PsboxWrapBehavior::SerializeFields(Ar& ar) {
  ar.I64(box_);
  ar.Bool(finished_);
  ar.Expect(inner_->SnapshotMarker(),
            "wrapped behavior type mismatch between snapshot and scenario");
  inner_->Serialize(ar);
}

DurationNs Jitter(Rng& rng, DurationNs value, double frac) {
  if (frac <= 0.0) {
    return value;
  }
  const double scaled = static_cast<double>(value) * rng.Uniform(1.0 - frac, 1.0 + frac);
  return static_cast<DurationNs>(scaled);
}

}  // namespace psbox
