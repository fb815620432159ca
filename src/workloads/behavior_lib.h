// Behaviour building blocks for workload models.
//
// Each Table-5 benchmark app is a LoopBehavior: a step function that emits
// the actions of one iteration (a frame, a matrix multiply, a page load...),
// with optional jitter, iteration caps and deadline. PsboxWrapBehavior turns
// any behaviour into a power-aware app that runs its whole workload inside a
// psbox and records the observed energy — the measurement harness of the
// Fig 6 consistency experiment.

#ifndef SRC_WORKLOADS_BEHAVIOR_LIB_H_
#define SRC_WORKLOADS_BEHAVIOR_LIB_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/kernel/task.h"

namespace psbox {

struct WorkloadStats {
  // Completed iterations (the throughput unit of Fig 8).
  uint64_t iterations = 0;
  TimeNs start_time = -1;
  TimeNs finish_time = -1;
  // Energy observed through the app's own psbox (PsboxWrapBehavior).
  Joules psbox_energy = -1.0;
  int box = -1;
  // True when the loop ended because its eviction flag was raised rather
  // than by iteration/deadline exhaustion (fleet migration drains).
  bool evicted = false;
};

class LoopBehavior : public Behavior {
 public:
  // |step| emits the actions of iteration |iter| (0-based). The loop ends
  // after |max_iterations| (> 0), at |deadline| (> 0, checked at iteration
  // boundaries), or when |step| returns an empty vector.
  using StepFn = std::function<std::vector<Action>(TaskEnv&, uint64_t iter, Rng&)>;

  // |stop|, when non-null, is a cooperative eviction flag: the loop checks it
  // at every iteration boundary and exits cleanly (marking stats->evicted)
  // once it reads true — the graceful-drain half of fleet migration.
  LoopBehavior(std::shared_ptr<WorkloadStats> stats, StepFn step,
               uint64_t max_iterations, TimeNs deadline, Rng rng,
               std::shared_ptr<const bool> stop = nullptr);

  Action NextAction(TaskEnv& env) override;

  const WorkloadStats& stats() const { return *stats_; }

  uint8_t SnapshotMarker() const override { return 1; }
  void Serialize(SnapshotWriter& ar) override;
  void Serialize(SnapshotReader& ar) override;

 private:
  template <class Ar>
  void SerializeFields(Ar& ar);

  std::shared_ptr<WorkloadStats> stats_;
  StepFn step_;
  uint64_t max_iterations_;
  TimeNs deadline_;
  Rng rng_;
  std::shared_ptr<const bool> stop_;
  std::deque<Action> queue_;
  uint64_t iter_ = 0;
  bool started_ = false;
  bool finished_ = false;
};

// Runs |inner| entirely inside a psbox bound to |hw|; on exit records the
// observed energy into |stats|. When |psbox_parent| >= 0 the box is created
// nested inside that tenant box with |psbox_budget| joules claimed from its
// slice. Parent/budget are construction parameters (like |hw|), re-supplied
// by the spawn path on restore rather than serialized.
class PsboxWrapBehavior : public Behavior {
 public:
  PsboxWrapBehavior(std::unique_ptr<Behavior> inner, std::vector<HwComponent> hw,
                    std::shared_ptr<WorkloadStats> stats, int psbox_parent = -1,
                    Joules psbox_budget = 0.0);

  Action NextAction(TaskEnv& env) override;

  uint8_t SnapshotMarker() const override { return 2; }
  void Serialize(SnapshotWriter& ar) override;
  void Serialize(SnapshotReader& ar) override;

 private:
  template <class Ar>
  void SerializeFields(Ar& ar);

  std::unique_ptr<Behavior> inner_;
  std::vector<HwComponent> hw_;
  std::shared_ptr<WorkloadStats> stats_;
  int psbox_parent_ = -1;
  Joules psbox_budget_ = 0.0;
  int box_ = -1;
  bool finished_ = false;
};

// Uniform jitter helper: |value| +/- |frac| (e.g. 0.1 for +-10%).
DurationNs Jitter(Rng& rng, DurationNs value, double frac);

}  // namespace psbox

#endif  // SRC_WORKLOADS_BEHAVIOR_LIB_H_
