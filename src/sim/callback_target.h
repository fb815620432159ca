// CallbackTarget: the event target for ad-hoc callbacks.
//
// Simulator records name a target, a kind and two arguments; the models
// write every event that way. Tests, benches and scenario drivers that poke
// a board from outside at chosen instants ("dispatch this command at 4 ms")
// schedule closures through this one target instead. Its records carry an
// index into its own callback table, which a snapshot cannot hold, so it
// registers as not checkpointable: SaveBoardShard refuses a shard while one
// of its callbacks is pending.

#ifndef SRC_SIM_CALLBACK_TARGET_H_
#define SRC_SIM_CALLBACK_TARGET_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace psbox {

class CallbackTarget final : public EventTarget {
 public:
  explicit CallbackTarget(Simulator* sim)
      : sim_(sim),
        target_(sim->AddTarget(this, {"callback", 1, 0, false})) {}

  // Runs |fn| at absolute time |when| (>= Now()); the id cancels or moves
  // it like any other event.
  EventId At(TimeNs when, std::function<void()> fn) {
    return sim_->ScheduleAt(when, target_, 0, Store(std::move(fn)));
  }
  EventId After(DurationNs delay, std::function<void()> fn) {
    PSBOX_CHECK_GE(delay, 0);
    return At(sim_->Now() + delay, std::move(fn));
  }

  void OnEvent(uint8_t /*kind*/, uint64_t entry, uint64_t /*b*/) override {
    // Moved out first: the callback may schedule more, which can grow and
    // reuse the table.
    std::function<void()> fn = std::move(entries_[entry]);
    Free(entry);
    fn();
  }

 private:
  // A table entry for |fn|. The entries of cancelled events are reclaimed
  // by a sweep each time the table doubles, so it stays within twice the
  // pending high-water mark.
  uint64_t Store(std::function<void()> fn) {
    if (free_.empty() && entries_.size() >= sweep_at_) {
      for (uint64_t e = 0; e < entries_.size(); ++e) {
        if (entries_[e] &&
            sim_->FindPending(target_, 0, e) == kInvalidEventId) {
          Free(e);
        }
      }
      sweep_at_ = 2 * entries_.size();
    }
    if (free_.empty()) {
      free_.push_back(entries_.size());
      entries_.emplace_back();
    }
    const uint64_t entry = free_.back();
    free_.pop_back();
    entries_[entry] = std::move(fn);
    return entry;
  }
  void Free(uint64_t entry) {
    entries_[entry] = nullptr;
    free_.push_back(entry);
  }

  Simulator* sim_;
  TargetId target_;
  std::vector<std::function<void()>> entries_;
  std::vector<uint64_t> free_;
  size_t sweep_at_ = 16;
};

}  // namespace psbox

#endif  // SRC_SIM_CALLBACK_TARGET_H_
