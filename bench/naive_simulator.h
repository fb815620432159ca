// The original event engine, from before the slab-based rewrite, preserved
// verbatim (renamed) as a differential baseline: bench/micro_engine.cpp
// measures the Simulator against it, and tests/sim_test.cpp replays
// randomized event storms through both and requires identical firing
// sequences. Binary heap ordered by
// (time, insertion-seq) with per-event std::function closures in a hash map;
// Cancel leaves a tombstone in the heap and compaction sweeps tombstones once
// they outnumber live entries.
//
// Not part of the production engine — do not include from src/.

#ifndef BENCH_NAIVE_SIMULATOR_H_
#define BENCH_NAIVE_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"
#include "src/sim/simulator.h"  // EventId / kInvalidEventId

namespace psbox {

class NaiveSimulator {
 public:
  NaiveSimulator() = default;
  NaiveSimulator(const NaiveSimulator&) = delete;
  NaiveSimulator& operator=(const NaiveSimulator&) = delete;

  TimeNs Now() const { return now_; }

  EventId ScheduleAt(TimeNs when, std::function<void()> fn) {
    PSBOX_CHECK_GE(when, now_);
    const EventId id = ++next_id_;
    queue_.push_back(Event{when, next_seq_++, id});
    std::push_heap(queue_.begin(), queue_.end(), EventLater{});
    closures_.emplace(id, std::move(fn));
    return id;
  }

  EventId ScheduleAfter(DurationNs delay, std::function<void()> fn) {
    PSBOX_CHECK_GE(delay, 0);
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  bool Cancel(EventId id) {
    if (id == kInvalidEventId) {
      return false;
    }
    if (closures_.erase(id) == 0) {
      return false;
    }
    ++tombstones_;
    MaybeCompact();
    return true;
  }

  size_t RunUntil(TimeNs deadline) {
    size_t fired = 0;
    Event ev;
    std::function<void()> fn;
    while (PopNext(deadline, &ev, &fn)) {
      PSBOX_CHECK_GE(ev.when, now_);
      now_ = ev.when;
      ++total_fired_;
      ++fired;
      fn();
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
    return fired;
  }

  size_t RunToCompletion() {
    size_t fired = 0;
    Event ev;
    std::function<void()> fn;
    while (PopNext(/*deadline=*/-1, &ev, &fn)) {
      now_ = ev.when;
      ++total_fired_;
      ++fired;
      fn();
    }
    return fired;
  }

  bool IsPending(EventId id) const { return closures_.count(id) > 0; }
  size_t pending_events() const { return closures_.size(); }
  uint64_t total_fired() const { return total_fired_; }

 private:
  struct Event {
    TimeNs when;
    uint64_t seq;
    EventId id;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  bool PopNext(TimeNs deadline, Event* out, std::function<void()>* fn) {
    while (!queue_.empty()) {
      const Event& top = queue_.front();
      auto it = closures_.find(top.id);
      if (it == closures_.end()) {
        std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
        queue_.pop_back();
        PSBOX_CHECK_GT(tombstones_, 0u);
        --tombstones_;
        continue;
      }
      if (deadline >= 0 && top.when > deadline) {
        return false;
      }
      *out = top;
      *fn = std::move(it->second);
      closures_.erase(it);
      std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
      queue_.pop_back();
      return true;
    }
    return false;
  }

  void MaybeCompact() {
    if (tombstones_ <= queue_.size() / 2) {
      return;
    }
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [this](const Event& e) {
                                  return closures_.count(e.id) == 0;
                                }),
                 queue_.end());
    std::make_heap(queue_.begin(), queue_.end(), EventLater{});
    tombstones_ = 0;
  }

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  uint64_t total_fired_ = 0;
  uint64_t tombstones_ = 0;
  std::vector<Event> queue_;
  std::unordered_map<EventId, std::function<void()>> closures_;
};

}  // namespace psbox

#endif  // BENCH_NAIVE_SIMULATOR_H_
