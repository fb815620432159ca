// Sorted set of disjoint half-open time intervals.
//
// Used for resource-balloon ownership windows (which instants of the hardware
// belong to a psbox) and for the baseline accounting usage ledgers.
//
// Contains() keeps a monotone read cursor: the virtual power meters probe
// ownership at 100 kHz in time order, so lookups gallop from the last hit and
// cost amortized O(1) per probe (O(log n) for arbitrary jumps). TrimBefore()
// drops intervals behind a retention horizon so ownership history does not
// grow without bound on long runs (callers fold the dropped intervals'
// energy into a base offset first — see PowerSandbox).

#ifndef SRC_BASE_INTERVAL_SET_H_
#define SRC_BASE_INTERVAL_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/time.h"

namespace psbox {

class IntervalSet {
 public:
  struct Interval {
    TimeNs begin;
    TimeNs end;  // exclusive
  };

  // Adds [begin, end); merges with adjacent/overlapping intervals. Intervals
  // are typically appended in time order (amortised O(1)); out-of-order adds
  // are supported but O(n).
  void Add(TimeNs begin, TimeNs end);

  bool Contains(TimeNs t) const;

  // Forward-only membership cursor for monotone probe sweeps: construction
  // seeks once (galloping from the set's shared read cursor), then each
  // Contains costs one comparison per visited interval. Probe times must be
  // non-decreasing; mutating the set invalidates the walker.
  class Walker {
   public:
    Walker(const IntervalSet& set, TimeNs start);

    // Whether |t| lies in a covered interval; |t| must be >= every earlier
    // probe.
    bool Contains(TimeNs t) {
      const size_t n = intervals_->size();
      while (idx_ < n && (*intervals_)[idx_].end <= t) {
        ++idx_;
      }
      return idx_ < n && (*intervals_)[idx_].begin <= t;
    }

   private:
    const std::vector<Interval>* intervals_;
    size_t idx_;  // first interval with end > last probe
  };

  // Total covered duration within [t0, t1).
  DurationNs CoveredWithin(TimeNs t0, TimeNs t1) const;

  // Total covered duration.
  DurationNs TotalCovered() const;

  // Drops every interval that ends at or before |horizon| (intervals
  // straddling the horizon are kept whole). Returns the number dropped.
  size_t TrimBefore(TimeNs horizon);

  const std::vector<Interval>& intervals() const { return intervals_; }
  bool empty() const { return intervals_.empty(); }
  size_t size() const { return intervals_.size(); }
  // Intervals dropped by TrimBefore over the set's lifetime.
  uint64_t trimmed_intervals() const { return trimmed_intervals_; }
  void Clear() {
    intervals_.clear();
    cursor_ = 0;
    trimmed_intervals_ = 0;
  }

  // Snapshot support: persists/overwrites the retained intervals and the
  // lifetime trim counter. The read cursor restarts at zero.
  template <class Ar>
  void Serialize(Ar& ar) {
    ar.Seq(intervals_, 2 * sizeof(TimeNs), [&](Interval& iv) {
      ar.I64(iv.begin);
      ar.I64(iv.end);
    });
    if constexpr (Ar::kLoading) {
      cursor_ = 0;
    }
    ar.U64(trimmed_intervals_);
  }

 private:
  // Index of the last interval with begin <= |t|, or -1; gallops from the
  // read cursor and remembers the hit.
  ptrdiff_t FindIndex(TimeNs t) const;

  std::vector<Interval> intervals_;
  mutable size_t cursor_ = 0;
  uint64_t trimmed_intervals_ = 0;
};

}  // namespace psbox

#endif  // SRC_BASE_INTERVAL_SET_H_
