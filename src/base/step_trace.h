// Piecewise-constant time series.
//
// Hardware power in the simulator is piecewise constant: it only changes when
// some component changes state (a task is scheduled, a command starts, a
// frequency steps). A StepTrace records those steps as (time, value) pairs and
// supports exact value lookup, exact energy integration, and uniform
// resampling — the primitive behind both the in-situ power meter and the
// per-psbox virtual power meters.
//
// Hot-path design (every 100 kHz sample bottoms out here):
//   * a cumulative integral ("prefix sum") is maintained alongside the steps,
//     so IntegralOver/MeanOver are two lookups instead of a range scan;
//   * lookups start from a monotone read cursor and gallop outward, so the
//     forward-moving sweeps of the meters (ValueAt/Resample at a fixed rate,
//     energy windows that only advance) cost amortized O(1) per query and
//     degrade gracefully to O(log n) for arbitrary jumps;
//   * TrimBefore() drops steps behind a retention horizon while keeping the
//     trimmed prefix's integral inside the retained cumulative values, so
//     long-running simulations keep exact energy accounting in bounded
//     memory.

#ifndef SRC_BASE_STEP_TRACE_H_
#define SRC_BASE_STEP_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/time.h"

namespace psbox {

class StepTrace {
 public:
  struct Step {
    TimeNs time;
    double value;
  };

  // Appends a step at |time| with |value|. Times must be non-decreasing; a
  // step at the same time as the previous one overwrites it (the last write
  // within one simulated instant wins).
  void Set(TimeNs time, double value);

  // Value in effect at |time| (0.0 before the first retained step).
  double ValueAt(TimeNs time) const;

  // Exact integral of the trace over [t0, t1), in value·seconds (i.e. joules
  // when the trace is in watts). After TrimBefore(h), a |t0| before the first
  // retained step is answered as if it were the original trace origin — exact
  // for whole-history queries (t0 at or before the first step ever recorded)
  // and for any window starting at or after the retention horizon; windows
  // starting strictly inside the trimmed region are no longer resolvable.
  double IntegralOver(TimeNs t0, TimeNs t1) const;

  // Exact integral over (-inf, t] of the original (never-trimmed) trace;
  // 0.0 before the first retained step. IntegralOver(t0, t1) is
  // CumulativeAt(t1) - CumulativeAt(t0), so a caller that recorded
  // CumulativeAt(t0) while t0 was still retained can keep resolving windows
  // starting at t0 bit-identically after TrimBefore has dropped it.
  double CumulativeAt(TimeNs t) const;

  // Mean value over [t0, t1).
  double MeanOver(TimeNs t0, TimeNs t1) const;

  // Uniformly resamples the trace at |period| starting at |t0|, up to but not
  // including |t1|.
  std::vector<double> Resample(TimeNs t0, TimeNs t1, DurationNs period) const;

  // Forward-only segment cursor for monotone sweeps: construction seeks once
  // (galloping from the trace's shared read cursor), then each ValueAt costs
  // one comparison per visited segment instead of a full lookup per query.
  // Query times must be non-decreasing. The walker holds no ownership —
  // mutating the trace invalidates it.
  class Walker {
   public:
    Walker(const StepTrace& trace, TimeNs start);

    // Value in effect at |t| (0.0 before the first retained step); |t| must
    // be >= every earlier query.
    double ValueAt(TimeNs t) {
      while (t >= next_) {
        ++idx_;
        value_ = (*steps_)[static_cast<size_t>(idx_)].value;
        Refill();
      }
      return value_;
    }

    // Index of the segment in effect after the last query (-1 before the
    // first step); callers use it to re-seed the trace's shared cursor.
    ptrdiff_t index() const { return idx_; }

   private:
    void Refill();

    const std::vector<Step>* steps_;
    ptrdiff_t idx_;
    double value_;
    TimeNs next_;  // start of the segment after idx_
  };

  // Drops steps strictly older than the step in effect at |horizon| (that
  // boundary step is retained so ValueAt stays exact for every t >= horizon).
  // The dropped prefix's integral stays folded into the retained cumulative
  // values, so IntegralOver keeps the exact base offset — see IntegralOver()
  // for the resulting query semantics. Returns the number of steps dropped.
  size_t TrimBefore(TimeNs horizon);

  bool empty() const { return steps_.empty(); }
  size_t size() const { return steps_.size(); }
  const std::vector<Step>& steps() const { return steps_; }
  TimeNs first_time() const { return steps_.empty() ? 0 : steps_.front().time; }
  TimeNs last_time() const { return steps_.empty() ? 0 : steps_.back().time; }
  // Total steps dropped by TrimBefore over the trace's lifetime.
  uint64_t trimmed_steps() const { return trimmed_steps_; }

  void Clear() {
    steps_.clear();
    cum_.clear();
    cursor_ = 0;
    trimmed_steps_ = 0;
  }

  // Snapshot support: persists/overwrites the retained steps, the
  // cumulative integral at the first one (which carries the trimmed
  // prefix's energy) and the lifetime trim counter. The load derives the
  // rest of the integral from the steps exactly as Set did; the read cursor
  // restarts at zero.
  template <class Ar>
  void Serialize(Ar& ar) {
    ar.Seq(steps_, sizeof(TimeNs) + sizeof(double), [&](Step& s) {
      ar.I64(s.time);
      ar.F64(s.value);
    });
    double first = cum_.empty() ? 0.0 : cum_.front();
    if (!steps_.empty()) {
      ar.F64(first);
    }
    if constexpr (Ar::kLoading) {
      RebuildCumulative(first);
    }
    ar.U64(trimmed_steps_);
  }

 private:
  // Index of the last step with time <= |time|, or -1. Starts at the read
  // cursor and gallops, then remembers the hit — amortized O(1) for monotone
  // query sweeps, O(log n) worst case.
  ptrdiff_t FindIndex(TimeNs time) const;

  // Refills cum_ from |first| at the first step on, as Set built it.
  void RebuildCumulative(double first);

  std::vector<Step> steps_;
  // cum_[i] = integral of the original trace over (-inf, steps_[i].time).
  // Maintained incrementally by Set; TrimBefore only drops array prefixes, so
  // retained entries keep the trimmed prefix's energy as a base offset.
  std::vector<double> cum_;
  mutable size_t cursor_ = 0;
  uint64_t trimmed_steps_ = 0;
};

}  // namespace psbox

#endif  // SRC_BASE_STEP_TRACE_H_
