#include "src/base/step_trace.h"

#include <algorithm>
#include <limits>

#include "src/base/check.h"

namespace psbox {

namespace {

// The integral at |time| given |cum| at |prev|, which holds until |time|:
// the one expression Set and a restore both compute it with.
double CumulativeAfter(double cum, const StepTrace::Step& prev, TimeNs time) {
  return cum + prev.value * ToSeconds(time - prev.time);
}

}  // namespace

void StepTrace::Set(TimeNs time, double value) {
  if (!steps_.empty()) {
    PSBOX_CHECK_GE(time, steps_.back().time);
    if (steps_.back().time == time) {
      // The cumulative integral up to this instant is unaffected: the
      // overwritten value only applies from |time| onwards.
      steps_.back().value = value;
      return;
    }
    if (steps_.back().value == value) {
      return;  // No change; keep the trace compact.
    }
  }
  const double cum =
      steps_.empty() ? 0.0 : CumulativeAfter(cum_.back(), steps_.back(), time);
  steps_.push_back({time, value});
  cum_.push_back(cum);
}

void StepTrace::RebuildCumulative(double first) {
  cum_.assign(steps_.size(), first);
  for (size_t i = 1; i < steps_.size(); ++i) {
    cum_[i] = CumulativeAfter(cum_[i - 1], steps_[i - 1], steps_[i].time);
  }
  cursor_ = 0;
}

ptrdiff_t StepTrace::FindIndex(TimeNs time) const {
  if (steps_.empty()) {
    return -1;
  }
  const size_t n = steps_.size();
  // Gallop outward from the cursor to bracket |time|, then binary-search the
  // bracket. Monotone sweeps hit the first probe; far jumps pay O(log gap).
  size_t lo = 0;
  size_t hi = n;
  const size_t c = cursor_ < n ? cursor_ : n - 1;
  if (steps_[c].time <= time) {
    lo = c;
    size_t width = 1;
    while (lo + width < n && steps_[lo + width].time <= time) {
      lo += width;
      width <<= 1;
    }
    hi = std::min(n, lo + width);
  } else {
    hi = c;
    size_t width = 1;
    while (width < hi && steps_[hi - width].time > time) {
      hi -= width;
      width <<= 1;
    }
    lo = width < hi ? hi - width : 0;
    if (steps_[lo].time > time) {
      cursor_ = 0;
      return -1;  // before the first retained step
    }
  }
  // Last step in [lo, hi) with step.time <= time.
  auto it = std::upper_bound(
      steps_.begin() + static_cast<ptrdiff_t>(lo),
      steps_.begin() + static_cast<ptrdiff_t>(hi), time,
      [](TimeNs t, const Step& s) { return t < s.time; });
  const ptrdiff_t idx = (it - steps_.begin()) - 1;
  cursor_ = idx >= 0 ? static_cast<size_t>(idx) : 0;
  return idx;
}

double StepTrace::ValueAt(TimeNs time) const {
  const ptrdiff_t idx = FindIndex(time);
  if (idx < 0) {
    return 0.0;
  }
  return steps_[static_cast<size_t>(idx)].value;
}

double StepTrace::CumulativeAt(TimeNs t) const {
  const ptrdiff_t idx = FindIndex(t);
  if (idx < 0) {
    return 0.0;
  }
  const Step& s = steps_[static_cast<size_t>(idx)];
  return cum_[static_cast<size_t>(idx)] + s.value * ToSeconds(t - s.time);
}

double StepTrace::IntegralOver(TimeNs t0, TimeNs t1) const {
  PSBOX_CHECK_LE(t0, t1);
  if (steps_.empty() || t0 == t1) {
    return 0.0;
  }
  return CumulativeAt(t1) - CumulativeAt(t0);
}

double StepTrace::MeanOver(TimeNs t0, TimeNs t1) const {
  if (t1 <= t0) {
    return 0.0;
  }
  return IntegralOver(t0, t1) / ToSeconds(t1 - t0);
}

std::vector<double> StepTrace::Resample(TimeNs t0, TimeNs t1, DurationNs period) const {
  PSBOX_CHECK_GT(period, 0);
  std::vector<double> out;
  if (t1 <= t0) {
    return out;
  }
  out.reserve(static_cast<size_t>((t1 - t0 + period - 1) / period));
  // One seek for the first point, then a single forward walk: the sweep is
  // monotone by construction, so the inner loop is one comparison against
  // the current segment's end plus a store — not a full lookup per sample.
  Walker walker(*this, t0);
  for (TimeNs t = t0; t < t1; t += period) {
    out.push_back(walker.ValueAt(t));
  }
  if (walker.index() > 0) {
    cursor_ = static_cast<size_t>(walker.index());
  }
  return out;
}

StepTrace::Walker::Walker(const StepTrace& trace, TimeNs start)
    : steps_(&trace.steps_), idx_(trace.FindIndex(start)) {
  value_ = idx_ < 0 ? 0.0 : (*steps_)[static_cast<size_t>(idx_)].value;
  Refill();
}

void StepTrace::Walker::Refill() {
  next_ = idx_ + 1 < static_cast<ptrdiff_t>(steps_->size())
              ? (*steps_)[static_cast<size_t>(idx_ + 1)].time
              : std::numeric_limits<TimeNs>::max();
}

size_t StepTrace::TrimBefore(TimeNs horizon) {
  // Keep the step in effect at |horizon| so every lookup at t >= horizon
  // stays exact; everything before it is dropped. The retained cum_ entries
  // already include the dropped prefix's integral (they are absolute), which
  // is what preserves whole-history IntegralOver queries.
  const ptrdiff_t idx = FindIndex(horizon);
  if (idx <= 0) {
    return 0;
  }
  const size_t drop = static_cast<size_t>(idx);
  steps_.erase(steps_.begin(), steps_.begin() + static_cast<ptrdiff_t>(drop));
  cum_.erase(cum_.begin(), cum_.begin() + static_cast<ptrdiff_t>(drop));
  cursor_ = 0;
  trimmed_steps_ += drop;
  return drop;
}

}  // namespace psbox
