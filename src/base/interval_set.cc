#include "src/base/interval_set.h"

#include <algorithm>

#include "src/base/check.h"

namespace psbox {

void IntervalSet::Add(TimeNs begin, TimeNs end) {
  PSBOX_CHECK_LE(begin, end);
  if (begin == end) {
    return;
  }
  // Fast path: appended in order, not touching the previous interval.
  if (intervals_.empty() || begin > intervals_.back().end) {
    intervals_.push_back({begin, end});
    return;
  }
  // Fast path: extends the last interval.
  if (begin >= intervals_.back().begin) {
    intervals_.back().end = std::max(intervals_.back().end, end);
    return;
  }
  // General (rare) path: insert and merge. Indexes shift, so the read cursor
  // is reset.
  auto it = std::lower_bound(
      intervals_.begin(), intervals_.end(), begin,
      [](const Interval& iv, TimeNs t) { return iv.end < t; });
  Interval merged{begin, end};
  auto first = it;
  while (it != intervals_.end() && it->begin <= merged.end) {
    merged.begin = std::min(merged.begin, it->begin);
    merged.end = std::max(merged.end, it->end);
    ++it;
  }
  it = intervals_.erase(first, it);
  intervals_.insert(it, merged);
  cursor_ = 0;
}

ptrdiff_t IntervalSet::FindIndex(TimeNs t) const {
  if (intervals_.empty()) {
    return -1;
  }
  const size_t n = intervals_.size();
  size_t lo = 0;
  size_t hi = n;
  const size_t c = cursor_ < n ? cursor_ : n - 1;
  if (intervals_[c].begin <= t) {
    lo = c;
    size_t width = 1;
    while (lo + width < n && intervals_[lo + width].begin <= t) {
      lo += width;
      width <<= 1;
    }
    hi = std::min(n, lo + width);
  } else {
    hi = c;
    size_t width = 1;
    while (width < hi && intervals_[hi - width].begin > t) {
      hi -= width;
      width <<= 1;
    }
    lo = width < hi ? hi - width : 0;
    if (intervals_[lo].begin > t) {
      cursor_ = 0;
      return -1;
    }
  }
  auto it = std::upper_bound(
      intervals_.begin() + static_cast<ptrdiff_t>(lo),
      intervals_.begin() + static_cast<ptrdiff_t>(hi), t,
      [](TimeNs time, const Interval& iv) { return time < iv.begin; });
  const ptrdiff_t idx = (it - intervals_.begin()) - 1;
  cursor_ = idx >= 0 ? static_cast<size_t>(idx) : 0;
  return idx;
}

bool IntervalSet::Contains(TimeNs t) const {
  const ptrdiff_t idx = FindIndex(t);
  if (idx < 0) {
    return false;
  }
  const Interval& iv = intervals_[static_cast<size_t>(idx)];
  return t >= iv.begin && t < iv.end;
}

DurationNs IntervalSet::CoveredWithin(TimeNs t0, TimeNs t1) const {
  if (t1 <= t0) {
    return 0;
  }
  DurationNs covered = 0;
  for (const Interval& iv : intervals_) {
    if (iv.end <= t0) {
      continue;
    }
    if (iv.begin >= t1) {
      break;
    }
    covered += std::min(iv.end, t1) - std::max(iv.begin, t0);
  }
  return covered;
}

DurationNs IntervalSet::TotalCovered() const {
  DurationNs covered = 0;
  for (const Interval& iv : intervals_) {
    covered += iv.end - iv.begin;
  }
  return covered;
}

size_t IntervalSet::TrimBefore(TimeNs horizon) {
  size_t drop = 0;
  while (drop < intervals_.size() && intervals_[drop].end <= horizon) {
    ++drop;
  }
  if (drop == 0) {
    return 0;
  }
  intervals_.erase(intervals_.begin(), intervals_.begin() + static_cast<ptrdiff_t>(drop));
  cursor_ = 0;
  trimmed_intervals_ += drop;
  return drop;
}

IntervalSet::Walker::Walker(const IntervalSet& set, TimeNs start)
    : intervals_(&set.intervals_) {
  // First interval that could still cover a probe at or after |start|.
  const ptrdiff_t fi = set.FindIndex(start);
  if (fi < 0) {
    idx_ = 0;
  } else if ((*intervals_)[static_cast<size_t>(fi)].end > start) {
    idx_ = static_cast<size_t>(fi);
  } else {
    idx_ = static_cast<size_t>(fi) + 1;
  }
}

}  // namespace psbox
