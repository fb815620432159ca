#include "src/psbox/power_sandbox.h"

#include <algorithm>
#include <limits>

#include "src/base/check.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

PowerSandbox::PowerSandbox(PsboxId id, AppId app, std::vector<HwComponent> hw,
                           TimeNs created, PsboxId parent, Joules budget)
    : id_(id), app_(app), hw_(std::move(hw)), meter_start_(created),
      sample_cursor_(created), parent_(parent), budget_(budget) {}

bool PowerSandbox::BoundTo(HwComponent hw) const {
  return std::find(hw_.begin(), hw_.end(), hw) != hw_.end();
}

Joules PowerSandbox::ClaimChildBudget(Joules requested) {
  Joules granted = requested;
  if (budget_ > 0.0) {
    granted = std::min(requested, std::max(0.0, budget_ - children_budget_));
  }
  children_budget_ += granted;
  return granted;
}

void PowerSandbox::ReleaseChildBudget(Joules granted) {
  children_budget_ -= granted;
  if (children_budget_ < 0.0) {
    children_budget_ = 0.0;  // float drift guard; the ledger is claim/release balanced
  }
}

void PowerSandbox::ResetMeter(TimeNs now) {
  meter_start_ = now;
  // Everything banked from trimmed history predates the new meter epoch; the
  // untrimmed computation would clamp those spans away, so the bases restart
  // at zero with it.
  detail_base_.fill(EnergyDetail{});
  // Spans now clamp to |now|, which the rail still holds.
  anchors_.clear();
}

const PowerSandbox::Anchor* PowerSandbox::FindAnchor(HwComponent hw) const {
  for (const Anchor& a : anchors_) {
    if (a.hw == hw) {
      return &a;
    }
  }
  return nullptr;
}

TimeNs PowerSandbox::ReadStart(const Anchor* anchor, TimeNs begin) const {
  // Every span but the anchored straddler begins after the anchor.
  const TimeNs b = std::max(begin, meter_start_);
  return anchor != nullptr && b <= anchor->at ? anchor->at : b;
}

TimeNs PowerSandbox::AccumulateSpan(const MeterSource& src, const Anchor* anchor,
                                    TimeNs b, TimeNs e, TimeNs limit,
                                    EnergyDetail* d) {
  if (e <= b) {
    return e;
  }
  // A measured piece integrates the trace, from the anchor's cumulative
  // integral when it begins there.
  const auto measure = [&](TimeNs from, TimeNs to) {
    d->measured += anchor != nullptr && from == anchor->at
                       ? src.trace->CumulativeAt(to) - anchor->cum
                       : src.trace->IntegralOver(from, to);
    d->measured_time += to - from;
  };
  // Subtract the dropout windows from the owned span: measured pieces
  // integrate the trace, dropped pieces only accumulate time for estimation.
  TimeNs cursor = b;
  if (src.faults != nullptr) {
    for (const FaultWindow& w : src.faults->meter_dropouts()) {
      if (w.end <= cursor) {
        continue;
      }
      if (w.begin >= e) {
        break;
      }
      const TimeNs db = std::max(cursor, w.begin);
      const TimeNs de = std::min(e, w.end);
      if (db > cursor) {
        if (db > limit) {
          return cursor;
        }
        measure(cursor, db);
      }
      if (de > limit) {
        return db;
      }
      d->estimated_time += de - db;
      cursor = de;
      if (cursor >= e) {
        return e;
      }
    }
  }
  if (e > limit) {
    return cursor;
  }
  measure(cursor, e);
  return e;
}

PowerSandbox::EnergyDetail PowerSandbox::ObservedEnergyDetail(
    HwComponent hw, const MeterSource& src, TimeNs now) const {
  PSBOX_CHECK(BoundTo(hw));
  // The base carries the measured energy and measured/estimated durations of
  // folded pieces; the estimate itself is always derived below from the
  // aggregated totals, exactly as the untrimmed computation would.
  EnergyDetail d = detail_base_[static_cast<size_t>(hw)];
  if (now <= meter_start_) {
    return d;
  }
  const Anchor* anchor = FindAnchor(hw);
  for (const auto& iv : owned_[static_cast<size_t>(hw)].intervals()) {
    const TimeNs e = std::min(iv.end, now);
    AccumulateSpan(src, anchor, ReadStart(anchor, iv.begin), e, e, &d);
  }
  if (src.open_since >= 0 && src.open_since < now) {
    AccumulateSpan(src, anchor, ReadStart(anchor, src.open_since), now, now,
                   &d);
  }
  if (d.estimated_time > 0) {
    // Model-based estimation for the unmeasurable spans: the average power
    // the DAQ did measure for this sandbox on this rail, falling back to the
    // idle draw when the entire window was dark.
    const Watts est_power = d.measured_time > 0
                                ? d.measured / ToSeconds(d.measured_time)
                                : src.idle;
    d.estimated = est_power * ToSeconds(d.estimated_time);
  }
  return d;
}

void PowerSandbox::AccumulateObservedSamples(HwComponent hw,
                                             const MeterSource& src,
                                             Watts noise_stddev, Rng* rng,
                                             std::vector<PowerSample>* buf) const {
  PSBOX_CHECK(BoundTo(hw));
  if (buf->empty()) {
    return;
  }
  // Sample grids are monotone, so hoist the per-probe segment searches into
  // forward-walking cursors (the Resample pattern): one walker over the
  // trace, one over the closed ownership intervals, and an index over the
  // sorted dropout windows. Each grid point then costs a comparison per
  // structure instead of a galloping lookup.
  const size_t i = static_cast<size_t>(hw);
  StepTrace::Walker power(*src.trace, buf->front().timestamp);
  IntervalSet::Walker owned(owned_[i], buf->front().timestamp);
  const std::vector<FaultWindow>* dropouts =
      src.faults != nullptr ? &src.faults->meter_dropouts() : nullptr;
  size_t drop_idx = 0;
  for (PowerSample& s : *buf) {
    const TimeNs t = s.timestamp;
    if (dropouts != nullptr) {
      while (drop_idx < dropouts->size() && t >= (*dropouts)[drop_idx].end) {
        ++drop_idx;
      }
      if (drop_idx < dropouts->size() && t >= (*dropouts)[drop_idx].begin) {
        // No measurement exists here; substitute the model estimate (exact
        // for unowned instants, the degraded fallback inside a balloon). No
        // noise and no Gaussian draw: synthesised values are not
        // measurements.
        s.watts += src.idle;
        s.estimated = true;
        continue;
      }
    }
    // Owned at |t|: inside the open span or a closed one.
    const bool in_span =
        (src.open_since >= 0 && t >= src.open_since) || owned.Contains(t);
    const Watts truth = in_span ? power.ValueAt(t) : src.idle;
    s.watts += std::max(
        0.0, truth + (rng != nullptr ? rng->Gaussian(0.0, noise_stddev) : 0.0));
  }
}

void PowerSandbox::TrimOwned(HwComponent hw, const MeterSource& src,
                             TimeNs horizon) {
  const size_t i = static_cast<size_t>(hw);
  const Anchor* anchor = FindAnchor(hw);
  // Fold exactly the pieces the untrimmed queries would integrate, in the
  // same order: the spans ending by the horizon whole, then the leading
  // pieces of the one straddling it — so the running sums (and hence every
  // later psbox_read) stay bit-identical to the untrimmed run.
  bool straddles = false;
  TimeNs rest = horizon;
  for (const auto& iv : owned_[i].intervals()) {
    const TimeNs b = ReadStart(anchor, iv.begin);
    if (b >= horizon) {
      break;
    }
    rest = AccumulateSpan(src, anchor, b, iv.end, horizon, &detail_base_[i]);
    straddles = iv.end > horizon;
  }
  if (src.open_since >= 0 && ReadStart(anchor, src.open_since) < horizon) {
    rest = AccumulateSpan(src, anchor, ReadStart(anchor, src.open_since),
                          std::numeric_limits<TimeNs>::max(), horizon,
                          &detail_base_[i]);
    straddles = true;
  }
  owned_[i].TrimBefore(horizon);
  // Every later query reads the straddler from |rest|; record the trace's
  // cumulative integral there while the trace still holds it. An anchor
  // that moved lands on a piece edge past the previous horizon, which the
  // trace keeps.
  if (!straddles) {
    if (anchor != nullptr) {
      anchors_.erase(anchors_.begin() + (anchor - anchors_.data()));
    }
  } else if (anchor == nullptr) {
    anchors_.push_back({hw, rest, src.trace->CumulativeAt(rest)});
  } else if (anchor->at != rest) {
    anchors_[static_cast<size_t>(anchor - anchors_.data())] = {
        hw, rest, src.trace->CumulativeAt(rest)};
  }
}

template <class Ar>
void PowerSandbox::Serialize(Ar& ar) {
  const char* identity =
      "sandbox identity mismatch between snapshot and replayed creation";
  const char* binding =
      "sandbox hardware binding mismatch between snapshot and replayed "
      "creation";
  ar.Expect(static_cast<uint64_t>(id_), identity);
  ar.Expect(app_, identity);
  ar.Fixed(hw_, 1, binding, [&](HwComponent& hw) { ar.Expect(hw, binding); });
  ar.Bool(inside_);
  ar.I64(meter_start_);
  ar.I64(sample_cursor_);
  for (size_t i = 0; i < kNumHwComponents; ++i) {
    owned_[i].Serialize(ar);
    ar.F64(detail_base_[i].measured);
    ar.I64(detail_base_[i].measured_time);
    ar.I64(detail_base_[i].estimated_time);
  }
  ar.U64(samples_lost_);
  ar.F64(transferred_base_);
  // v3: hierarchy state. parent_/budget_ double as an identity check against
  // the replayed creation; the rest is mutable ledger state.
  ar.Expect(parent_,
            "sandbox parent mismatch between snapshot and replayed creation");
  ar.F64(budget_);
  ar.F64(children_budget_);
  ar.Bool(budget_claimed_);
  // v4: anchors, sparse — one byte on a box with no straddling span.
  auto num_anchors = static_cast<uint8_t>(anchors_.size());
  ar.U8(num_anchors);
  if constexpr (Ar::kLoading) {
    anchors_.assign(num_anchors, Anchor{});
  }
  for (Anchor& a : anchors_) {
    ar.Enum(a.hw, HwComponent::kStorage, "sandbox anchor component");
    ar.I64(a.at);
    ar.F64(a.cum);
  }
  if constexpr (Ar::kLoading) {
    for (const Anchor& a : anchors_) {
      if (ar.ok() && (!BoundTo(a.hw) || FindAnchor(a.hw) != &a)) {
        ar.Fail("sandbox anchor on an unbound or already anchored component");
      }
    }
  }
  // v5: the retired children's closed energy.
  ar.F64(closed_children_energy_);
}

template void PowerSandbox::Serialize(SnapshotWriter&);
template void PowerSandbox::Serialize(SnapshotReader&);

uint64_t PowerSandbox::DropSampleBacklogBefore(TimeNs horizon, DurationNs period) {
  PSBOX_CHECK_GT(period, 0);
  if (sample_cursor_ >= horizon) {
    return 0;
  }
  const auto k = static_cast<uint64_t>(
      (horizon - sample_cursor_ + period - 1) / period);
  sample_cursor_ += static_cast<DurationNs>(k) * period;
  samples_lost_ += k;
  return k;
}

}  // namespace psbox
