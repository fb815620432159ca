#include "src/psbox/power_sandbox.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

PowerSandbox::PowerSandbox(PsboxId id, AppId app, std::vector<HwComponent> hw,
                           TimeNs created, PsboxId parent, Joules budget)
    : id_(id), app_(app), hw_(std::move(hw)), meter_start_(created),
      sample_cursor_(created), parent_(parent), budget_(budget) {
  direct_from_.fill(created);
}

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
  direct_base_.fill(0.0);
  direct_from_.fill(now);
  // Spans now clamp to |now|, which the rail still holds.
  anchors_.clear();
}

bool PowerSandbox::Settled() const {
  for (const IntervalSet& owned : owned_) {
    if (owned.size() != 0) {
      return false;
    }
  }
  return anchors_.empty();
}

const PowerSandbox::Anchor* PowerSandbox::FindAnchor(HwComponent hw) const {
  for (const Anchor& a : anchors_) {
    if (a.hw == hw) {
      return &a;
    }
  }
  return nullptr;
}

Joules PowerSandbox::SpanEnergy(const PowerRail& rail, const Anchor* anchor,
                                TimeNs b, TimeNs e) {
  if (anchor != nullptr && b == anchor->at) {
    return rail.trace().CumulativeAt(e) - anchor->cum;
  }
  return rail.EnergyOver(b, e);
}

TimeNs PowerSandbox::StraddleStart(HwComponent hw, TimeNs t,
                                   TimeNs open_since) const {
  const size_t i = static_cast<size_t>(hw);
  for (const auto& iv : owned_[i].intervals()) {
    if (iv.end <= t) {
      continue;  // folded by a trim at |t|
    }
    // The first interval reaching past |t|; any open balloon starts after it.
    return iv.begin < t ? std::max(iv.begin, meter_start_) : t;
  }
  return open_since >= 0 && open_since < t ? std::max(open_since, meter_start_)
                                            : t;
}

void PowerSandbox::AccumulateSpan(const PowerRail& rail, const FaultInjector* faults,
                                  const Anchor* anchor, TimeNs b, TimeNs e,
                                  EnergyDetail* d) const {
  if (e <= b) {
    return;
  }
  // Subtract the dropout windows from the owned span: measured pieces
  // integrate the rail, dropped pieces only accumulate time for estimation.
  TimeNs cursor = b;
  if (faults != nullptr) {
    for (const FaultWindow& w : faults->meter_dropouts()) {
      if (w.end <= cursor) {
        continue;
      }
      if (w.begin >= e) {
        break;
      }
      const TimeNs db = std::max(cursor, w.begin);
      const TimeNs de = std::min(e, w.end);
      if (db > cursor) {
        d->measured += SpanEnergy(rail, anchor, cursor, db);
        d->measured_time += db - cursor;
      }
      d->estimated_time += de - db;
      cursor = de;
      if (cursor >= e) {
        break;
      }
    }
  }
  if (cursor < e) {
    d->measured += SpanEnergy(rail, anchor, cursor, e);
    d->measured_time += e - cursor;
  }
}

PowerSandbox::EnergyDetail PowerSandbox::ObservedEnergyDetail(
    const PowerRail& rail, HwComponent hw, TimeNs now,
    const FaultInjector* faults, TimeNs open_since) const {
  PSBOX_CHECK(BoundTo(hw));
  // The base carries the measured energy and measured/estimated durations of
  // trimmed intervals; the estimate itself is always derived below from the
  // aggregated totals, exactly as the untrimmed computation would.
  EnergyDetail d = detail_base_[static_cast<size_t>(hw)];
  const TimeNs t0 = meter_start_;
  if (now <= t0) {
    return d;
  }
  const Anchor* anchor = FindAnchor(hw);
  for (const auto& iv : owned_[static_cast<size_t>(hw)].intervals()) {
    AccumulateSpan(rail, faults, anchor, std::max(iv.begin, t0),
                   std::min(iv.end, now), &d);
  }
  if (open_since >= 0 && open_since < now) {
    AccumulateSpan(rail, faults, anchor, std::max(open_since, t0), now, &d);
  }
  if (d.estimated_time > 0) {
    // Model-based estimation for the unmeasurable spans: the average power
    // the DAQ did measure for this sandbox on this rail, falling back to the
    // rail's idle draw when the entire window was dark.
    const Watts est_power = d.measured_time > 0
                                ? d.measured / ToSeconds(d.measured_time)
                                : rail.idle_power();
    d.estimated = est_power * ToSeconds(d.estimated_time);
  }
  return d;
}

void PowerSandbox::AccumulateObservedSamples(const PowerRail& rail, HwComponent hw,
                                             Watts noise_stddev, Rng* rng,
                                             const FaultInjector* faults,
                                             TimeNs open_since,
                                             std::vector<PowerSample>* buf) const {
  PSBOX_CHECK(BoundTo(hw));
  if (buf->empty()) {
    return;
  }
  // Sample grids are monotone, so hoist the per-probe segment searches into
  // forward-walking cursors (the Resample pattern): one walker over the rail
  // trace, one over the closed ownership intervals, and an index over the
  // sorted dropout windows. Each grid point then costs a comparison per
  // structure instead of a galloping lookup.
  const size_t i = static_cast<size_t>(hw);
  StepTrace::Walker power(rail.trace(), buf->front().timestamp);
  IntervalSet::Walker owned(owned_[i], buf->front().timestamp);
  const std::vector<FaultWindow>* dropouts =
      faults != nullptr ? &faults->meter_dropouts() : nullptr;
  size_t drop_idx = 0;
  const Watts idle = rail.idle_power();
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
        s.watts += idle;
        s.estimated = true;
        continue;
      }
    }
    // Owned at |t|: inside the open span or a closed one.
    const bool in_span =
        (open_since >= 0 && t >= open_since) || owned.Contains(t);
    const Watts truth = in_span ? power.ValueAt(t) : idle;
    s.watts += std::max(
        0.0, truth + (rng != nullptr ? rng->Gaussian(0.0, noise_stddev) : 0.0));
  }
}

TimeNs PowerSandbox::RetainFloor(HwComponent hw, TimeNs desired,
                                 const FaultInjector* faults,
                                 TimeNs open_since) const {
  // The straddling span's start is anchored by TrimOwned, so only the edges
  // of a dropout window inside [start, desired) still need the rail: the
  // first such edge pins the floor. A dropout inside the span but past the
  // horizon splits it at instants the rail keeps anyway.
  const TimeNs start = StraddleStart(hw, desired, open_since);
  if (start >= desired || faults == nullptr) {
    return desired;
  }
  for (const FaultWindow& w : faults->meter_dropouts()) {
    if (w.end <= start) {
      continue;
    }
    return w.begin < desired ? std::max(w.begin, start) : desired;
  }
  return desired;
}

void PowerSandbox::TrimOwned(HwComponent hw, TimeNs horizon, const PowerRail& rail,
                             const FaultInjector* faults, TimeNs open_since) {
  const size_t i = static_cast<size_t>(hw);
  const Anchor* anchor = FindAnchor(hw);
  // Fold exactly the spans the untrimmed queries would integrate for the
  // intervals about to drop, in the same order — the running sums (and hence
  // every later psbox_read) stay bit-identical to the untrimmed run.
  bool anchor_folded = false;
  for (const auto& iv : owned_[i].intervals()) {
    if (iv.end > horizon) {
      break;
    }
    const TimeNs b = std::max(iv.begin, meter_start_);
    AccumulateSpan(rail, faults, anchor, b, iv.end, &detail_base_[i]);
    anchor_folded |= anchor != nullptr && b == anchor->at;
  }
  owned_[i].TrimBefore(horizon);
  if (anchor_folded) {
    anchors_.erase(anchors_.begin() + (anchor - anchors_.data()));
    anchor = nullptr;
  }
  // The span left straddling the horizon is integrated from its start by
  // every later query; record that start while the rail still holds it. A
  // span already anchored straddled an earlier horizon and is still the
  // first retained one, so it is this straddler; any other began after the
  // previous horizon, which the rail keeps.
  const TimeNs start = StraddleStart(hw, horizon, open_since);
  if (start < horizon && anchor == nullptr) {
    anchors_.push_back({hw, start, rail.trace().CumulativeAt(start)});
  }
}

void PowerSandbox::BankDirectEnergy(HwComponent hw, Joules energy, TimeNs new_from) {
  const size_t i = static_cast<size_t>(hw);
  direct_base_[i] += energy;
  direct_from_[i] = new_from;
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
    ar.F64(direct_base_[i]);
    ar.I64(direct_from_[i]);
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
