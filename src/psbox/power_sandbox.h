// PowerSandbox: one psbox instance and its virtual power meter.
//
// A psbox encloses one app and is bound to a set of hardware components
// (§3). The virtual power meter reads, on each bound component, one power
// trace over what the box owns (PsboxManager picks the MeterSource):
//   * a balloon-metered component — the board's rail inside the ownership
//     spans the kernel granted the box (the app plus its vertical
//     environment; power states already virtualised by the kernel), and the
//     rail's idle power outside them (the only possible contribution of
//     concurrent apps, §3; also what off/suspended periods are reported as,
//     closing that side channel, §4.1). A span is recorded here once its
//     balloon ends; a balloon still open is recorded only by its domain;
//   * an entanglement-free component (§7) — the domain's trace of the app's
//     own power, owned from time 0.
//
// Retention: on long runs the ownership history and the traces behind it
// are trimmed to a bounded horizon (Kernel::TrimTelemetry). A read is a left
// fold over pieces — the owned spans in order, each split at the
// meter-dropout windows into measured and estimated pieces — so a trim folds
// every piece that ends by the horizon into per-component bases, in the same
// order, and psbox_read stays bit-identical to the untrimmed computation
// while memory stays bounded. The one span per component that straddles the
// horizon (a long balloon, possibly still open) keeps its unfolded rest:
// where the rest begins and the trace's cumulative integral there are
// anchored before the trace drops them, so nothing holds the horizon back.

#ifndef SRC_PSBOX_POWER_SANDBOX_H_
#define SRC_PSBOX_POWER_SANDBOX_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/base/interval_set.h"
#include "src/base/rng.h"
#include "src/base/types.h"
#include "src/hw/power_meter.h"
#include "src/hw/power_rail.h"
#include "src/sim/fault_injector.h"

namespace psbox {

// The |open_since| of a box with no ownership span open on a component.
inline constexpr TimeNs kNoOpenSpan = -1;

// What a box's virtual meter reads on one component: |trace| while the box
// owns it (inside its closed spans and the one open since |open_since|),
// |idle| outside them, darkened by |faults|' meter-dropout windows.
struct MeterSource {
  const StepTrace* trace = nullptr;
  Watts idle = 0.0;
  TimeNs open_since = kNoOpenSpan;
  const FaultInjector* faults = nullptr;
  // Whether the component's ownership spans compose onto the tenants'
  // meters: true for balloon-metered rails, false for a trace of the app's
  // own power.
  bool composes = true;

  // The rail |rail| inside the balloon spans.
  static MeterSource OfRail(const PowerRail& rail, TimeNs open_since,
                            const FaultInjector* faults) {
    return {&rail.trace(), rail.idle_power(), open_since, faults, true};
  }
};

class PowerSandbox {
 public:
  PowerSandbox(PsboxId id, AppId app, std::vector<HwComponent> hw, TimeNs created,
               PsboxId parent = -1, Joules budget = 0.0);

  PsboxId id() const { return id_; }
  AppId app() const { return app_; }
  const std::vector<HwComponent>& hardware() const { return hw_; }
  bool BoundTo(HwComponent hw) const;

  bool inside() const { return inside_; }
  void set_inside(bool inside) { inside_ = inside; }

  // --- hierarchy (nested / tenant sandboxes) ------------------------------
  // A box created with a parent is nested: its hardware binding is a subset
  // of the parent's, its budget subdivides the parent's, and every balloon
  // it is granted is composed onto all its ancestors' virtual meters (the
  // child's served energy bills its own window AND the enclosing tenant's).
  PsboxId parent() const { return parent_; }
  // Energy budget carved out of the parent at creation (0 = unbudgeted).
  Joules budget() const { return budget_; }
  // Re-claiming after a leave may clamp tighter (siblings claimed meanwhile).
  void set_budget(Joules b) { budget_ = b; }
  // Sum of the budgets currently claimed by live (not-yet-left) children.
  Joules children_budget() const { return children_budget_; }
  // Budget subdivision ledger: a child claims its slice from the parent at
  // creation and returns it when its app leaves the box. With an unbudgeted
  // parent (budget 0) claims are unconstrained; otherwise the grant clamps
  // to what remains, so the subdivision invariant
  //     sum(live children budgets) <= parent budget
  // holds at every level by construction.
  Joules ClaimChildBudget(Joules requested);
  void ReleaseChildBudget(Joules granted);
  bool budget_claimed() const { return budget_claimed_; }
  void set_budget_claimed(bool claimed) { budget_claimed_ = claimed; }

  // Appends the closed ownership span [begin, end) of |hw|: a balloon of
  // this box, or of a descendant composed onto it (the manager walks the
  // ancestor chain). A domain grants one balloon at a time, so spans never
  // overlap; back-to-back ones merge.
  void AddOwned(HwComponent hw, TimeNs begin, TimeNs end) {
    owned_[static_cast<size_t>(hw)].Add(begin, end);
  }

  // Energy observed by the virtual power meter for |hw| over
  // [meter_start, now): |src|'s trace integrated inside the owned spans
  // (outside them the hardware belongs to others and bills nothing), split
  // into DAQ-measured and model-estimated parts. Owned spans falling inside
  // meter-dropout fault windows cannot be measured; they are estimated as
  // the average power measured elsewhere in the window (the idle draw when
  // the whole window was dark), so the reported energy degrades gracefully
  // instead of silently under-counting.
  struct EnergyDetail {
    Joules measured = 0.0;
    Joules estimated = 0.0;
    DurationNs measured_time = 0;
    DurationNs estimated_time = 0;
    Joules total() const { return measured + estimated; }
  };
  EnergyDetail ObservedEnergyDetail(HwComponent hw, const MeterSource& src,
                                    TimeNs now) const;

  // Virtual-meter samples of |hw|: adds the reading at each of |buf|'s
  // prefilled timestamps onto it (the trace inside owned spans, idle power
  // outside them), OR-ing the estimated tag. Samples inside a meter-dropout
  // window are substituted with the idle draw and tagged estimated; every
  // other one consumes one Gaussian draw of |rng| when given, in buffer
  // order.
  void AccumulateObservedSamples(HwComponent hw, const MeterSource& src,
                                 Watts noise_stddev, Rng* rng,
                                 std::vector<PowerSample>* buf) const;

  TimeNs meter_start() const { return meter_start_; }
  void ResetMeter(TimeNs now);

  TimeNs sample_cursor() const { return sample_cursor_; }
  void set_sample_cursor(TimeNs t) { sample_cursor_ = t; }

  // The closed ownership spans of |hw| not yet folded by a trim.
  const IntervalSet& owned(HwComponent hw) const {
    return owned_[static_cast<size_t>(hw)];
  }

  // --- retention (driven by PsboxManager::TrimTelemetry) ------------------

  // Folds every piece of |hw|'s owned spans that ends by |horizon| into the
  // energy base (exactly the pieces the untrimmed query would integrate, in
  // the same order), drops the spans folded whole, and anchors where the
  // unfolded rest of the span straddling |horizon| begins while |src|'s
  // trace still resolves it.
  void TrimOwned(HwComponent hw, const MeterSource& src, TimeNs horizon);

  // Whether |hw|'s straddling span is anchored (the trace may no longer hold
  // its folded pieces).
  bool anchored(HwComponent hw) const { return FindAnchor(hw) != nullptr; }

  // Advances the sample cursor to the first grid point at or past |horizon|
  // (keeping the grid phase), dropping the backlog a lagging reader never
  // drained — the virtual meter behaves as a bounded ring buffer under
  // retention. Returns the number of samples dropped.
  uint64_t DropSampleBacklogBefore(TimeNs horizon, DurationNs period);
  uint64_t samples_lost() const { return samples_lost_; }

  // --- retirement ---------------------------------------------------------
  // Whether every closed span of |hw| has been folded into the base (no
  // interval, no anchor). With no span open either (the manager asks the
  // domain), the box's energy on a balloon-metered |hw| is final.
  bool Settled(HwComponent hw) const {
    return owned(hw).empty() && !anchored(hw);
  }
  // Final balloon-metered energy of the retired children, added exactly as
  // each child retires; the tenant audit starts its child sum from it.
  Joules closed_children_energy() const { return closed_children_energy_; }
  void AddClosedChild(Joules energy) { closed_children_energy_ += energy; }

  // --- crash evacuation (state transfer) ----------------------------------
  // Energy already billed to this app on a previous board, carried over by a
  // crash evacuation. Reported as part of every meter reading (measured
  // share) and deliberately NOT cleared by ResetMeter: the transferred value
  // stands in for history the new board's rails never saw.
  Joules transferred_base() const { return transferred_base_; }
  void set_transferred_base(Joules j) { transferred_base_ = j; }

  // Snapshot support: verifies identity (id/app/hardware must match the
  // replayed CreateBox) and overwrites all mutable meter state: closed
  // history, bases and anchors, stored sparsely (a count, then one record
  // per anchored component). No open span travels: its domain carries it.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  // Where the unfolded rest of the span straddling the last trim horizon
  // begins (its start, clamped to meter_start, or a dropout edge after it),
  // with the trace's CumulativeAt there. IntegralOver is the difference of
  // two CumulativeAt values, so subtracting |cum| integrates the rest's
  // first piece bit-identically once the trace has dropped |at|.
  struct Anchor {
    HwComponent hw;
    TimeNs at;
    Joules cum;
  };
  const Anchor* FindAnchor(HwComponent hw) const;

  // Where a read of the span beginning at |begin| starts: at |anchor| when
  // the span holds it (its pieces before it are folded), else at |begin|
  // clamped to meter_start.
  TimeNs ReadStart(const Anchor* anchor, TimeNs begin) const;

  // Splits [b, e) at the meter-dropout windows, integrating measured pieces
  // off the trace and accumulating dropped pieces as estimation time, in
  // order, up to the first piece that ends after |limit|. Returns where
  // the pieces left unaccumulated begin (|e| when none is).
  static TimeNs AccumulateSpan(const MeterSource& src, const Anchor* anchor,
                               TimeNs b, TimeNs e, TimeNs limit,
                               EnergyDetail* d);

  PsboxId id_;
  AppId app_;
  std::vector<HwComponent> hw_;
  bool inside_ = false;
  TimeNs meter_start_;
  TimeNs sample_cursor_;
  std::array<IntervalSet, kNumHwComponents> owned_;
  // Hierarchy: enclosing tenant box (-1 = top-level), the budget slice this
  // box claimed from it, the slices live children currently hold of ours,
  // and whether our own claim against the parent is outstanding (released
  // when the app leaves the box, re-claimed on re-entry).
  PsboxId parent_ = -1;
  Joules budget_ = 0.0;
  Joules children_budget_ = 0.0;
  bool budget_claimed_ = false;
  // Retention bases: the measured energy and measured/estimated durations
  // of trimmed ownership history. Their .estimated stays 0 (and off the
  // wire): estimation is derived from the aggregated measured average at
  // query time, so trimming never changes the reported split.
  std::array<EnergyDetail, kNumHwComponents> detail_base_{};
  // At most one per component, and none on most boxes: only a span alive
  // across a trim needs one.
  std::vector<Anchor> anchors_;
  uint64_t samples_lost_ = 0;
  Joules transferred_base_ = 0.0;
  Joules closed_children_energy_ = 0.0;
};

}  // namespace psbox

#endif  // SRC_PSBOX_POWER_SANDBOX_H_
