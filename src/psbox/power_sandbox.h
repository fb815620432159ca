// PowerSandbox: one psbox instance and its virtual power meter.
//
// A psbox encloses one app and is bound to a set of hardware components
// (§3). Whenever the kernel grants the psbox a resource balloon on a bound
// component, the ownership interval is recorded here once the balloon ends;
// a balloon still open is recorded only by its domain, and the psbox
// manager passes its start to every query below as |open_since|
// (kNoOpenSpan when none). The virtual power meter then exposes:
//   * inside an owned interval  — the component's true rail power (the app
//     plus its vertical environment; power states already virtualised by
//     the kernel, so no residue from other apps);
//   * outside owned intervals   — the component's idle power (the only
//     possible contribution of concurrent apps, §3; also what off/suspended
//     periods are reported as, closing that side channel, §4.1).
//
// Retention: on long runs the ownership history and the rail traces behind
// it are trimmed to a bounded horizon (Kernel::TrimTelemetry). Before an
// owned interval is dropped, its exact energy contribution — measured and
// dropout-estimated spans separately — is folded into per-component base
// accumulators, so psbox_read stays exact (and bit-identical to the
// untrimmed computation) while memory stays bounded. The one span per
// component that straddles the horizon (a long balloon, possibly still open)
// is anchored instead of kept resolvable: its start's cumulative rail
// integral is recorded before the rail drops it, so the span never holds the
// horizon back.

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
  // [meter_start, now): the rail energy inside owned spans, closed or open
  // since |open_since| (outside them the hardware belongs to others and
  // bills nothing), split into
  // DAQ-measured and model-estimated parts. Owned spans falling inside
  // meter-dropout fault windows cannot be measured; they are estimated as
  // the average power measured elsewhere in the window (the rail's idle
  // draw when the whole window was dark), so the reported energy degrades
  // gracefully instead of silently under-counting.
  struct EnergyDetail {
    Joules measured = 0.0;
    Joules estimated = 0.0;
    DurationNs measured_time = 0;
    DurationNs estimated_time = 0;
    Joules total() const { return measured + estimated; }
  };
  EnergyDetail ObservedEnergyDetail(const PowerRail& rail, HwComponent hw,
                                    TimeNs now, const FaultInjector* faults,
                                    TimeNs open_since) const;

  // Virtual-meter samples of |hw|: adds the reading at each of |buf|'s
  // prefilled timestamps onto it (the true rail power inside owned spans,
  // idle power outside them), OR-ing the estimated tag. Samples inside a
  // meter-dropout window are substituted with the rail's idle draw and
  // tagged estimated; every other one consumes one Gaussian draw of |rng|
  // when given, in buffer order.
  void AccumulateObservedSamples(const PowerRail& rail, HwComponent hw,
                                 Watts noise_stddev, Rng* rng,
                                 const FaultInjector* faults,
                                 TimeNs open_since,
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

  // Earliest rail instant this sandbox still needs to resolve queries
  // exactly, given a desired horizon. The span straddling |desired| is
  // anchored, so its start never pins the floor; only a meter-dropout window
  // inside it does, because the estimated pieces split the span at the
  // window's edges and those need the rail. Trimmed intervals never pin —
  // their energy moves into the bases.
  TimeNs RetainFloor(HwComponent hw, TimeNs desired,
                     const FaultInjector* faults, TimeNs open_since) const;

  // Folds every owned interval of |hw| ending at or before |horizon| into
  // the energy base (exactly the spans the untrimmed query
  // would integrate, in the same order), drops those intervals, and anchors
  // the span left straddling |horizon| while |rail| still resolves its start.
  void TrimOwned(HwComponent hw, TimeNs horizon, const PowerRail& rail,
                 const FaultInjector* faults, TimeNs open_since);

  // Whether |hw|'s straddling span is anchored (the rail may no longer hold
  // its start).
  bool anchored(HwComponent hw) const { return FindAnchor(hw) != nullptr; }

  // Direct-metered components: banks [direct_from, horizon) energy (computed
  // by the caller from the domain) and advances the integration start.
  TimeNs direct_from(HwComponent hw) const {
    return direct_from_[static_cast<size_t>(hw)];
  }
  Joules direct_energy_base(HwComponent hw) const {
    return direct_base_[static_cast<size_t>(hw)];
  }
  void BankDirectEnergy(HwComponent hw, Joules energy, TimeNs new_from);

  // Advances the sample cursor to the first grid point at or past |horizon|
  // (keeping the grid phase), dropping the backlog a lagging reader never
  // drained — the virtual meter behaves as a bounded ring buffer under
  // retention. Returns the number of samples dropped.
  uint64_t DropSampleBacklogBefore(TimeNs horizon, DurationNs period);
  uint64_t samples_lost() const { return samples_lost_; }

  // --- retirement ---------------------------------------------------------
  // Whether every closed span has been folded into the bases (no interval,
  // no anchor). With no span open either (the manager asks the domains),
  // the box's balloon-metered energy is final.
  bool Settled() const;
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
  // The start of the ownership span straddling the trim horizon, clamped to
  // meter_start, with the rail's CumulativeAt there. IntegralOver is the
  // difference of two CumulativeAt values, so subtracting |cum| integrates
  // the span bit-identically once the rail has dropped |at|.
  struct Anchor {
    HwComponent hw;
    TimeNs at;
    Joules cum;
  };
  const Anchor* FindAnchor(HwComponent hw) const;

  // rail.EnergyOver(b, e) for e > b, reading the start from |anchor| when
  // the window begins at it.
  static Joules SpanEnergy(const PowerRail& rail, const Anchor* anchor,
                           TimeNs b, TimeNs e);

  // Clamped start of the span of |hw| that begins before |t| and ends after
  // it (a closed interval, or the one open since |open_since|); |t| when
  // none does.
  TimeNs StraddleStart(HwComponent hw, TimeNs t, TimeNs open_since) const;

  // Splits [b, e) at the meter-dropout windows, integrating measured pieces
  // off the rail and accumulating dropped pieces as estimation time.
  void AccumulateSpan(const PowerRail& rail, const FaultInjector* faults,
                      const Anchor* anchor, TimeNs b, TimeNs e,
                      EnergyDetail* d) const;

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
  std::array<Joules, kNumHwComponents> direct_base_{};
  std::array<TimeNs, kNumHwComponents> direct_from_;
  // At most one per component, and none on most boxes: only a span alive
  // across a trim needs one.
  std::vector<Anchor> anchors_;
  uint64_t samples_lost_ = 0;
  Joules transferred_base_ = 0.0;
  Joules closed_children_energy_ = 0.0;
};

}  // namespace psbox

#endif  // SRC_PSBOX_POWER_SANDBOX_H_
