// PsboxManager: the psbox OS principal's control plane.
//
// Implements the kernel's PsboxService (the psbox_* syscall surface of
// Listing 1) and receives each ended balloon's ownership span as the
// BalloonObserver of every resource domain (Kernel::set_balloon_observer).
// It owns every PowerSandbox, arms/disarms the kernel extensions when apps
// enter/leave, and serves virtual-power-meter reads. A box keeps only its
// closed spans; a span still open is read from the domain that granted it
// (OpenSince), so who owns a component since when is recorded once.

#ifndef SRC_PSBOX_PSBOX_MANAGER_H_
#define SRC_PSBOX_PSBOX_MANAGER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/kernel/balloon_observer.h"
#include "src/kernel/kernel.h"
#include "src/kernel/psbox_service.h"
#include "src/psbox/power_sandbox.h"

namespace psbox {

class PsboxManager : public PsboxService,
                     public BalloonObserver,
                     public EventTarget {
 public:
  explicit PsboxManager(Kernel* kernel);
  ~PsboxManager() override;
  PsboxManager(const PsboxManager&) = delete;
  PsboxManager& operator=(const PsboxManager&) = delete;

  // PsboxService:
  int CreateBox(AppId app, const std::vector<HwComponent>& hw) override;
  // Nested (tenant) sandbox: |hw| must be a subset of the parent's binding;
  // |budget| is claimed from the parent's slice (clamped to what remains
  // when the parent is budgeted). LeaveBox returns the claim; EnterBox
  // re-claims it.
  int CreateNestedBox(AppId app, const std::vector<HwComponent>& hw, int parent,
                      Joules budget) override;
  void EnterBox(int box) override;
  void LeaveBox(int box) override;
  Joules ReadEnergy(int box) override;
  void ResetEnergy(int box) override;
  size_t Sample(int box, std::vector<PowerSample>* buf, size_t max_samples) override;
  bool InBox(int box) const override;
  // Telemetry retention: the fold of every owned piece behind the horizon
  // into per-box energy bases, the anchors of the straddling spans' rests
  // and the sample-backlog drop.
  void TrimTelemetry(TimeNs horizon) override;
  bool AppRetirable(AppId app) override;
  void RetireApp(AppId app) override;

  // BalloonObserver (called by the domain after it swapped its virtualised
  // power state back). A granted balloon composes up the sandbox hierarchy:
  // the owning box and every ancestor append the span, so a child's served
  // energy bills its own virtual meter and the enclosing tenant's.
  void OnBalloonOut(PsboxId box, HwComponent hw, TimeNs since,
                    TimeNs until) override;

  // The start of |box|'s ownership span on |hw| that is still open now:
  // the domain's serve instant while its balloon is served and granted to
  // |box| or a descendant, kNoOpenSpan otherwise.
  TimeNs OpenSince(int box, HwComponent hw) const;
  // Whether |box| owned |hw| at instant |t| (a closed span or the open one).
  bool OwnedAt(int box, HwComponent hw, TimeNs t) const;
  // |box|'s virtual-meter samples over [t0, t1), one per |period|, summed
  // over its bound components as Sample() sums them, noise from |rng| when
  // given.
  std::vector<PowerSample> ObservedSamples(int box, TimeNs t0, TimeNs t1,
                                           DurationNs period,
                                           Watts noise_stddev, Rng* rng) const;

  // EventTarget: the deferred kernel mode switches of EnterBox and LeaveBox
  // (a: the box).
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;
  std::string CheckEvent(uint8_t kind, uint64_t a, uint64_t b) const override;

  // Hierarchy audit: number of tenant boxes whose children's summed
  // balloon-metered energy exceeds the tenant's own composed meter by more
  // than |bound| (the paper's ≤10% accounting bound, applied per level).
  // The sum covers every child the tenant ever had: the live ones read now,
  // the retired ones through the tenant's closed-children base. 0 on a
  // healthy board at every instant.
  size_t AccountingViolations(double bound);

  // Per-component observed energy (benches/tests need the split).
  Joules ReadEnergyFor(int box, HwComponent hw);

  // Virtual-meter energy split into DAQ-measured and model-estimated parts,
  // summed over the box's bound components. The estimated share is the
  // meter-dropout degradation; ReadEnergy() reports the same total.
  PowerSandbox::EnergyDetail ReadEnergyDetail(int box);
  // Fraction of the reported energy that came from estimation (0 when the
  // meter never glitched). The accounting error bound scales with this.
  double EstimatedEnergyFraction(int box);

  // A live sandbox; aborts descriptively for a retired or unknown id.
  PowerSandbox& sandbox(int box);
  const PowerSandbox& sandbox(int box) const;
  // Live sandboxes (ids stay a monotonic counter and are never reused).
  size_t box_count() const { return boxes_.size(); }
  // Ids of the live sandboxes, ascending.
  std::vector<int> BoxIds() const;

  // --- crash evacuation (state transfer) ----------------------------------
  // Banks energy already billed to |app| on a failed board; the app's next
  // CreateBox on this board seeds the sandbox's transferred base with it, so
  // meter reads continue from the evacuated value instead of zero.
  void StageTransferredEnergy(AppId app, Joules energy);

  // --- checkpoint/restore -------------------------------------------------
  // Serialize persists the sampling RNG, staged transfers and every live
  // sandbox (id, creation parameters + meter state). Restore replays
  // CreateBox for each saved sandbox under its recorded id — re-running the
  // per-domain BindBox setup — and then overwrites the sandbox state; it
  // requires an empty manager (fresh boards only).
  template <class Ar>
  void Serialize(Ar& ar);
  // Restore's check once the kernel has loaded too: every domain balloon
  // must name a live box of its owner app bound to the domain's component.
  // Returns the error naming the domain, or an empty string.
  std::string CheckBalloonOwners() const;

 private:
  // Shared creation path. |claim| gates the budget claim against the parent:
  // live creation claims; snapshot replay must not (the parent's ledger is
  // restored verbatim from the snapshot after the children are created).
  int CreateBoxInternal(PsboxId id, AppId app,
                        const std::vector<HwComponent>& hw, PsboxId parent,
                        Joules budget, bool claim);
  // What |sb|'s meter reads on |hw|: the domain's trace of the app's own
  // power when it keeps one (§7), else the board's rail inside the balloon
  // spans, with the span open now and the meter dropouts.
  MeterSource Source(const PowerSandbox& sb, HwComponent hw) const;
  // Energy of |sb| on the components that compose (a §7 component's own
  // trace does not): what the tenant audit sums.
  Joules BalloonMeteredEnergy(const PowerSandbox& sb) const;
  void ApplyEnter(int box);
  void ApplyLeave(int box);
  TimeNs OpenSince(const PowerSandbox& sb, HwComponent hw) const;
  // Observed energy of |sb| on |hw| over [meter_start, now).
  Joules ComponentEnergy(const PowerSandbox& sb, HwComponent hw) const;
  // Adds |sb|'s reading at each of |grid|'s timestamps (Sample and
  // ObservedSamples).
  void AccumulateSamples(const PowerSandbox& sb, Watts noise_stddev, Rng* rng,
                         std::vector<PowerSample>* grid) const;

  enum EventKind : uint8_t { kApplyEnter, kApplyLeave, kEventKinds };

  Kernel* kernel_;
  TargetId target_;
  Rng rng_;
  // A live sandbox plus its live children (rebuilt by the restore replay,
  // not saved).
  struct BoxEntry {
    PsboxId id = kNoPsbox;
    std::unique_ptr<PowerSandbox> box;
    int live_children = 0;
  };
  // The live box |box|; Find returns null for a retired or unknown id,
  // Entry aborts naming it.
  const BoxEntry* Find(int box) const;
  BoxEntry& Entry(int box);
  const BoxEntry& Entry(int box) const;

  // Live sandboxes in ascending id order (ids only grow, so creation
  // appends and retirement erases in place; lookups binary-search), and
  // per app its boxes in creation order.
  std::vector<BoxEntry> boxes_;
  std::unordered_map<AppId, std::vector<PsboxId>> app_boxes_;
  PsboxId next_box_id_ = 0;
  // Evacuated energy waiting for its app's next CreateBox.
  std::unordered_map<AppId, Joules> staged_transfers_;
  // Reusable merge buffer for Sample(): one grid of timestamps, every bound
  // component accumulates onto it in a single pass (no per-call per-component
  // vector churn on the 100 kHz hot path).
  std::vector<PowerSample> sample_scratch_;
};

}  // namespace psbox

#endif  // SRC_PSBOX_PSBOX_MANAGER_H_
