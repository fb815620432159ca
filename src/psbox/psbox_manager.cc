#include "src/psbox/psbox_manager.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/base/check.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

PsboxManager::PsboxManager(Kernel* kernel)
    : kernel_(kernel),
      target_(kernel->sim().AddTarget(this, {"psbox manager", kEventKinds})),
      rng_(kernel->board().rng().Fork()) {
  kernel_->set_psbox_service(this);
  kernel_->set_balloon_observer(this);
}

PsboxManager::~PsboxManager() = default;

const PsboxManager::BoxEntry* PsboxManager::Find(int box) const {
  auto it = std::lower_bound(
      boxes_.begin(), boxes_.end(), box,
      [](const BoxEntry& e, int id) { return e.id < id; });
  return it != boxes_.end() && it->id == box ? &*it : nullptr;
}

const PsboxManager::BoxEntry& PsboxManager::Entry(int box) const {
  const BoxEntry* entry = Find(box);
  if (entry == nullptr) {
    CheckFail(__FILE__, __LINE__,
              "psbox " + std::to_string(box) +
                  (box >= 0 && box < next_box_id_
                       ? " is retired (its app finished and was freed)"
                       : " does not exist"));
  }
  return *entry;
}

PsboxManager::BoxEntry& PsboxManager::Entry(int box) {
  return const_cast<BoxEntry&>(std::as_const(*this).Entry(box));
}

PowerSandbox& PsboxManager::sandbox(int box) { return *Entry(box).box; }

const PowerSandbox& PsboxManager::sandbox(int box) const { return *Entry(box).box; }

std::vector<int> PsboxManager::BoxIds() const {
  std::vector<int> ids;
  ids.reserve(boxes_.size());
  for (const BoxEntry& entry : boxes_) {
    ids.push_back(entry.id);
  }
  return ids;
}

int PsboxManager::CreateBox(AppId app, const std::vector<HwComponent>& hw) {
  return CreateBoxInternal(next_box_id_, app, hw, /*parent=*/-1, /*budget=*/0.0,
                           /*claim=*/false);
}

int PsboxManager::CreateNestedBox(AppId app, const std::vector<HwComponent>& hw,
                                  int parent, Joules budget) {
  PSBOX_CHECK_GE(budget, 0.0);
  // The child's binding must be a subset of the tenant's: every balloon the
  // child is granted composes onto the ancestors, which requires them bound
  // to the same component.
  const PowerSandbox& tenant = sandbox(parent);
  for (HwComponent component : hw) {
    PSBOX_CHECK(tenant.BoundTo(component));
  }
  return CreateBoxInternal(next_box_id_, app, hw, static_cast<PsboxId>(parent),
                           budget, /*claim=*/true);
}

int PsboxManager::CreateBoxInternal(PsboxId id, AppId app,
                                    const std::vector<HwComponent>& hw,
                                    PsboxId parent, Joules budget, bool claim) {
  PSBOX_CHECK(!hw.empty());
  PSBOX_CHECK_GE(id, next_box_id_);
  next_box_id_ = id + 1;
  Joules granted = budget;
  if (claim && parent >= 0) {
    granted = sandbox(parent).ClaimChildBudget(budget);
  }
  auto sb = std::make_unique<PowerSandbox>(id, app, hw, kernel_->Now(), parent,
                                           granted);
  if (claim && parent >= 0) {
    sb->set_budget_claimed(true);
  }
  // An evacuated app resumes billing from its transferred value.
  auto staged = staged_transfers_.find(app);
  if (staged != staged_transfers_.end()) {
    sb->set_transferred_base(staged->second);
    staged_transfers_.erase(staged);
  }
  if (parent >= 0) {
    ++Entry(parent).live_children;
  }
  boxes_.push_back(BoxEntry{id, std::move(sb)});
  app_boxes_[app].push_back(id);
  for (HwComponent component : hw) {
    // Each bound resource domain does its one-time per-box setup (the CPU
    // domain creates the task group and the governor's operating point;
    // the display and GPS bind nothing).
    kernel_->domain(component).BindBox(app, id);
  }
  return id;
}

void PsboxManager::StageTransferredEnergy(AppId app, Joules energy) {
  // The app's box may already exist — spawn dispatches the behaviour's box
  // setup before the coordinator gets a chance to stage — in which case the
  // transfer applies to its latest box directly. Otherwise it parks here
  // until CreateBox.
  auto it = app_boxes_.find(app);
  if (it != app_boxes_.end()) {
    PowerSandbox& sb = sandbox(it->second.back());
    sb.set_transferred_base(sb.transferred_base() + energy);
    return;
  }
  staged_transfers_[app] += energy;
}

void PsboxManager::EnterBox(int box) {
  PowerSandbox& sb = *Entry(box).box;
  if (sb.inside()) {
    return;
  }
  // Re-entering a nested box re-claims its budget slice from the tenant
  // (clamped to what siblings left available in the meantime).
  if (sb.parent() >= 0 && !sb.budget_claimed()) {
    sb.set_budget(sandbox(sb.parent()).ClaimChildBudget(sb.budget()));
    sb.set_budget_claimed(true);
  }
  sb.set_inside(true);
  // Defer the kernel mode switch to the next scheduling point: EnterBox is
  // called from task context (the behaviour is mid-dispatch) and the group
  // move preempts the caller.
  kernel_->sim().ScheduleAfter(0, target_, kApplyEnter,
                               static_cast<uint64_t>(box));
}

void PsboxManager::OnEvent(uint8_t kind, uint64_t a, uint64_t /*b*/) {
  if (kind == kApplyEnter) {
    ApplyEnter(static_cast<int>(a));
  } else {
    ApplyLeave(static_cast<int>(a));
  }
}

std::string PsboxManager::CheckEvent(uint8_t /*kind*/, uint64_t a,
                                     uint64_t /*b*/) const {
  if (a != static_cast<uint64_t>(static_cast<PsboxId>(a)) ||
      Find(static_cast<PsboxId>(a)) == nullptr) {
    return "names box " + std::to_string(a) + ", which does not exist";
  }
  return {};
}

void PsboxManager::ApplyEnter(int box) {
  const PowerSandbox& sb = *Entry(box).box;
  if (!sb.inside()) {
    return;  // left again before the switch applied
  }
  for (HwComponent hw : sb.hardware()) {
    kernel_->domain(hw).SetSandboxed(sb.app(), sb.id());
  }
}

void PsboxManager::LeaveBox(int box) {
  PowerSandbox& sb = *Entry(box).box;
  if (!sb.inside()) {
    return;
  }
  // A leaving child returns its budget slice to the tenant.
  if (sb.parent() >= 0 && sb.budget_claimed()) {
    sandbox(sb.parent()).ReleaseChildBudget(sb.budget());
    sb.set_budget_claimed(false);
  }
  sb.set_inside(false);
  kernel_->sim().ScheduleAfter(0, target_, kApplyLeave,
                               static_cast<uint64_t>(box));
}

void PsboxManager::ApplyLeave(int box) {
  const PowerSandbox& sb = *Entry(box).box;
  if (sb.inside()) {
    return;  // re-entered before the switch applied
  }
  for (HwComponent hw : sb.hardware()) {
    kernel_->domain(hw).ClearSandboxed(sb.app());
  }
}

MeterSource PsboxManager::Source(const PowerSandbox& sb, HwComponent hw) const {
  // §7 entanglement-free hardware: the domain traces the app's own power
  // (its pixels on the display, the safely revealed operating power of the
  // GPS), which the box owns at all times and no DAQ dropout darkens.
  if (const StepTrace* own = kernel_->domain(hw).AppPowerTrace(sb.app())) {
    return {own, 0.0, /*open_since=*/0, nullptr, /*composes=*/false};
  }
  Board& board = kernel_->board();
  return MeterSource::OfRail(board.RailFor(hw), OpenSince(sb, hw),
                             &board.fault_injector());
}

TimeNs PsboxManager::OpenSince(const PowerSandbox& sb, HwComponent hw) const {
  const ResourceDomain& domain = kernel_->domain(hw);
  if (domain.served_since() < 0) {
    return kNoOpenSpan;
  }
  // The balloon is open on its owner box and every ancestor. A parent's id
  // is below its child's, so the walk up stops once it passes |sb|.
  for (PsboxId b = domain.owner_box(); b >= sb.id();
       b = Entry(b).box->parent()) {
    if (b == sb.id()) {
      return domain.served_since();
    }
  }
  return kNoOpenSpan;
}

TimeNs PsboxManager::OpenSince(int box, HwComponent hw) const {
  return OpenSince(sandbox(box), hw);
}

bool PsboxManager::OwnedAt(int box, HwComponent hw, TimeNs t) const {
  const PowerSandbox& sb = sandbox(box);
  const TimeNs since = OpenSince(sb, hw);
  return (since >= 0 && t >= since) || sb.owned(hw).Contains(t);
}

std::vector<PowerSample> PsboxManager::ObservedSamples(
    int box, TimeNs t0, TimeNs t1, DurationNs period, Watts noise_stddev,
    Rng* rng) const {
  std::vector<PowerSample> out;
  for (TimeNs t = t0; t < t1; t += period) {
    out.push_back({t, 0.0, false});
  }
  AccumulateSamples(sandbox(box), noise_stddev, rng, &out);
  return out;
}

void PsboxManager::AccumulateSamples(const PowerSandbox& sb, Watts noise_stddev,
                                     Rng* rng,
                                     std::vector<PowerSample>* grid) const {
  // A multi-rail virtual meter: every bound component accumulates onto the
  // shared grid, component-major so the Gaussian noise draw order is stable.
  for (HwComponent hw : sb.hardware()) {
    sb.AccumulateObservedSamples(hw, Source(sb, hw), noise_stddev, rng, grid);
  }
}

Joules PsboxManager::ComponentEnergy(const PowerSandbox& sb, HwComponent hw) const {
  return sb.ObservedEnergyDetail(hw, Source(sb, hw), kernel_->Now()).total();
}

Joules PsboxManager::ReadEnergy(int box) {
  PowerSandbox& sb = sandbox(box);
  Joules total = sb.transferred_base();
  for (HwComponent hw : sb.hardware()) {
    total += ComponentEnergy(sb, hw);
  }
  return total;
}

Joules PsboxManager::ReadEnergyFor(int box, HwComponent hw) {
  PowerSandbox& sb = sandbox(box);
  PSBOX_CHECK(sb.BoundTo(hw));
  return ComponentEnergy(sb, hw);
}

PowerSandbox::EnergyDetail PsboxManager::ReadEnergyDetail(int box) {
  PowerSandbox& sb = sandbox(box);
  PowerSandbox::EnergyDetail total;
  // Transferred energy was measured on the failed board's rails.
  total.measured = sb.transferred_base();
  for (HwComponent hw : sb.hardware()) {
    const PowerSandbox::EnergyDetail d =
        sb.ObservedEnergyDetail(hw, Source(sb, hw), kernel_->Now());
    total.measured += d.measured;
    total.estimated += d.estimated;
    total.measured_time += d.measured_time;
    total.estimated_time += d.estimated_time;
  }
  return total;
}

double PsboxManager::EstimatedEnergyFraction(int box) {
  const PowerSandbox::EnergyDetail d = ReadEnergyDetail(box);
  const Joules total = d.total();
  return total > 0.0 ? d.estimated / total : 0.0;
}

void PsboxManager::ResetEnergy(int box) { sandbox(box).ResetMeter(kernel_->Now()); }

size_t PsboxManager::Sample(int box, std::vector<PowerSample>* buf,
                            size_t max_samples) {
  PowerSandbox& sb = sandbox(box);
  if (!sb.inside()) {
    return 0;  // psbox is the only way to observe power — and only inside
  }
  PSBOX_CHECK(buf != nullptr);
  const PowerMeterConfig& meter = kernel_->board().config().meter;
  const TimeNs now = kernel_->Now();
  const TimeNs t0 = sb.sample_cursor();
  const DurationNs period = meter.sample_period;
  // One uniform grid for every bound component: n points t0 + i*period
  // covering [t0, now), hard-capped at the caller's budget. The cursor
  // advances by whole periods, so the virtual meter stays phase-aligned on
  // the DAQ grid across drains (mid-period drains included) and a capped
  // drain never returns more than |max_samples|.
  size_t n = 0;
  if (now > t0) {
    n = static_cast<size_t>((now - t0 + period - 1) / period);
    n = std::min(n, max_samples);
  }
  if (n == 0) {
    return 0;
  }
  sample_scratch_.clear();
  sample_scratch_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    sample_scratch_.push_back({t0 + static_cast<DurationNs>(i) * period, 0.0, false});
  }
  AccumulateSamples(sb, meter.noise_stddev, &rng_, &sample_scratch_);
  sb.set_sample_cursor(t0 + static_cast<DurationNs>(n) * period);
  buf->insert(buf->end(), sample_scratch_.begin(), sample_scratch_.end());
  return n;
}

bool PsboxManager::InBox(int box) const { return sandbox(box).inside(); }

void PsboxManager::TrimTelemetry(TimeNs horizon) {
  const DurationNs period = kernel_->board().config().meter.sample_period;
  for (const BoxEntry& entry : boxes_) {
    PowerSandbox& sb = *entry.box;
    for (HwComponent hw : sb.hardware()) {
      sb.TrimOwned(hw, Source(sb, hw), horizon);
    }
    sb.DropSampleBacklogBefore(horizon, period);
  }
}

bool PsboxManager::AppRetirable(AppId app) {
  auto it = app_boxes_.find(app);
  if (it == app_boxes_.end()) {
    return true;
  }
  for (const PsboxId id : it->second) {
    const BoxEntry& entry = Entry(id);
    const PowerSandbox& sb = *entry.box;
    // A deferred mode switch still names the box.
    const auto box = static_cast<uint64_t>(id);
    if (sb.inside() || entry.live_children != 0 ||
        kernel_->sim().FindPending(target_, kApplyEnter, box) !=
            kInvalidEventId ||
        kernel_->sim().FindPending(target_, kApplyLeave, box) !=
            kInvalidEventId) {
      return false;
    }
    // A component that composes is final once no span is open or unfolded;
    // a box's own trace (§7) is read to the end and never holds it back.
    for (HwComponent hw : sb.hardware()) {
      const MeterSource src = Source(sb, hw);
      if ((src.composes && (src.open_since >= 0 || !sb.Settled(hw))) ||
          !kernel_->domain(hw).BoxRetirable(id)) {
        return false;
      }
    }
  }
  return true;
}

void PsboxManager::RetireApp(AppId app) {
  staged_transfers_.erase(app);
  auto it = app_boxes_.find(app);
  if (it == app_boxes_.end()) {
    return;
  }
  for (const PsboxId id : it->second) {
    BoxEntry& entry = Entry(id);
    PowerSandbox& sb = *entry.box;
    if (sb.parent() >= 0) {
      // Settled, so the energy is final: the tenant audit keeps counting it
      // through the closed-children base.
      BoxEntry& parent = Entry(sb.parent());
      parent.box->AddClosedChild(BalloonMeteredEnergy(sb));
      --parent.live_children;
    }
    for (HwComponent hw : sb.hardware()) {
      kernel_->domain(hw).UnbindBox(id);
    }
    boxes_.erase(boxes_.begin() + (&entry - boxes_.data()));
  }
  app_boxes_.erase(it);
}

namespace {

// A sandbox's creation parameters, as CreateBox takes them.
struct BoxSpec {
  AppId app = kNoApp;
  std::vector<HwComponent> hw;
  PsboxId parent = kNoPsbox;
  Joules budget = 0.0;

  static BoxSpec Of(const PowerSandbox& box) {
    return {box.app(), box.hardware(), box.parent(), box.budget()};
  }

  template <class Ar>
  void Serialize(Ar& ar) {
    ar.I64(app);
    ar.Seq(hw, 1, [&](HwComponent& c) {
      ar.Enum(c, HwComponent::kStorage, "sandbox hardware component");
    });
    ar.I64(parent);
    ar.F64(budget);
  }
};

}  // namespace

template <class Ar>
void PsboxManager::Serialize(Ar& ar) {
  if (!ar.Section("psbox")) {
    return;
  }
  rng_.Serialize(ar);
  ar.Map(staged_transfers_, 12, [&](AppId& app, Joules& energy) {
    ar.I64(app);
    ar.F64(energy);
  });
  if constexpr (Ar::kLoading) {
    if (!boxes_.empty()) {
      ar.Fail("sandbox restore requires a freshly constructed manager");
      return;
    }
  }
  // v5: the id counter, then the live boxes in id order, each under its id.
  PsboxId next_id = next_box_id_;
  ar.I64(next_id);
  size_t num_boxes = boxes_.size();
  ar.Count(num_boxes, 24);
  for (size_t i = 0; i < num_boxes && ar.ok(); ++i) {
    PsboxId id = Ar::kLoading ? kNoPsbox : boxes_[i].id;
    ar.I64(id);
    // v3: creation parameters for the hierarchy (needed to rebuild the box
    // before its state record overwrites the mutable ledger).
    BoxSpec spec = Ar::kLoading ? BoxSpec{} : BoxSpec::Of(*boxes_[i].box);
    spec.Serialize(ar);
    if constexpr (Ar::kLoading) {
      if (!ar.ok()) {
        return;
      }
      if (id < next_box_id_ || id >= next_id) {
        ar.Fail("sandbox id " + std::to_string(id) +
                " out of order or past the id counter in snapshot");
        return;
      }
      if (spec.hw.empty()) {
        ar.Fail("sandbox with no bound hardware in snapshot");
        return;
      }
      // The CPU would bind a second task group under the box's id.
      if (std::set(spec.hw.begin(), spec.hw.end()).size() != spec.hw.size()) {
        ar.Fail("sandbox binds a hardware component twice in snapshot");
        return;
      }
      if (spec.parent != kNoPsbox && Find(spec.parent) == nullptr) {
        ar.Fail("sandbox parent must be a live box preceding its child in "
                "snapshot");
        return;
      }
      // claim=false: the parent's children_budget ledger was snapshotted
      // after the original claims and is restored verbatim below — claiming
      // again during replay would double-count.
      CreateBoxInternal(id, spec.app, spec.hw, spec.parent, spec.budget,
                        /*claim=*/false);
    }
    boxes_[i].box->Serialize(ar);
  }
  if constexpr (Ar::kLoading) {
    next_box_id_ = next_id;
  }
}

template void PsboxManager::Serialize(SnapshotWriter&);
template void PsboxManager::Serialize(SnapshotReader&);

void PsboxManager::OnBalloonOut(PsboxId box, HwComponent hw, TimeNs since,
                                TimeNs until) {
  // Compose the span up the hierarchy: the owner and every ancestor tenant
  // append it. CreateNestedBox enforces that a child's binding is a subset
  // of its parent's, so every ancestor is bound.
  for (PsboxId b = box; b >= 0;) {
    PowerSandbox& sb = sandbox(b);
    sb.AddOwned(hw, since, until);
    b = sb.parent();
  }
}

std::string PsboxManager::CheckBalloonOwners() const {
  for (size_t c = 0; c < kNumHwComponents; ++c) {
    const auto hw = static_cast<HwComponent>(c);
    const ResourceDomain& domain = kernel_->domain(hw);
    if (domain.balloon_owner() == kNoApp) {
      continue;
    }
    const std::string what = std::string(domain.name()) +
                             " domain's balloon names box " +
                             std::to_string(domain.owner_box());
    const BoxEntry* entry = Find(domain.owner_box());
    if (entry == nullptr) {
      return what + ", which does not exist";
    }
    if (!entry->box->BoundTo(hw)) {
      return what + ", which is not bound to the " + domain.name();
    }
    if (entry->box->app() != domain.balloon_owner()) {
      return what + ", which belongs to app " +
             std::to_string(entry->box->app()) + ", not the owner app " +
             std::to_string(domain.balloon_owner());
    }
  }
  return {};
}

Joules PsboxManager::BalloonMeteredEnergy(const PowerSandbox& sb) const {
  // Transferred bases are prior-board history (audited on the board that
  // served them); the audit covers what composed HERE, on both sides.
  Joules e = 0.0;
  for (HwComponent hw : sb.hardware()) {
    const MeterSource src = Source(sb, hw);
    if (src.composes) {
      e += sb.ObservedEnergyDetail(hw, src, kernel_->Now()).total();
    }
  }
  return e;
}

size_t PsboxManager::AccountingViolations(double bound) {
  // Sum each tenant's children over the components that compose (a §7
  // component's own trace has no balloons), starting
  // from the energy its retired children closed with, then check the
  // one-sided bound: a tenant's composed meter covers every child balloon,
  // so children may only exceed it by the protocol slack.
  std::map<PsboxId, Joules> child_sum;
  for (const BoxEntry& entry : boxes_) {
    if (entry.box->closed_children_energy() > 0.0) {
      child_sum.emplace(entry.id, entry.box->closed_children_energy());
    }
  }
  for (const BoxEntry& entry : boxes_) {
    if (entry.box->parent() >= 0) {
      child_sum[entry.box->parent()] += BalloonMeteredEnergy(*entry.box);
    }
  }
  size_t violations = 0;
  for (const auto& [tenant, sum] : child_sum) {
    if (sum > BalloonMeteredEnergy(sandbox(tenant)) * (1.0 + bound) + 1e-9) {
      ++violations;
    }
  }
  return violations;
}

}  // namespace psbox
