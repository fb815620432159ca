#include "src/psbox/psbox_manager.h"

#include <algorithm>
#include <map>
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
    // direct-metered domains bind nothing).
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

Joules PsboxManager::ComponentEnergy(PowerSandbox& sb, HwComponent hw, TimeNs now) {
  return ComponentEnergyDetail(sb, hw, now).total();
}

PowerSandbox::EnergyDetail PsboxManager::ComponentEnergyDetail(PowerSandbox& sb,
                                                               HwComponent hw,
                                                               TimeNs now) {
  Board& board = kernel_->board();
  const ResourceDomain& domain = kernel_->domain(hw);
  if (domain.direct_metered()) {
    // §7 entanglement-free hardware: the domain attributes energy directly
    // (exact per-app surface energy for the display; safely-revealable
    // operating power for GPS) — no balloons, no DAQ rail, no estimation.
    // Energy behind the retention horizon sits in the box's banked base.
    PowerSandbox::EnergyDetail d;
    d.measured = sb.direct_energy_base(hw) +
                 domain.DirectEnergyOver(sb.app(), sb.direct_from(hw), now);
    d.measured_time = now - sb.meter_start();
    return d;
  }
  // DAQ-metered rails degrade to model-based estimation inside
  // meter-dropout fault windows.
  return sb.ObservedEnergyDetail(board.RailFor(hw), hw, now,
                                 &board.fault_injector());
}

Joules PsboxManager::ReadEnergy(int box) {
  PowerSandbox& sb = sandbox(box);
  Joules total = sb.transferred_base();
  for (HwComponent hw : sb.hardware()) {
    total += ComponentEnergy(sb, hw, kernel_->Now());
  }
  return total;
}

Joules PsboxManager::ReadEnergyFor(int box, HwComponent hw) {
  PowerSandbox& sb = sandbox(box);
  PSBOX_CHECK(sb.BoundTo(hw));
  return ComponentEnergy(sb, hw, kernel_->Now());
}

PowerSandbox::EnergyDetail PsboxManager::ReadEnergyDetail(int box) {
  PowerSandbox& sb = sandbox(box);
  PowerSandbox::EnergyDetail total;
  // Transferred energy was measured on the failed board's rails.
  total.measured = sb.transferred_base();
  for (HwComponent hw : sb.hardware()) {
    const PowerSandbox::EnergyDetail d =
        ComponentEnergyDetail(sb, hw, kernel_->Now());
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
  // Aggregate across bound components by accumulating each one onto the
  // shared grid (a multi-rail virtual meter), component-major so the
  // Gaussian noise draw order is stable.
  for (HwComponent hw : sb.hardware()) {
    const ResourceDomain& domain = kernel_->domain(hw);
    if (domain.direct_metered()) {
      // Entanglement-free hardware (§7): sample the directly-attributable
      // series instead of balloon-gated rail power.
      for (PowerSample& s : sample_scratch_) {
        const Watts truth = domain.DirectPowerAt(sb.app(), s.timestamp);
        s.watts += std::max(0.0, truth + rng_.Gaussian(0.0, meter.noise_stddev));
      }
    } else {
      sb.AccumulateObservedSamples(kernel_->board().RailFor(hw), hw,
                                   meter.noise_stddev, &rng_,
                                   &kernel_->board().fault_injector(),
                                   &sample_scratch_);
    }
  }
  sb.set_sample_cursor(t0 + static_cast<DurationNs>(n) * period);
  buf->insert(buf->end(), sample_scratch_.begin(), sample_scratch_.end());
  return n;
}

bool PsboxManager::InBox(int box) const { return sandbox(box).inside(); }

TimeNs PsboxManager::TelemetryFloor(TimeNs desired) {
  // Straddling spans are anchored, so only meter-dropout windows inside them
  // hold the rails back; without dropouts every floor is |desired|.
  const FaultInjector& faults = kernel_->board().fault_injector();
  if (faults.meter_dropouts().empty()) {
    return desired;
  }
  // Lowering the horizon for one constraint can expose an earlier straddling
  // interval on another box or component, so iterate the per-box floors to a
  // fixpoint (each strict drop lands on a dropout edge or a span start —
  // terminates).
  TimeNs h = desired;
  while (true) {
    TimeNs next = h;
    for (const BoxEntry& entry : boxes_) {
      for (HwComponent hw : entry.box->hardware()) {
        if (kernel_->domain(hw).direct_metered()) {
          continue;  // banked via BankDirectEnergy; no ownership windows
        }
        next = std::min(next, entry.box->RetainFloor(hw, h, &faults));
      }
    }
    if (next == h) {
      return h;
    }
    h = next;
  }
}

void PsboxManager::TrimTelemetry(TimeNs horizon) {
  Board& board = kernel_->board();
  const DurationNs period = board.config().meter.sample_period;
  for (const BoxEntry& entry : boxes_) {
    PowerSandbox& sb = *entry.box;
    for (HwComponent hw : sb.hardware()) {
      const ResourceDomain& domain = kernel_->domain(hw);
      if (domain.direct_metered()) {
        // Bank the directly-attributed energy behind the horizon and advance
        // the integration start, so the domain's trace can be trimmed.
        if (horizon > sb.direct_from(hw)) {
          sb.BankDirectEnergy(
              hw, domain.DirectEnergyOver(sb.app(), sb.direct_from(hw), horizon),
              horizon);
        }
      } else {
        sb.TrimOwned(hw, horizon, board.RailFor(hw), &board.fault_injector());
      }
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
    if (sb.inside() || entry.live_children != 0 || !sb.Settled() ||
        kernel_->sim().FindPending(target_, kApplyEnter, box) !=
            kInvalidEventId ||
        kernel_->sim().FindPending(target_, kApplyLeave, box) !=
            kInvalidEventId) {
      return false;
    }
    for (HwComponent hw : sb.hardware()) {
      if (!kernel_->domain(hw).BoxRetirable(id)) {
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
  const TimeNs now = kernel_->Now();
  for (const PsboxId id : it->second) {
    BoxEntry& entry = Entry(id);
    PowerSandbox& sb = *entry.box;
    if (sb.parent() >= 0) {
      // Settled, so the energy is final: the tenant audit keeps counting it
      // through the closed-children base.
      BoxEntry& parent = Entry(sb.parent());
      parent.box->AddClosedChild(BalloonMeteredEnergy(sb, now));
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

void PsboxManager::OnBalloonIn(PsboxId box, HwComponent hw, TimeNs when) {
  // Compose the edge up the hierarchy: the owner and every ancestor tenant
  // open (or deepen) an ownership interval. CreateNestedBox enforces that a
  // child's binding is a subset of its parent's, so every ancestor is bound.
  for (PsboxId b = box; b >= 0;) {
    PowerSandbox& sb = sandbox(b);
    sb.OnOwnershipStart(hw, when);
    b = sb.parent();
  }
}

void PsboxManager::OnBalloonOut(PsboxId box, HwComponent hw, TimeNs when) {
  for (PsboxId b = box; b >= 0;) {
    PowerSandbox& sb = sandbox(b);
    sb.OnOwnershipEnd(hw, when);
    b = sb.parent();
  }
}

Joules PsboxManager::BalloonMeteredEnergy(PowerSandbox& sb, TimeNs now) {
  // Transferred bases are prior-board history (audited on the board that
  // served them); the audit covers what composed HERE, on both sides.
  Joules e = 0.0;
  for (HwComponent hw : sb.hardware()) {
    if (!kernel_->domain(hw).direct_metered()) {
      e += ComponentEnergy(sb, hw, now);
    }
  }
  return e;
}

size_t PsboxManager::AccountingViolations(double bound) {
  const TimeNs now = kernel_->Now();
  // Sum each tenant's children over balloon-metered components (the
  // direct-metered §7 components never compose — no balloons), starting
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
      child_sum[entry.box->parent()] += BalloonMeteredEnergy(*entry.box, now);
    }
  }
  size_t violations = 0;
  for (const auto& [tenant, sum] : child_sum) {
    if (sum > BalloonMeteredEnergy(sandbox(tenant), now) * (1.0 + bound) + 1e-9) {
      ++violations;
    }
  }
  return violations;
}

}  // namespace psbox
