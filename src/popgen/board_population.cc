#include "src/popgen/board_population.h"

#include <algorithm>
#include <string>

#include "src/base/check.h"
#include "src/popgen/app_catalog.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

namespace {

// The balloon-metered components tenant boxes span. Direct-metered hardware
// (display, GPS) never composes — no balloons — so tenants exclude it.
const std::vector<HwComponent>& TenantComponents() {
  static const std::vector<HwComponent> kComponents = {
      HwComponent::kCpu, HwComponent::kGpu, HwComponent::kDsp,
      HwComponent::kWifi, HwComponent::kStorage};
  return kComponents;
}

}  // namespace

BoardPopulation::BoardPopulation(const PopulationConfig& cfg,
                                 uint64_t stream_seed, int board_index,
                                 Kernel* kernel, PsboxManager* manager)
    : cfg_(cfg),
      board_(board_index),
      kernel_(kernel),
      target_(kernel->sim().AddTarget(this, {"population"})),
      manager_(manager),
      gen_(cfg, stream_seed) {
  PSBOX_CHECK(manager_ != nullptr);
}

void BoardPopulation::CreateTenants(bool restoring) {
  PSBOX_CHECK(tenants_.empty());
  for (int i = 0; i < cfg_.tenants_per_board; ++i) {
    CreateTenant(i, restoring);
  }
}

void BoardPopulation::CreateTenant(int tenant, bool restoring) {
  PSBOX_CHECK_EQ(tenant_count(), tenant);
  const std::string name =
      "tenant" + std::to_string(tenant) + "@b" + std::to_string(board_);
  const AppId app = kernel_->CreateApp(name);
  if (restoring) {
    // The manager replays its sandboxes from the snapshot; tenant boxes
    // were created first on this board, so their ids are 0..tenants-1.
    tenants_.push_back({app, tenant});
    return;
  }
  PSBOX_CHECK_EQ(manager_->box_count(), static_cast<size_t>(tenant));
  const int box = manager_->CreateBox(app, TenantComponents());
  manager_->sandbox(box).set_budget(cfg_.tenant_budget);
  tenants_.push_back({app, box});
}

void BoardPopulation::RestoreTenant(int tenant) {
  CreateTenant(tenant, /*restoring=*/true);
}

bool BoardPopulation::PopArrivalUpTo(TimeNs until, GeneratedArrival* a) {
  if (!has_pending_) {
    pending_ = gen_.Next();
    has_pending_ = true;
  }
  if (pending_.when > until) {
    return false;  // overshoot stays pending for the next window
  }
  *a = pending_;
  has_pending_ = false;
  return true;
}

void BoardPopulation::ForgetRetired() {
  const size_t before = live_.size();
  std::erase_if(live_, [this](const LiveArrival& live) {
    return kernel_->AppRetired(live.app);
  });
  retired_ += before - live_.size();
}

void BoardPopulation::ScheduleWindow(TimeNs until) {
  PSBOX_CHECK_GE(until, scheduled_until_);
  ForgetRetired();
  GeneratedArrival a;
  while (PopArrivalUpTo(until, &a)) {
    kernel_->sim().ScheduleAt(a.when, target_, 0, a.seq);
    window_.push_back(a);
  }
  scheduled_until_ = until;
}

void BoardPopulation::OnEvent(uint8_t /*kind*/, uint64_t a, uint64_t /*b*/) {
  const auto it =
      std::find_if(window_.begin(), window_.end(),
                   [a](const GeneratedArrival& w) { return w.seq == a; });
  PSBOX_CHECK(it != window_.end());
  const GeneratedArrival arrival = *it;
  window_.erase(it);
  SpawnArrival(arrival);
  ++spawned_;
}

std::string BoardPopulation::CheckEvent(uint8_t /*kind*/, uint64_t a,
                                        uint64_t /*b*/) const {
  if (std::none_of(window_.begin(), window_.end(),
                   [a](const GeneratedArrival& w) { return w.seq == a; })) {
    return "names arrival " + std::to_string(a) +
           ", which is not in the population's window";
  }
  return {};
}

void BoardPopulation::RestoreArrival(const GeneratedArrival& a) {
  SpawnArrival(a);
}

void BoardPopulation::SpawnArrival(const GeneratedArrival& a) {
  const CatalogEntry& entry =
      AppCatalog()[static_cast<size_t>(a.catalog_index)];
  AppOptions opts;
  opts.iterations = a.iterations;
  opts.use_psbox = true;
  if (a.tenant >= 0) {
    opts.psbox_parent = tenant_box(a.tenant);
    opts.psbox_budget = cfg_.child_budget;
  }
  const std::string label = std::string(a.adversarial ? "adv" : "pop") +
                            std::to_string(a.seq) + ":" + entry.name + "@b" +
                            std::to_string(board_);
  const AppHandle handle = entry.factory(*kernel_, label, opts);
  live_.push_back({handle.app, a});
}

uint64_t BoardPopulation::CompletedCount() const {
  uint64_t done = retired_;
  for (const LiveArrival& live : live_) {
    if (kernel_->AppFinished(live.app)) {
      ++done;
    }
  }
  return done;
}

size_t BoardPopulation::AccountingViolations(double bound) const {
  return manager_->AccountingViolations(bound);
}

std::string BoardPopulation::CheckArrival(const GeneratedArrival& a) const {
  const auto board = [this] {
    return "checkpoint board " + std::to_string(board_);
  };
  if (a.catalog_index < 0 ||
      static_cast<size_t>(a.catalog_index) >= AppCatalog().size()) {
    return board() + " arrival catalog index " +
           std::to_string(a.catalog_index) + " outside the app catalog (" +
           std::to_string(AppCatalog().size()) + " entries)";
  }
  const int tenants = cfg_.tenants_per_board;
  const bool tenant_ok = tenants > 0 ? a.tenant >= 0 && a.tenant < tenants
                                     : a.tenant == -1;
  if (!tenant_ok) {
    return board() + " arrival tenant " + std::to_string(a.tenant) +
           " outside [0, " + std::to_string(tenants) + ")";
  }
  return {};
}

template <class Ar>
void BoardPopulation::Serialize(Ar& ar, TimeNs now) {
  if constexpr (!Ar::kLoading) {
    ForgetRetired();
  }
  if (!ar.Section("population")) {
    return;
  }
  gen_.Serialize(ar);
  ar.Bool(has_pending_);
  ar.I64(pending_.when);
  ar.U64(pending_.seq);
  ar.I64(pending_.catalog_index);
  ar.U64(pending_.iterations);
  ar.Bool(pending_.adversarial);
  ar.I64(pending_.tenant);
  ar.I64(scheduled_until_);
  ar.U64(spawned_);
  ar.U64(retired_);
  if constexpr (Ar::kLoading) {
    const std::string board = "checkpoint board " + std::to_string(board_);
    if (ar.ok() && gen_.clock() < now) {
      ar.Fail(board + " population clock " + std::to_string(gen_.clock()) +
              " lies before the shard clock " + std::to_string(now));
    }
    if (ar.ok() && has_pending_ && pending_.when < now) {
      ar.Fail(board + " pending arrival at " + std::to_string(pending_.when) +
              " lies before the shard clock " + std::to_string(now));
    }
    if (ar.ok() && has_pending_) {
      const std::string bad = CheckArrival(pending_);
      if (!bad.empty()) {
        ar.Fail(bad);
      }
    }
    if (ar.ok() && (scheduled_until_ < 0 || scheduled_until_ > now)) {
      ar.Fail(board + " population window end " +
              std::to_string(scheduled_until_) +
              " lies outside [0, shard clock " + std::to_string(now) + "]");
    }
  }
}

template void BoardPopulation::Serialize(SnapshotWriter&, TimeNs);
template void BoardPopulation::Serialize(SnapshotReader&, TimeNs);

}  // namespace psbox
