#include "src/popgen/board_population.h"

#include <algorithm>
#include <string>

#include "src/base/check.h"
#include "src/popgen/app_catalog.h"

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
    : cfg_(cfg), board_(board_index), kernel_(kernel), manager_(manager),
      gen_(cfg, stream_seed) {
  PSBOX_CHECK(kernel_ != nullptr);
  PSBOX_CHECK(manager_ != nullptr);
}

void BoardPopulation::CreateTenants(bool restoring) {
  PSBOX_CHECK(tenant_boxes_.empty());
  for (int i = 0; i < cfg_.tenants_per_board; ++i) {
    const std::string name =
        "tenant" + std::to_string(i) + "@b" + std::to_string(board_);
    const AppId app = kernel_->CreateApp(name);
    if (restoring) {
      // The manager replays its sandboxes from the snapshot; tenant boxes
      // were created first on this board, so their ids are 0..tenants-1.
      tenant_boxes_.push_back(i);
      continue;
    }
    PSBOX_CHECK_EQ(manager_->box_count(), static_cast<size_t>(i));
    const int box = manager_->CreateBox(app, TenantComponents());
    manager_->sandbox(box).set_budget(cfg_.tenant_budget);
    tenant_boxes_.push_back(box);
  }
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

void BoardPopulation::ScheduleWindow(TimeNs until) {
  PSBOX_CHECK_GE(until, scheduled_until_);
  const size_t before = spawned_apps_.size();
  std::erase_if(spawned_apps_,
                [this](AppId app) { return kernel_->AppRetired(app); });
  retired_ += before - spawned_apps_.size();
  GeneratedArrival a;
  while (PopArrivalUpTo(until, &a)) {
    kernel_->sim().ScheduleAt(a.when, [this, a] { SpawnArrival(a); });
  }
  scheduled_until_ = until;
}

void BoardPopulation::ReplayArrivalsThrough(TimeNs until) {
  GeneratedArrival a;
  while (PopArrivalUpTo(until, &a)) {
    SpawnArrival(a);
  }
  scheduled_until_ = std::max(scheduled_until_, until);
}

void BoardPopulation::SpawnArrival(const GeneratedArrival& a) {
  const CatalogEntry& entry =
      AppCatalog()[static_cast<size_t>(a.catalog_index)];
  AppOptions opts;
  opts.iterations = a.iterations;
  opts.use_psbox = true;
  if (a.tenant >= 0) {
    opts.psbox_parent = tenant_boxes_[static_cast<size_t>(a.tenant)];
    opts.psbox_budget = cfg_.child_budget;
  }
  const std::string label = std::string(a.adversarial ? "adv" : "pop") +
                            std::to_string(a.seq) + ":" + entry.name + "@b" +
                            std::to_string(board_);
  const AppHandle handle = entry.factory(*kernel_, label, opts);
  spawned_apps_.push_back(handle.app);
  ++spawned_;
}

uint64_t BoardPopulation::CompletedCount() const {
  uint64_t done = retired_;
  for (const AppId app : spawned_apps_) {
    if (kernel_->AppFinished(app)) {
      ++done;
    }
  }
  return done;
}

size_t BoardPopulation::AccountingViolations(double bound) const {
  return manager_->AccountingViolations(bound);
}

}  // namespace psbox
