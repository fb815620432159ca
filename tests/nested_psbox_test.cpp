// Tests for nested (tenant) power sandboxes: the budget-subdivision ledger,
// balloon composition up the hierarchy, the per-level accounting bound under
// child churn, and crash-evacuation neutrality.

#include <gtest/gtest.h>

#include "src/fleet/root_coordinator.h"
#include "src/popgen/board_population.h"
#include "src/workloads/table5_apps.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

const std::vector<HwComponent>& TenantHw() {
  static const std::vector<HwComponent> kHw = {
      HwComponent::kCpu, HwComponent::kGpu, HwComponent::kDsp,
      HwComponent::kWifi, HwComponent::kStorage};
  return kHw;
}

TEST(NestedPsboxTest, BudgetSubdivisionLedger) {
  TestStack s;
  const AppId tenant_app = s.kernel.CreateApp("tenant");
  const int tenant = s.manager.CreateBox(tenant_app, TenantHw());
  s.manager.sandbox(tenant).set_budget(1.0);

  const AppId a = s.kernel.CreateApp("a");
  const AppId b = s.kernel.CreateApp("b");
  const AppId c = s.kernel.CreateApp("c");
  const int box_a =
      s.manager.CreateNestedBox(a, {HwComponent::kCpu}, tenant, 0.4);
  const int box_b =
      s.manager.CreateNestedBox(b, {HwComponent::kCpu}, tenant, 0.4);
  EXPECT_DOUBLE_EQ(s.manager.sandbox(box_a).budget(), 0.4);
  EXPECT_DOUBLE_EQ(s.manager.sandbox(box_b).budget(), 0.4);
  EXPECT_DOUBLE_EQ(s.manager.sandbox(tenant).children_budget(), 0.8);

  // The third claim exceeds what remains: graceful clamp, never refusal.
  const int box_c =
      s.manager.CreateNestedBox(c, {HwComponent::kCpu}, tenant, 0.4);
  EXPECT_NEAR(s.manager.sandbox(box_c).budget(), 0.2, 1e-12);
  EXPECT_NEAR(s.manager.sandbox(tenant).children_budget(), 1.0, 1e-12);

  // sum(live children budgets) <= tenant budget — the invariant under churn.
  EXPECT_LE(s.manager.sandbox(tenant).children_budget(),
            s.manager.sandbox(tenant).budget() + 1e-12);

  // Leaving returns the slice; re-entering re-claims what is now available.
  s.manager.EnterBox(box_a);
  s.manager.LeaveBox(box_a);
  EXPECT_FALSE(s.manager.sandbox(box_a).budget_claimed());
  EXPECT_NEAR(s.manager.sandbox(tenant).children_budget(), 0.6, 1e-12);
  s.manager.EnterBox(box_a);
  EXPECT_TRUE(s.manager.sandbox(box_a).budget_claimed());
  EXPECT_NEAR(s.manager.sandbox(box_a).budget(), 0.4, 1e-12);
  EXPECT_NEAR(s.manager.sandbox(tenant).children_budget(), 1.0, 1e-12);
  // box_a's round trip left its sibling's slice alone.
  EXPECT_DOUBLE_EQ(s.manager.sandbox(box_b).budget(), 0.4);
}

TEST(NestedPsboxTest, UnbudgetedTenantGrantsUnconstrained) {
  TestStack s;
  const AppId tenant_app = s.kernel.CreateApp("tenant");
  const int tenant = s.manager.CreateBox(tenant_app, TenantHw());
  // budget 0 = unbudgeted: every child keeps its requested slice.
  for (int i = 0; i < 4; ++i) {
    const AppId app = s.kernel.CreateApp("child" + std::to_string(i));
    const int box =
        s.manager.CreateNestedBox(app, {HwComponent::kCpu}, tenant, 2.0);
    EXPECT_DOUBLE_EQ(s.manager.sandbox(box).budget(), 2.0);
  }
  EXPECT_DOUBLE_EQ(s.manager.sandbox(tenant).children_budget(), 8.0);
}

// A child's served balloons must bill the child's own virtual meter AND the
// enclosing tenant's — and the per-level bound must hold once it ran.
TEST(NestedPsboxTest, ChildBalloonsBillAncestors) {
  TestStack s;
  const AppId tenant_app = s.kernel.CreateApp("tenant");
  const int tenant = s.manager.CreateBox(tenant_app, TenantHw());
  s.manager.sandbox(tenant).set_budget(1.0);

  AppOptions opts;
  opts.iterations = 10;
  opts.use_psbox = true;
  opts.psbox_parent = tenant;
  opts.psbox_budget = 0.05;
  AppHandle app = SpawnCalib3d(s.kernel, "nested", opts);
  while (!s.kernel.AppFinished(app.app) && s.kernel.Now() < Seconds(10)) {
    s.kernel.RunUntil(s.kernel.Now() + Millis(50));
  }
  ASSERT_TRUE(s.kernel.AppFinished(app.app));

  // Box 1 is the child (tenant was box 0 and created first).
  ASSERT_EQ(s.manager.box_count(), 2u);
  const Joules child = s.manager.ReadEnergy(1);
  const Joules composed = s.manager.ReadEnergy(tenant);
  EXPECT_GT(child, 0.0);
  EXPECT_GT(composed, 0.0);
  // The tenant's composed meter covers the child's balloons; the child may
  // only exceed it by the protocol slack (<= 10 %, per level).
  EXPECT_LE(child, composed * 1.10 + 1e-9);
  EXPECT_EQ(s.manager.AccountingViolations(0.10), 0u);
}

// The tenant bound keeps holding while children churn: short-lived nested
// apps arrive, run and exit back-to-back, and the audit stays clean at every
// step along the way.
TEST(NestedPsboxTest, TenantBoundHoldsUnderChurn) {
  TestStack s;
  const AppId tenant_app = s.kernel.CreateApp("tenant");
  const int tenant = s.manager.CreateBox(tenant_app, TenantHw());
  s.manager.sandbox(tenant).set_budget(0.8);

  for (int round = 0; round < 5; ++round) {
    AppOptions opts;
    opts.iterations = 4;
    opts.use_psbox = true;
    opts.psbox_parent = tenant;
    opts.psbox_budget = 0.05;
    AppHandle app = (round % 2 == 0 ? SpawnCalib3d : SpawnBodytrack)(
        s.kernel, "churn" + std::to_string(round), opts);
    while (!s.kernel.AppFinished(app.app) && s.kernel.Now() < Seconds(30)) {
      s.kernel.RunUntil(s.kernel.Now() + Millis(50));
      EXPECT_EQ(s.manager.AccountingViolations(0.10), 0u)
          << "round " << round << " at " << s.kernel.Now();
    }
    ASSERT_TRUE(s.kernel.AppFinished(app.app));
  }
  EXPECT_GT(s.manager.ReadEnergy(tenant), 0.0);
  EXPECT_EQ(s.manager.AccountingViolations(0.10), 0u);
}

// Crash evacuation must be accounting-neutral: a child that arrives with
// banked energy from a failed board reads high on its own meter, but the
// audit compares only what composed on THIS board — the transferred base is
// excluded on both sides, so the tenant bound still holds.
TEST(NestedPsboxTest, EvacuatedChildDoesNotBreakTenantBound) {
  TestStack s;
  const AppId tenant_app = s.kernel.CreateApp("tenant");
  const int tenant = s.manager.CreateBox(tenant_app, TenantHw());
  s.manager.sandbox(tenant).set_budget(1.0);

  // The evacuated app's billed history lands before its box exists here.
  const AppId app = s.kernel.CreateApp("evacuee");
  s.manager.StageTransferredEnergy(app, 5.0);
  const int box =
      s.manager.CreateNestedBox(app, {HwComponent::kCpu}, tenant, 0.1);
  // The meter resumes from the transferred value...
  EXPECT_GE(s.manager.ReadEnergy(box), 5.0);
  // ...while the fresh tenant's composed meter is still ~zero. Without the
  // exclusion this would read as a gross violation.
  EXPECT_LT(s.manager.ReadEnergy(tenant), 1.0);
  EXPECT_EQ(s.manager.AccountingViolations(0.10), 0u);
}

// Fleet-level: a board fails mid-run while its generated population is
// mid-balloon; the children are evacuated by state transfer and the
// surviving boards' tenant audits stay clean. The whole scenario — failure
// included — must remain bit-identical across worker-thread counts.
TEST(NestedPsboxTest, PopulationCrashEvacuationKeepsBoundAndDeterminism) {
  auto scenario = [] {
    FleetScenario sc;
    sc.seed = 0xFA11;
    sc.horizon = Millis(400);
    sc.epoch = 10 * kMillisecond;
    sc.subfleets = 2;
    sc.root_period = 2;
    sc.migration.enabled = true;
    sc.boards.resize(4);
    sc.boards[1].fail_at = Millis(200);  // mid-population, mid-balloon
    sc.population.seed = 0x90D5;
    sc.population.base_rate_hz = 60.0;
    sc.population.tenants_per_board = 2;
    sc.population.tenant_budget = 0.5;
    sc.population.child_budget = 0.05;
    return sc;
  };
  RootCoordinator a(scenario(), 1);
  const FleetStats stats = a.Run();
  RootCoordinator b(scenario(), 3);
  EXPECT_EQ(stats.Fingerprint(), b.Run().Fingerprint());

  ASSERT_EQ(stats.boards.size(), 4u);
  EXPECT_TRUE(stats.boards[1].failed);
  uint64_t spawned = 0;
  for (int i = 0; i < 4; ++i) {
    spawned += stats.boards[static_cast<size_t>(i)].popgen_spawned;
    if (i == 1) {
      continue;  // the failed board's audit is moot
    }
    BoardPopulation* pop = a.population(i);
    ASSERT_NE(pop, nullptr);
    EXPECT_EQ(pop->AccountingViolations(0.10), 0u) << "board " << i;
  }
  EXPECT_GT(spawned, 0u);
}

}  // namespace
}  // namespace psbox
