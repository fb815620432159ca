// The fleet subsystem's two contracts:
//
//   determinism — a FleetScenario is a pure function of (seed, board specs,
//     app placement): the aggregated FleetStats fingerprint is bit-identical
//     at any thread count, because shards are isolated deterministic
//     islands and all cross-shard work happens single-threaded at epoch
//     barriers in fixed board/app order;
//
//   budget conservation — migrating an app moves its billing, it never
//     creates or destroys energy: source billing + target billing matches
//     what a single board would have billed for the same work, within the
//     existing virtual-meter accounting bound.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/root_coordinator.h"

namespace psbox {
namespace {

// A small but non-trivial fleet: three boards, budgeted sandboxed apps on
// each component class plus plain co-runners, budgets tight enough that
// migrations actually fire.
FleetScenario MixedScenario(uint64_t seed) {
  FleetScenario scenario;
  scenario.seed = seed;
  scenario.horizon = Seconds(1);
  scenario.epoch = 10 * kMillisecond;
  scenario.boards.resize(3);

  struct Mix {
    const char* name;
    AppFactory factory;
    int board;
    bool sandboxed;
    Joules budget;
  };
  const Mix mix[] = {
      {"calib3d", &SpawnCalib3d, 0, true, 1.0},
      {"triangle", &SpawnTriangle, 0, true, 0.7},
      {"bodytrack", &SpawnBodytrack, 1, false, 0.0},
      {"scp", &SpawnScp, 1, true, 0.5},
      {"mediascan", &SpawnMediaScan, 2, true, 0.4},
      {"dedup", &SpawnDedup, 2, false, 0.0},
  };
  for (const Mix& m : mix) {
    FleetAppSpec spec;
    spec.name = m.name;
    spec.factory = m.factory;
    spec.board = m.board;
    spec.options.deadline = scenario.horizon;
    spec.options.use_psbox = m.sandboxed;
    spec.energy_budget = m.budget;
    spec.migratable = m.sandboxed;
    scenario.apps.push_back(spec);
  }
  return scenario;
}

uint64_t RunFingerprint(const FleetScenario& scenario, int threads) {
  RootCoordinator fleet(scenario, threads);
  return fleet.Run().Fingerprint();
}

TEST(FleetDeterminismTest, FingerprintIdenticalAcrossThreadCounts) {
  const FleetScenario scenario = MixedScenario(0xF1EE7);
  const uint64_t one = RunFingerprint(scenario, 1);
  const uint64_t two = RunFingerprint(scenario, 2);
  const uint64_t four = RunFingerprint(scenario, 4);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

TEST(FleetDeterminismTest, RepeatedRunsIdentical) {
  const FleetScenario scenario = MixedScenario(0xF1EE7);
  EXPECT_EQ(RunFingerprint(scenario, 2), RunFingerprint(scenario, 2));
}

TEST(FleetDeterminismTest, SeedChangesResults) {
  EXPECT_NE(RunFingerprint(MixedScenario(0xF1EE7), 2),
            RunFingerprint(MixedScenario(0xBEEF), 2));
}

TEST(FleetDeterminismTest, EventsFiredIdenticalAcrossThreadCounts) {
  // events_fired is observability-only (excluded from the fingerprint), so
  // its determinism is pinned directly: per-board engine event counts must
  // not depend on the thread count, and a busy board fires a
  // non-trivial number of events.
  const FleetScenario scenario = MixedScenario(0xF1EE7);
  const FleetStats one = RootCoordinator(scenario, 1).Run();
  const FleetStats four = RootCoordinator(scenario, 4).Run();
  ASSERT_EQ(one.boards.size(), four.boards.size());
  for (size_t i = 0; i < one.boards.size(); ++i) {
    EXPECT_EQ(one.boards[i].events_fired, four.boards[i].events_fired)
        << "board " << i;
    EXPECT_GT(one.boards[i].events_fired, 1000u) << "board " << i;
  }
}

TEST(FleetDeterminismTest, MigrationsActuallyHappenInTheMixedScenario) {
  // Guards the determinism tests against vacuity: the fingerprints above
  // must cover real cross-board activity, not three idle islands.
  RootCoordinator fleet(MixedScenario(0xF1EE7), 2);
  const FleetStats stats = fleet.Run();
  EXPECT_FALSE(stats.migrations.empty());
  uint64_t balloons = 0;
  for (const FleetBoardStats& b : stats.boards) {
    balloons += b.balloons;
  }
  EXPECT_GT(balloons, 0u);
}

// One app, fixed iteration count, alone in the fleet. Run it (a) on a single
// board with no migration, (b) across two boards with a budget watermark
// that forces one mid-run migration. Total billed energy and completed
// iterations must match within the established accounting bound.
TEST(FleetMigrationTest, BudgetConservedAcrossMigration) {
  constexpr uint64_t kIterations = 120;

  FleetScenario single;
  single.seed = 0x5eed;
  single.horizon = Seconds(4);
  single.epoch = 10 * kMillisecond;
  single.boards.resize(1);
  FleetAppSpec app;
  app.name = "calib3d";
  app.factory = &SpawnCalib3d;
  app.board = 0;
  app.options.iterations = kIterations;
  app.options.use_psbox = true;
  app.energy_budget = 0.0;  // never migrates
  app.migratable = false;
  single.apps.push_back(app);

  FleetScenario split = single;
  split.boards.resize(2);
  // Tight budget: the pressure watermark trips mid-run and the remainder of
  // the work is respawned on board 1 with the leftover budget.
  split.apps[0].energy_budget = 0.8;
  split.apps[0].migratable = true;
  split.migration.pressure_fraction = 0.5;

  RootCoordinator single_fleet(single, 1);
  const FleetStats single_stats = single_fleet.Run();
  RootCoordinator split_fleet(split, 2);
  const FleetStats split_stats = split_fleet.Run();

  ASSERT_EQ(single_stats.apps.size(), 1u);
  ASSERT_EQ(split_stats.apps.size(), 1u);
  const FleetAppOutcome& alone = single_stats.apps[0];
  const FleetAppOutcome& moved = split_stats.apps[0];

  // The migration really happened and the app still completed all its work.
  ASSERT_EQ(split_stats.migrations.size(), 1u);
  EXPECT_FALSE(split_stats.migrations[0].crash);
  EXPECT_EQ(split_stats.migrations[0].from, 0);
  EXPECT_EQ(split_stats.migrations[0].to, 1);
  EXPECT_EQ(moved.hops, 1);
  EXPECT_TRUE(alone.finished);
  EXPECT_TRUE(moved.finished);
  EXPECT_EQ(alone.iterations, kIterations);
  EXPECT_EQ(moved.iterations, kIterations);

  // Budget conservation: source billing + target billing == single-board
  // billing for the same work, within the virtual-meter accounting bound
  // (same 10% accounting_test pins for co-run vs alone readings).
  ASSERT_GT(alone.billed_energy, 0.0);
  ASSERT_GT(moved.billed_energy, 0.0);
  EXPECT_NEAR(moved.billed_energy / alone.billed_energy, 1.0, 0.10);

  // The hand-off carried exactly the unspent budget: consumed + carried ==
  // original budget (exact, it's the coordinator's own arithmetic).
  const MigrationRecord& m = split_stats.migrations[0];
  EXPECT_NEAR(m.consumed_source + m.budget_carried, 0.8, 1e-9);
  // And the source-side billing in the app outcome includes that hop.
  EXPECT_GE(moved.billed_energy + 1e-9, m.consumed_source);
}

// A board that loses power mid-run freezes there; its migratable sandboxed
// app is evacuated at the next barrier and finishes elsewhere.
TEST(FleetMigrationTest, BoardFailureEvacuatesApps) {
  FleetScenario scenario;
  scenario.seed = 0x5eed;
  scenario.horizon = Seconds(2);
  scenario.epoch = 10 * kMillisecond;
  scenario.boards.resize(2);
  scenario.boards[0].fail_at = Millis(300);

  FleetAppSpec app;
  app.name = "calib3d";
  app.factory = &SpawnCalib3d;
  app.board = 0;
  app.options.deadline = scenario.horizon;
  app.options.use_psbox = true;
  app.migratable = true;
  scenario.apps.push_back(app);

  FleetAppSpec doomed = app;
  doomed.name = "bodytrack";
  doomed.factory = &SpawnBodytrack;
  doomed.options.use_psbox = false;
  doomed.migratable = false;  // rides the board down
  scenario.apps.push_back(doomed);

  RootCoordinator fleet(scenario, 2);
  const FleetStats stats = fleet.Run();

  EXPECT_TRUE(stats.boards[0].failed);
  EXPECT_EQ(stats.boards[0].ran_until, Millis(300));
  EXPECT_FALSE(stats.boards[1].failed);
  EXPECT_EQ(stats.boards[1].ran_until, Seconds(2));

  ASSERT_EQ(stats.migrations.size(), 1u);
  EXPECT_TRUE(stats.migrations[0].crash);
  EXPECT_EQ(stats.migrations[0].when, Millis(300));

  const FleetAppOutcome& evacuated = stats.apps[0];
  EXPECT_EQ(evacuated.hops, 1);
  EXPECT_EQ(evacuated.final_board, 1);
  EXPECT_FALSE(evacuated.lost);
  EXPECT_GT(evacuated.billed_energy, 0.0);  // both hops billed

  const FleetAppOutcome& dead = stats.apps[1];
  EXPECT_TRUE(dead.lost);
  EXPECT_EQ(dead.final_board, 0);
}

// Crash-evacuation billing comparison: the same fixed-iteration app run (a)
// on one board that never fails, (b) across a crash with state-transfer
// evacuation, (c) across the same crash with the drain-style carry, forced
// by tearing every evacuation blob the dying board writes.
// Both evacuation modes must bill within the established 10% accounting
// bound of the single-board run — state transfer changes how the billing
// state travels, never how much energy is billed.
TEST(FleetMigrationTest, CrashEvacuationBillingMatchesSingleBoard) {
  constexpr uint64_t kIterations = 120;
  constexpr Joules kBudget = 100.0;  // generous: no pressure migrations

  FleetScenario single;
  single.seed = 0x5eed;
  single.horizon = Seconds(4);
  single.epoch = 10 * kMillisecond;
  single.boards.resize(1);
  FleetAppSpec app;
  app.name = "calib3d";
  app.factory = &SpawnCalib3d;
  app.board = 0;
  app.options.iterations = kIterations;
  app.options.use_psbox = true;
  app.energy_budget = kBudget;
  app.migratable = true;
  single.apps.push_back(app);

  FleetScenario crashed = single;
  crashed.boards.resize(2);
  crashed.boards[0].fail_at = Millis(300);

  FleetScenario legacy = crashed;
  legacy.boards[0].board.faults.snapshot_corrupt_prob = 1.0;

  const FleetStats single_stats = RootCoordinator(single, 1).Run();
  const FleetStats xfer_stats = RootCoordinator(crashed, 2).Run();
  const FleetStats carry_stats = RootCoordinator(legacy, 2).Run();

  // Both evacuations really happened, in the intended mode.
  ASSERT_EQ(xfer_stats.migrations.size(), 1u);
  EXPECT_TRUE(xfer_stats.migrations[0].crash);
  EXPECT_TRUE(xfer_stats.migrations[0].state_transfer);
  ASSERT_EQ(carry_stats.migrations.size(), 1u);
  EXPECT_TRUE(carry_stats.migrations[0].crash);
  EXPECT_FALSE(carry_stats.migrations[0].state_transfer);

  const FleetAppOutcome& alone = single_stats.apps[0];
  const FleetAppOutcome& xfer = xfer_stats.apps[0];
  const FleetAppOutcome& carry = carry_stats.apps[0];
  EXPECT_TRUE(alone.finished);
  EXPECT_TRUE(xfer.finished);
  EXPECT_TRUE(carry.finished);
  EXPECT_EQ(alone.iterations, kIterations);
  EXPECT_EQ(xfer.iterations, kIterations);
  EXPECT_EQ(carry.iterations, kIterations);

  ASSERT_GT(alone.billed_energy, 0.0);
  EXPECT_NEAR(xfer.billed_energy / alone.billed_energy, 1.0, 0.10);
  EXPECT_NEAR(carry.billed_energy / alone.billed_energy, 1.0, 0.10);
  std::printf(
      "crash-evacuation billing (same work): single-board %.1f mJ, "
      "state-transfer %.1f mJ, drain-carry %.1f mJ\n",
      alone.billed_energy * 1e3, xfer.billed_energy * 1e3,
      carry.billed_energy * 1e3);

  // Budget conservation at the hand-off, both modes: what the source billed
  // plus what the target received is exactly the original budget.
  EXPECT_NEAR(xfer_stats.migrations[0].consumed_source +
                  xfer_stats.migrations[0].budget_carried,
              kBudget, 1e-9);
  EXPECT_NEAR(carry_stats.migrations[0].consumed_source +
                  carry_stats.migrations[0].budget_carried,
              kBudget, 1e-9);
}

// A torn evacuation blob (snapshot_corrupt fault on the dying board) fails
// its CRC validation mid-transfer; the hop must fall back to the drain-style
// carry with the budget ledger still conserved.
TEST(FleetMigrationTest, CorruptedTransferFallsBackToDrainCarry) {
  constexpr Joules kBudget = 100.0;
  FleetScenario scenario;
  scenario.seed = 0x5eed;
  scenario.horizon = Seconds(4);
  scenario.epoch = 10 * kMillisecond;
  scenario.boards.resize(2);
  scenario.boards[0].fail_at = Millis(300);
  scenario.boards[0].board.faults.snapshot_corrupt_prob = 1.0;

  FleetAppSpec app;
  app.name = "calib3d";
  app.factory = &SpawnCalib3d;
  app.board = 0;
  app.options.iterations = 120;
  app.options.use_psbox = true;
  app.energy_budget = kBudget;
  app.migratable = true;
  scenario.apps.push_back(app);

  const FleetStats stats = RootCoordinator(scenario, 2).Run();

  ASSERT_EQ(stats.migrations.size(), 1u);
  const MigrationRecord& m = stats.migrations[0];
  EXPECT_TRUE(m.crash);
  EXPECT_FALSE(m.state_transfer);  // the torn blob forced the fallback
  EXPECT_NEAR(m.consumed_source + m.budget_carried, kBudget, 1e-9);
  EXPECT_TRUE(stats.apps[0].finished);
  EXPECT_EQ(stats.apps[0].iterations, 120u);
  EXPECT_FALSE(stats.apps[0].lost);
}

// A larger fleet exercising the full hierarchy: six boards, budgeted apps on
// every slice, a board failure, a fleet-wide energy budget, and a root
// period > 1 so sub-fleets genuinely run ahead between root barriers.
FleetScenario HierarchicalScenario(uint64_t seed, int subfleets) {
  FleetScenario scenario;
  scenario.seed = seed;
  scenario.horizon = Seconds(1);
  scenario.epoch = 10 * kMillisecond;
  scenario.subfleets = subfleets;
  scenario.root_period = 4;
  scenario.fleet_budget = 30.0;
  scenario.boards.resize(6);
  scenario.boards[4].fail_at = Millis(370);

  struct Mix {
    const char* name;
    AppFactory factory;
    int board;
    bool sandboxed;
    Joules budget;
  };
  const Mix mix[] = {
      {"calib3d", &SpawnCalib3d, 0, true, 1.0},
      {"triangle", &SpawnTriangle, 0, true, 0.7},
      {"bodytrack", &SpawnBodytrack, 1, false, 0.0},
      {"scp", &SpawnScp, 2, true, 0.5},
      {"mediascan", &SpawnMediaScan, 3, true, 0.4},
      {"dedup", &SpawnDedup, 4, false, 0.0},
      {"calib3d2", &SpawnCalib3d, 4, true, 0.9},
      {"triangle2", &SpawnTriangle, 5, true, 0.6},
  };
  for (const Mix& m : mix) {
    FleetAppSpec spec;
    spec.name = m.name;
    spec.factory = m.factory;
    spec.board = m.board;
    spec.options.deadline = scenario.horizon;
    spec.options.use_psbox = m.sandboxed;
    spec.energy_budget = m.budget;
    spec.migratable = m.sandboxed;
    scenario.apps.push_back(spec);
  }
  return scenario;
}

TEST(HierarchicalFleetTest, FingerprintIdenticalAcrossThreadCounts) {
  // The tentpole determinism contract: for each sub-fleet split, the
  // fingerprint is bit-identical at any thread count. (Different
  // splits are different scenarios and may legitimately differ.)
  for (int subfleets : {2, 3}) {
    const FleetScenario scenario = HierarchicalScenario(0xF1EE7, subfleets);
    const uint64_t one = RunFingerprint(scenario, 1);
    const uint64_t two = RunFingerprint(scenario, 2);
    const uint64_t four = RunFingerprint(scenario, 4);
    EXPECT_EQ(one, two) << "subfleets " << subfleets;
    EXPECT_EQ(one, four) << "subfleets " << subfleets;
  }
}

TEST(HierarchicalFleetTest, FingerprintIdenticalAtOddAndExcessThreadCounts) {
  // ... and at thread counts that do not divide the fleet: 3 threads over
  // two sub-fleets, and 8 threads for 6 boards, so some threads find no
  // work in a pass.
  const FleetScenario scenario = HierarchicalScenario(0xF1EE7, 2);
  const uint64_t one = RunFingerprint(scenario, 1);
  EXPECT_EQ(one, RunFingerprint(scenario, 3));
  EXPECT_EQ(one, RunFingerprint(scenario, 8));
}

TEST(HierarchicalFleetTest, HierarchyActuallyExercised) {
  // Vacuity guard for the fingerprints above: the scenario really migrates,
  // really fails a board, and reports per-sub-fleet budget allocations.
  RootCoordinator fleet(HierarchicalScenario(0xF1EE7, 2), 4);
  const FleetStats stats = fleet.Run();
  EXPECT_FALSE(stats.migrations.empty());
  EXPECT_TRUE(stats.boards[4].failed);
  ASSERT_EQ(stats.subfleets.size(), 2u);
  EXPECT_EQ(stats.subfleets[0].first_board, 0);
  EXPECT_EQ(stats.subfleets[0].boards, 3);
  EXPECT_EQ(stats.subfleets[1].first_board, 3);
  EXPECT_EQ(stats.subfleets[1].boards, 3);
  EXPECT_GT(stats.subfleets[0].energy, 0.0);
  EXPECT_GT(stats.subfleets[1].energy, 0.0);
  // The ledger was divided: allocations sum to the fleet budget (the failed
  // board shifts shares, it never destroys budget).
  EXPECT_NEAR(stats.subfleets[0].allocation + stats.subfleets[1].allocation,
              30.0, 1e-9);
}

// In-epoch hand-off: a board failure inside a root period is resolved at the
// owning sub-fleet's own barrier (the failure instant), never deferred to
// the next root boundary.
TEST(HierarchicalFleetTest, FailureHandoffDoesNotWaitForRootBarrier) {
  FleetScenario scenario;
  scenario.seed = 0x5eed;
  scenario.horizon = Seconds(1);
  scenario.epoch = 10 * kMillisecond;
  scenario.subfleets = 2;        // boards {0,1} and {2,3}
  scenario.root_period = 4;      // root barriers at 40 ms multiples
  scenario.boards.resize(4);
  scenario.boards[0].fail_at = Millis(300);  // not a root boundary (300/40)

  FleetAppSpec app;
  app.name = "calib3d";
  app.factory = &SpawnCalib3d;
  app.board = 0;
  app.options.deadline = scenario.horizon;
  app.options.use_psbox = true;
  app.migratable = true;
  scenario.apps.push_back(app);

  const FleetStats stats = RootCoordinator(scenario, 2).Run();
  ASSERT_EQ(stats.migrations.size(), 1u);
  const MigrationRecord& m = stats.migrations[0];
  EXPECT_TRUE(m.crash);
  EXPECT_FALSE(m.cross_subfleet);
  EXPECT_EQ(m.when, Millis(300));  // the sub-fleet barrier, not 320 ms
  EXPECT_EQ(m.from, 0);
  EXPECT_EQ(m.to, 1);  // evacuated inside the sub-fleet
  EXPECT_FALSE(stats.apps[0].lost);
}

// When a whole sub-fleet slice is dead, the evacuation escalates: the app
// parks at the failure barrier and the root places it cross-sub-fleet from
// digests at the next root boundary.
TEST(HierarchicalFleetTest, WholeSliceDeadEscalatesCrossSubfleet) {
  FleetScenario scenario;
  scenario.seed = 0x5eed;
  scenario.horizon = Seconds(1);
  scenario.epoch = 10 * kMillisecond;
  scenario.subfleets = 2;    // boards {0,1} and {2,3}
  scenario.root_period = 4;  // root barriers at 40 ms multiples
  scenario.boards.resize(4);
  scenario.boards[1].fail_at = Millis(260);  // partner dies first
  scenario.boards[0].fail_at = Millis(300);  // then the app's own board

  FleetAppSpec app;
  app.name = "calib3d";
  app.factory = &SpawnCalib3d;
  app.board = 0;
  app.options.deadline = scenario.horizon;
  app.options.use_psbox = true;
  app.migratable = true;
  scenario.apps.push_back(app);

  const FleetStats stats = RootCoordinator(scenario, 4).Run();
  ASSERT_EQ(stats.migrations.size(), 1u);
  const MigrationRecord& m = stats.migrations[0];
  EXPECT_TRUE(m.crash);
  EXPECT_TRUE(m.cross_subfleet);
  EXPECT_EQ(m.when, Millis(320));  // the root boundary after the 300 ms crash
  EXPECT_EQ(m.from, 0);
  EXPECT_GE(m.to, 2);  // landed in the other sub-fleet
  EXPECT_FALSE(stats.apps[0].lost);
  EXPECT_GE(stats.apps[0].final_board, 2);
  ASSERT_EQ(stats.subfleets.size(), 2u);
  EXPECT_EQ(stats.subfleets[0].cross_out, 1);
  EXPECT_EQ(stats.subfleets[1].cross_in, 1);
}

// Fleet-budget rebalance: a sub-fleet whose energy pressure overruns its
// allocation donates an app to the cooler sub-fleet via a root-driven
// cooperative drain.
TEST(HierarchicalFleetTest, FleetBudgetRebalancesAcrossSubfleets) {
  FleetScenario scenario;
  scenario.seed = 0x5eed;
  scenario.horizon = Seconds(2);
  scenario.epoch = 10 * kMillisecond;
  scenario.subfleets = 2;    // boards {0,1} and {2,3}
  scenario.root_period = 4;
  scenario.fleet_budget = 20.0;
  scenario.migration.rebalance_ratio = 1.1;
  scenario.boards.resize(4);

  // All the work lands on sub-fleet 0; sub-fleet 1 idles, so sub-fleet 0's
  // pressure overruns its allocation while the fleet average stays low.
  const struct {
    const char* name;
    AppFactory factory;
    int board;
  } hot[] = {
      {"calib3d", &SpawnCalib3d, 0},
      {"triangle", &SpawnTriangle, 0},
      {"scp", &SpawnScp, 1},
      {"mediascan", &SpawnMediaScan, 1},
  };
  for (const auto& h : hot) {
    FleetAppSpec spec;
    spec.name = h.name;
    spec.factory = h.factory;
    spec.board = h.board;
    spec.options.deadline = scenario.horizon;
    spec.options.use_psbox = true;
    spec.energy_budget = 1000.0;  // never drains on per-app pressure
    spec.migratable = true;
    scenario.apps.push_back(spec);
  }

  const FleetStats stats = RootCoordinator(scenario, 4).Run();
  int rebalances = 0;
  for (const MigrationRecord& m : stats.migrations) {
    if (m.cross_subfleet && !m.crash) {
      ++rebalances;
      EXPECT_LT(m.from, 2);  // out of the hot slice...
      EXPECT_GE(m.to, 2);    // ...into the idle one
    }
  }
  EXPECT_GT(rebalances, 0);
  ASSERT_EQ(stats.subfleets.size(), 2u);
  EXPECT_EQ(stats.subfleets[0].cross_out, rebalances);
  EXPECT_EQ(stats.subfleets[1].cross_in, rebalances);
  // Determinism of the rebalance machinery specifically.
  EXPECT_EQ(RunFingerprint(scenario, 1), RunFingerprint(scenario, 4));
}

// Flat compatibility: subfleets = 1, root_period = 1 must behave exactly
// like the historical flat coordinator — one barrier per epoch, no
// cross-sub-fleet records, one degenerate sub-fleet stats entry.
TEST(HierarchicalFleetTest, DegenerateHierarchyMatchesFlatSemantics) {
  RootCoordinator fleet(MixedScenario(0xF1EE7), 2);
  const FleetStats stats = fleet.Run();
  ASSERT_EQ(stats.subfleets.size(), 1u);
  EXPECT_EQ(stats.subfleets[0].first_board, 0);
  EXPECT_EQ(stats.subfleets[0].boards, 3);
  EXPECT_EQ(stats.subfleets[0].cross_in, 0);
  EXPECT_EQ(stats.subfleets[0].cross_out, 0);
  for (const MigrationRecord& m : stats.migrations) {
    EXPECT_FALSE(m.cross_subfleet);
  }
}

// ParallelFor runs every index exactly once, on at most T threads (the
// caller alone when T = 1), and its return publishes every write the passes
// made: the plain, unsynchronised stores below are read only after it.
TEST(ThreadPoolTest, ParallelForRunsEachIndexOnceOnAtMostTThreads) {
  for (const int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    for (const int n : {0, 1, 5, 200}) {
      std::vector<int> runs(static_cast<size_t>(n), 0);
      std::vector<std::thread::id> ran_on(static_cast<size_t>(n));
      pool.ParallelFor(n, [&runs, &ran_on](int i) {
        ++runs[static_cast<size_t>(i)];
        ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
      });
      const std::set<std::thread::id> distinct(ran_on.begin(), ran_on.end());
      EXPECT_LE(static_cast<int>(distinct.size()), threads) << "n=" << n;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(runs[static_cast<size_t>(i)], 1) << "index " << i;
        if (threads == 1) {
          EXPECT_EQ(ran_on[static_cast<size_t>(i)], std::this_thread::get_id());
        }
      }
    }
  }
}

}  // namespace
}  // namespace psbox
