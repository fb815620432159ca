// Telemetry retention and the restructured virtual-meter sampling path.
//
// The retention contract (Kernel::TrimTelemetry): trimming power telemetry
// behind a horizon folds exact energy bases first, so
//   * psbox energy reads are BIT-IDENTICAL with retention on or off (the
//     fold replays the identical piece-by-piece addition sequence), on the
//     rails and on a §7 component's own trace alike, and no horizon is held
//     back for it;
//   * the steady-state telemetry working set is bounded by the retention
//     window, independent of simulated duration — and so is a churning
//     population's per-board state, once finished apps retire in the trim;
//   * fleet fingerprints are invariant under retention (retirement
//     included) and thread count.
//
// The sampling contract (PsboxManager::Sample): one shared timestamp grid
// per drain — a multi-component box can never return mismatched series or
// exceed the caller's cap, and the grid stays phase-aligned across
// mid-period drains.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/fleet/root_coordinator.h"
#include "src/snapshot/board_snapshot.h"
#include "src/snapshot/snapshot_io.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

constexpr DurationNs kRetention = 50 * kMillisecond;

KernelConfig RetentionConfig(DurationNs retention = kRetention) {
  KernelConfig cfg;
  cfg.telemetry_retention = retention;
  return cfg;
}

// The sandboxed inputs the retention contract is checked on. Each setup
// creates box 0 and enters it.
struct RetentionInput {
  const char* name;
  HwComponent hw;
  void (*setup)(TestStack&);
  // Meter-dropout windows for the board.
  std::vector<FaultWindow> dropouts;
  // When set, the box's meter is reset (psbox ResetEnergy) at this instant.
  TimeNs reset_at = 0;
};

void BusyCpuBox(TestStack& s) {
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
}

// Alone on the GPU nothing ever contends for it, so the app's one balloon
// stays open for the whole run and straddles every trim horizon.
void LoneGpuBalloon(TestStack& s) {
  AppOptions opts;
  opts.use_psbox = true;
  SpawnTriangle(s.kernel, "triangle", opts);
}

const RetentionInput kBusyCpu{"busy CPU box", HwComponent::kCpu, &BusyCpuBox, {}};
const RetentionInput kLoneGpu{"lone GPU balloon", HwComponent::kGpu,
                              &LoneGpuBalloon, {}};
// A dropout inside the open span splits it at the window's edges: a trim
// folds the pieces that end by its horizon and anchors where the rest
// begins, so the window never pins the horizon.
const RetentionInput kLoneGpuDropout{"lone GPU balloon with a dropout",
                                     HwComponent::kGpu,
                                     &LoneGpuBalloon,
                                     {{Millis(100), Millis(120)}}};
// Several dropouts behind the final horizon and one straddling it: the rest
// of the span begins at a measured piece, at a dropout piece and exactly at
// a horizon on some trim along the way.
const RetentionInput kLoneGpuDropouts{"lone GPU balloon with dropouts",
                                      HwComponent::kGpu,
                                      &LoneGpuBalloon,
                                      {{Millis(100), Millis(120)},
                                       {Millis(180), Millis(190)},
                                       {Millis(300), Millis(340)},
                                       {Millis(430), Millis(470)}}};
// A reset re-clamps the open span to the reset instant, which must then be
// anchored afresh once the horizon passes it.
const RetentionInput kLoneGpuReset{"lone GPU balloon, meter reset mid-run",
                                   HwComponent::kGpu,
                                   &LoneGpuBalloon,
                                   {},
                                   Millis(260)};

// A stationary generated population under two tenants, with the parameters
// of the benchmark's churn workload: 12 arrivals/s/board of short-lived apps
// (2-40 iterations), so finished apps keep piling up behind the horizon.
FleetScenario ChurnScenario(int boards, TimeNs horizon, DurationNs retention) {
  FleetScenario scenario;
  scenario.seed = 0xC4u;
  scenario.horizon = horizon;
  scenario.epoch = 10 * kMillisecond;
  scenario.migration.enabled = false;
  scenario.boards.resize(static_cast<size_t>(boards));
  for (FleetBoardSpec& board : scenario.boards) {
    board.kernel.telemetry_retention = retention;
  }
  PopulationConfig& p = scenario.population;
  p.seed = 0xC4C4;
  p.base_rate_hz = 12.0;
  p.diurnal_amplitude = 0.5;
  p.diurnal_period = 400 * kMillisecond;
  p.adversarial_fraction = 0.05;
  p.adversarial_period = 500 * kMillisecond;
  p.adversarial_duty = 0.4;
  p.min_iterations = 2;
  p.max_iterations = 40;
  p.tenants_per_board = 2;
  p.tenant_budget = 0.8;
  p.child_budget = 0.05;
  return scenario;
}

std::unique_ptr<TestStack> MakeStack(const RetentionInput& input,
                                     KernelConfig kernel = {}) {
  BoardConfig board;
  board.faults.meter_dropout = input.dropouts;
  auto s = std::make_unique<TestStack>(board, kernel);
  input.setup(*s);
  return s;
}

// --- exactness: retention on vs off ---------------------------------------

TEST(RetentionTest, EnergyAndSamplesBitIdenticalWithRetention) {
  // Two identical stacks, one with bounded retention. Stepping both through
  // the same schedule of reads and drains must produce bit-identical psbox
  // energy and bit-identical sample streams: trimming folds exact bases,
  // anchors the straddling span and consumes no randomness.
  for (const RetentionInput& input :
       {kBusyCpu, kLoneGpu, kLoneGpuDropout, kLoneGpuDropouts, kLoneGpuReset}) {
    SCOPED_TRACE(input.name);
    auto plain = MakeStack(input);
    auto trimmed = MakeStack(input, RetentionConfig());
    const int box = 0;

    std::vector<PowerSample> buf_plain;
    std::vector<PowerSample> buf_trim;
    for (TimeNs t = Millis(20); t <= Millis(500); t += Millis(20)) {
      plain->kernel.RunUntil(t);
      trimmed->kernel.RunUntil(t);
      EXPECT_EQ(plain->manager.ReadEnergy(box), trimmed->manager.ReadEnergy(box))
          << "at " << t;
      buf_plain.clear();
      buf_trim.clear();
      const size_t n_plain = plain->manager.Sample(box, &buf_plain, 1u << 20);
      const size_t n_trim = trimmed->manager.Sample(box, &buf_trim, 1u << 20);
      ASSERT_EQ(n_plain, n_trim) << "at " << t;
      for (size_t i = 0; i < buf_plain.size(); ++i) {
        ASSERT_EQ(buf_plain[i].timestamp, buf_trim[i].timestamp);
        ASSERT_EQ(buf_plain[i].watts, buf_trim[i].watts);
        ASSERT_EQ(buf_plain[i].estimated, buf_trim[i].estimated);
      }
      if (t == input.reset_at) {
        plain->manager.ResetEnergy(box);
        trimmed->manager.ResetEnergy(box);
      }
    }

    // The trimmed stack really trimmed (this is not a vacuous comparison), at
    // the desired horizon, and holds strictly less history than the
    // unbounded one.
    EXPECT_EQ(trimmed->kernel.last_trim_horizon(), Millis(500) - kRetention);
    const StepTrace& rail_plain = plain->board.RailFor(input.hw).trace();
    const StepTrace& rail_trim = trimmed->board.RailFor(input.hw).trace();
    EXPECT_GT(rail_trim.trimmed_steps(), 0u);
    EXPECT_LT(rail_trim.size(), rail_plain.size());
    if (input.hw == HwComponent::kGpu) {
      // The balloon never closed; its start was anchored before the rail
      // dropped it.
      EXPECT_TRUE(trimmed->manager.OwnedAt(box, input.hw,
                                           trimmed->kernel.Now()));
      EXPECT_TRUE(trimmed->manager.sandbox(box).anchored(input.hw));
    }
    if (!input.dropouts.empty()) {
      EXPECT_GT(trimmed->manager.ReadEnergyDetail(box).estimated_time, 0);
    }
  }
}

TEST(RetentionTest, ManualTrimPreservesEnergyDetailExactly) {
  // Reading energy immediately before and after an explicit trim must agree
  // bit-for-bit on a rail-metered component: TrimOwned folds exactly the
  // spans the untrimmed query would have integrated, in the same order.
  TestStack s;
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(200));

  const Joules before = s.manager.ReadEnergy(box);
  const PowerSandbox::EnergyDetail detail_before = s.manager.ReadEnergyDetail(box);
  const TimeNs horizon = s.kernel.TrimTelemetry(s.kernel.Now() - Millis(50));
  EXPECT_GT(horizon, 0);
  EXPECT_LE(horizon, s.kernel.Now() - Millis(50));
  const PowerSandbox::EnergyDetail detail_after = s.manager.ReadEnergyDetail(box);
  EXPECT_EQ(before, s.manager.ReadEnergy(box));
  EXPECT_EQ(detail_before.measured, detail_after.measured);
  EXPECT_EQ(detail_before.estimated, detail_after.estimated);
  EXPECT_EQ(detail_before.measured_time, detail_after.measured_time);
  EXPECT_EQ(detail_before.estimated_time, detail_after.estimated_time);

  // Trimming again at the same horizon is a no-op for the accounting.
  s.kernel.TrimTelemetry(s.kernel.Now() - Millis(50));
  EXPECT_EQ(before, s.manager.ReadEnergy(box));
}

TEST(RetentionTest, TrimPreservesDropoutEstimationSplit) {
  // A meter-dropout window behind the horizon: its estimated share must ride
  // into the bases and the reported measured/estimated split must not move.
  BoardConfig board;
  board.faults.meter_dropout.push_back({Millis(40), Millis(60)});
  TestStack s(board);
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(200));

  const PowerSandbox::EnergyDetail before = s.manager.ReadEnergyDetail(box);
  ASSERT_GT(before.estimated_time, 0) << "dropout window never sampled";
  s.kernel.TrimTelemetry(Millis(150));  // horizon well past the dropout
  const PowerSandbox::EnergyDetail after = s.manager.ReadEnergyDetail(box);
  EXPECT_EQ(before.measured, after.measured);
  EXPECT_EQ(before.estimated_time, after.estimated_time);
  // The estimated share is recomputed from the aggregated measured average
  // at query time; folding keeps those aggregates identical.
  EXPECT_EQ(before.estimated, after.estimated);
}

TEST(RetentionTest, DisplayReadIsExactUnderRetention) {
  // §7 display energy is the app's own surface trace, owned from time 0: its
  // one open span is anchored like a balloon's, so the read is bit-identical.
  TestStack plain(BoardConfig{}, KernelConfig{});
  TestStack trimmed(BoardConfig{}, RetentionConfig());
  for (TestStack* s : {&plain, &trimmed}) {
    const AppId mine = s->kernel.CreateApp("mine");
    s->kernel.SpawnTask(mine, "t", std::make_unique<BusyBehavior>());
    s->board.display().SetSurface(mine, 0.4, 0.5);
  }
  const int box_plain = plain.manager.CreateBox(0, {HwComponent::kDisplay});
  const int box_trim = trimmed.manager.CreateBox(0, {HwComponent::kDisplay});
  plain.manager.EnterBox(box_plain);
  trimmed.manager.EnterBox(box_trim);
  plain.kernel.RunUntil(Seconds(1));
  trimmed.kernel.RunUntil(Seconds(1));

  const Joules expect = plain.manager.ReadEnergy(box_plain);
  ASSERT_GT(expect, 0.0);
  EXPECT_EQ(trimmed.manager.ReadEnergy(box_trim), expect);
  EXPECT_TRUE(trimmed.manager.sandbox(box_trim).anchored(HwComponent::kDisplay));
}

TEST(RetentionTest, DisplayBoundAppRetiresOnceItsSurfaceIsGone) {
  // The anchor on a box's own §7 trace never holds retirement back: once
  // the app has exited, left its box and removed its surface, the trim
  // frees it.
  TestStack s(BoardConfig{}, RetentionConfig());
  const AppId app = s.kernel.CreateApp("viewer");
  s.kernel.SpawnTask(app, "t",
                     std::make_unique<BusyBehavior>(kMillisecond, 1.0,
                                                    /*deadline=*/Millis(100)));
  s.board.display().SetSurface(app, 0.4, 0.5);
  const int box = s.manager.CreateBox(app, {HwComponent::kDisplay});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(200));
  ASSERT_TRUE(s.manager.sandbox(box).anchored(HwComponent::kDisplay));
  EXPECT_FALSE(s.kernel.AppRetired(app)) << "its surface is still composited";

  s.manager.LeaveBox(box);
  s.board.display().RemoveSurface(app);
  s.kernel.RunUntil(Millis(400));
  EXPECT_TRUE(s.kernel.AppRetired(app));
  EXPECT_EQ(s.manager.box_count(), 0u);
}

// --- bounded memory --------------------------------------------------------

TEST(RetentionTest, SteadyStateWorkingSetIndependentOfDuration) {
  // Under retention, the retained telemetry (rail steps, ownership
  // intervals, timeline edges, ledger records) covers a bounded window, so
  // running 4x longer must not grow the working set materially — also while
  // one balloon stays open for the whole run.
  for (const RetentionInput& input : {kBusyCpu, kLoneGpu}) {
    SCOPED_TRACE(input.name);
    auto run = [&input](TimeNs until) {
      auto s = MakeStack(input, RetentionConfig());
      s->kernel.RunUntil(until);
      return s;
    };
    auto short_run = run(Seconds(1));
    auto long_run = run(Seconds(4));

    // The applied horizon trails now by the retention window plus at most
    // one trim period; an open balloon does not hold it back.
    EXPECT_GE(long_run->kernel.last_trim_horizon(), Seconds(4) - 2 * kRetention);

    const StepTrace& rail_short = short_run->board.RailFor(input.hw).trace();
    const StepTrace& rail_long = long_run->board.RailFor(input.hw).trace();
    EXPECT_GT(rail_long.trimmed_steps(), 0u);
    // Generous 2x slack over the steady state; without trimming the 4 s run
    // holds ~4x the steps of the 1 s run.
    EXPECT_LE(rail_long.size(), 2 * rail_short.size());

    const IntervalSet& owned_short = short_run->manager.sandbox(0).owned(input.hw);
    const IntervalSet& owned_long = long_run->manager.sandbox(0).owned(input.hw);
    EXPECT_LE(owned_long.size(), 2 * owned_short.size());
    if (input.hw == HwComponent::kCpu) {
      EXPECT_GT(owned_long.trimmed_intervals(), 0u);
    }

    EXPECT_LE(long_run->kernel.ledger().records(input.hw).size(),
              2 * short_run->kernel.ledger().records(input.hw).size() + 8);
  }

  // A churning population: finished apps retire in the trim, so the board's
  // state (the checkpoint carries every per-app structure of every layer)
  // follows the apps alive now, not every app ever spawned.
  SCOPED_TRACE("churning population");
  struct Cut {
    size_t bytes = 0;
    size_t boxes = 0;
    uint64_t retired = 0;
  };
  auto run = [](TimeNs until) {
    RootCoordinator fleet(ChurnScenario(1, until, Millis(200)), 1);
    (void)fleet.Run();
    Kernel& kernel = fleet.kernel(0);
    SnapshotWriter w;
    std::string error;
    EXPECT_TRUE(SaveBoardShard(kernel.board(), kernel, fleet.manager(0), &w,
                               &error))
        << error;
    return Cut{w.Seal().size(), fleet.manager(0).box_count(),
               kernel.retired_apps()};
  };
  const Cut short_cut = run(Seconds(8));
  const Cut long_cut = run(Seconds(64));
  EXPECT_GT(long_cut.retired, 500u);
  EXPECT_LE(static_cast<double>(long_cut.bytes),
            1.5 * static_cast<double>(short_cut.bytes));
  EXPECT_LE(long_cut.boxes, 2 * short_cut.boxes + 8);
}

TEST(RetentionTest, UndrainedSampleBacklogDropsLikeRingBuffer) {
  // A reader that stops draining for longer than the retention window loses
  // the oldest samples (counted in samples_lost) but keeps the grid phase:
  // every sample it eventually gets still lands on the original DAQ grid.
  TestStack s(BoardConfig{}, RetentionConfig());
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(400));  // >> retention, never drained

  const PowerSandbox& sb = s.manager.sandbox(box);
  EXPECT_GT(sb.samples_lost(), 0u);
  EXPECT_GE(sb.sample_cursor(), s.kernel.last_trim_horizon());

  const DurationNs period = s.board.config().meter.sample_period;
  std::vector<PowerSample> buf;
  ASSERT_GT(s.manager.Sample(box, &buf, 1u << 20), 0u);
  for (const PowerSample& sample : buf) {
    EXPECT_EQ(sample.timestamp % period, 0) << "off the DAQ grid";
    EXPECT_GE(sample.timestamp, s.kernel.last_trim_horizon());
  }
}

// --- the single-grid sampling path -----------------------------------------

TEST(SampleMergeTest, MultiComponentBoxSharesOneGrid) {
  // Regression: the per-component merge used to assemble separate vectors
  // and silently truncate to the shortest on length mismatch. One shared
  // grid cannot mismatch: a CPU+GPU box returns exactly one series on the
  // DAQ grid with strictly increasing timestamps.
  TestStack s;
  s.SpawnBusy("busy");
  const int box =
      s.manager.CreateBox(0, {HwComponent::kCpu, HwComponent::kGpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(20));

  const DurationNs period = s.board.config().meter.sample_period;
  std::vector<PowerSample> buf;
  const size_t n = s.manager.Sample(box, &buf, 1u << 20);
  ASSERT_GT(n, 0u);
  EXPECT_EQ(buf.size(), n);
  for (size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i].timestamp, static_cast<TimeNs>(i) * period);
    // Both rails contribute: the merged reading is at least the two idle
    // draws minus noise floor — just check it is a sane positive merge.
    EXPECT_GT(buf[i].watts, 0.0);
  }
}

TEST(SampleMergeTest, CapIsExactOnMidPeriodDrains) {
  // Regression: the drain loop used to emit floor(span/period)+1 samples,
  // overshooting the caller's cap by one on mid-period drains.
  TestStack s;
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  const DurationNs period = s.board.config().meter.sample_period;
  s.kernel.RunUntil(Millis(10) + period / 2);  // not on the grid

  std::vector<PowerSample> buf;
  EXPECT_EQ(s.manager.Sample(box, &buf, 50), 50u);
  EXPECT_EQ(buf.size(), 50u);
  // The rest of the backlog drains on the same grid, phase preserved.
  buf.clear();
  const size_t rest = s.manager.Sample(box, &buf, 1u << 20);
  ASSERT_GT(rest, 0u);
  EXPECT_EQ(buf.front().timestamp, static_cast<TimeNs>(50) * period);
  for (const PowerSample& sample : buf) {
    EXPECT_EQ(sample.timestamp % period, 0);
  }
  // Fully drained: the cursor sits at the first grid point past now, so an
  // immediate re-drain returns nothing.
  buf.clear();
  EXPECT_EQ(s.manager.Sample(box, &buf, 1u << 20), 0u);
}

TEST(SampleMergeTest, DropoutSamplesAreIdleAndEstimated) {
  // Samples inside a meter-dropout window report exactly the rail's idle
  // draw (no noise draw is consumed) and carry the estimated tag.
  BoardConfig board;
  board.faults.meter_dropout.push_back({Millis(5), Millis(10)});
  TestStack s(board);
  s.SpawnBusy("busy");
  const int box = s.manager.CreateBox(0, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(15));

  const Watts idle = s.board.RailFor(HwComponent::kCpu).idle_power();
  std::vector<PowerSample> buf;
  ASSERT_GT(s.manager.Sample(box, &buf, 1u << 20), 0u);
  size_t dropped = 0;
  for (const PowerSample& sample : buf) {
    if (sample.timestamp >= Millis(5) && sample.timestamp < Millis(10)) {
      EXPECT_TRUE(sample.estimated);
      EXPECT_EQ(sample.watts, idle);
      ++dropped;
    } else {
      EXPECT_FALSE(sample.estimated);
    }
  }
  EXPECT_GT(dropped, 0u);
}

// --- fleet invariance -------------------------------------------------------

FleetScenario RetentionScenario(uint64_t seed, DurationNs retention) {
  // CPU/GPU/WiFi apps only: rail-metered paths are bit-exact under
  // retention, so the fingerprint must not move at all.
  FleetScenario scenario;
  scenario.seed = seed;
  scenario.horizon = Seconds(1);
  scenario.epoch = 10 * kMillisecond;
  scenario.boards.resize(3);
  for (FleetBoardSpec& board : scenario.boards) {
    board.kernel.telemetry_retention = retention;
  }

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

// The fleet inputs the invariance is checked on: the fixed cast above, and
// a churning population long enough that hundreds of apps retire.
struct FleetInput {
  const char* name;
  FleetScenario (*scenario)(DurationNs retention);
};
const FleetInput kFleetInputs[] = {
    {"fixed cast",
     [](DurationNs retention) { return RetentionScenario(0xF1EE7, retention); }},
    {"churning population",
     [](DurationNs retention) {
       return ChurnScenario(4, Seconds(10), retention);
     }},
};

uint64_t RunFingerprint(const FleetScenario& scenario, int threads) {
  RootCoordinator fleet(scenario, threads);
  return fleet.Run().Fingerprint();
}

TEST(FleetRetentionTest, FingerprintInvariantUnderRetentionAndThreads) {
  for (const FleetInput& input : kFleetInputs) {
    SCOPED_TRACE(input.name);
    const uint64_t unbounded = RunFingerprint(input.scenario(0), 2);
    const FleetScenario bounded = input.scenario(kRetention);
    EXPECT_EQ(unbounded, RunFingerprint(bounded, 1));
    EXPECT_EQ(unbounded, RunFingerprint(bounded, 2));
    EXPECT_EQ(unbounded, RunFingerprint(bounded, 4));
  }
}

TEST(FleetRetentionTest, BoundedShardsActuallyTrim) {
  // Guard against vacuity: the invariance test must cover real trimming,
  // and on the population input real retirement.
  for (const FleetInput& input : kFleetInputs) {
    SCOPED_TRACE(input.name);
    RootCoordinator fleet(input.scenario(kRetention), 2);
    (void)fleet.Run();
    bool any_trimmed = false;
    uint64_t retired = 0;
    for (int i = 0; i < fleet.board_count(); ++i) {
      any_trimmed |= fleet.kernel(i).last_trim_horizon() > 0;
      retired += fleet.kernel(i).retired_apps();
    }
    EXPECT_TRUE(any_trimmed);
    if (fleet.population(0) != nullptr) {
      EXPECT_GE(retired, 200u);
    }
  }
}

}  // namespace
}  // namespace psbox
