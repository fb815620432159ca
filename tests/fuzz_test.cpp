// Randomized scenario sweeps ("fuzz"): spawn a random mix of apps across all
// components with random psbox usage and check global invariants. Each seed
// is a deterministic scenario; failures reproduce exactly.

#include <gtest/gtest.h>

#include "src/workloads/table5_apps.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

using Factory = AppHandle (*)(Kernel&, const std::string&, AppOptions);

constexpr Factory kFactories[] = {
    &SpawnCalib3d, &SpawnBodytrack, &SpawnDedup,   &SpawnGpuBrowser,
    &SpawnMagic,   &SpawnCube,      &SpawnTriangle, &SpawnSgemm,
    &SpawnDgemm,   &SpawnMonte,     &SpawnWifiBrowser, &SpawnScp,
    &SpawnWget,
};

class FuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSweep, RandomScenarioUpholdsInvariants) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  BoardConfig board_cfg;
  board_cfg.seed = seed;
  TestStack s(board_cfg);

  const int num_apps = static_cast<int>(rng.UniformInt(2, 6));
  std::vector<AppHandle> handles;
  std::vector<bool> sandboxed;
  for (int i = 0; i < num_apps; ++i) {
    const auto which = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(std::size(kFactories)) - 1));
    AppOptions opts;
    opts.deadline = Seconds(1);
    opts.use_psbox = rng.Bernoulli(0.4);
    opts.threads = rng.Bernoulli(0.2) ? 2 : 1;
    opts.jitter = rng.Uniform(0.0, 0.15);
    handles.push_back(kFactories[which](s.kernel, "app" + std::to_string(i), opts));
    sandboxed.push_back(opts.use_psbox);
  }
  s.kernel.RunUntil(Seconds(1) + Millis(100));

  // Invariant 1: the simulation made progress and every app ran.
  for (const AppHandle& h : handles) {
    EXPECT_GE(h.stats->start_time, 0) << "seed " << seed;
  }

  // Invariant 2: every rail's power stayed non-negative and its energy is
  // consistent with its trace integral.
  for (HwComponent hw : {HwComponent::kCpu, HwComponent::kGpu, HwComponent::kDsp,
                         HwComponent::kWifi}) {
    const PowerRail& rail = s.board.RailFor(hw);
    for (const auto& step : rail.trace().steps()) {
      EXPECT_GE(step.value, 0.0) << "seed " << seed;
    }
    EXPECT_GE(rail.EnergyOver(0, Seconds(1)), 0.0);
  }

  // Invariant 3: sandboxes have well-formed, pairwise-disjoint ownership on
  // each component, and non-negative observed energy.
  for (size_t i = 0; i < s.manager.box_count(); ++i) {
    const PowerSandbox& sb = s.manager.sandbox(static_cast<int>(i));
    for (HwComponent hw : sb.hardware()) {
      TimeNs prev_end = -1;
      for (const auto& iv : sb.owned(hw).intervals()) {
        EXPECT_LT(iv.begin, iv.end) << "seed " << seed;
        EXPECT_GE(iv.begin, prev_end) << "seed " << seed;
        prev_end = iv.end;
      }
      EXPECT_GE(s.manager.ReadEnergyFor(static_cast<int>(i), hw), 0.0)
          << "seed " << seed;
    }
  }
  for (size_t i = 0; i < s.manager.box_count(); ++i) {
    for (size_t j = i + 1; j < s.manager.box_count(); ++j) {
      const auto a = static_cast<int>(i);
      const auto b = static_cast<int>(j);
      for (HwComponent hw : s.manager.sandbox(a).hardware()) {
        if (!s.manager.sandbox(b).BoundTo(hw)) {
          continue;
        }
        for (TimeNs t = 0; t < Seconds(1); t += Millis(7)) {
          EXPECT_FALSE(s.manager.OwnedAt(a, hw, t) &&
                       s.manager.OwnedAt(b, hw, t))
              << "seed " << seed << " hw " << HwComponentName(hw) << " t " << t;
        }
      }
    }
  }

  // Invariant 4: scheduler bookkeeping is sane.
  const auto& st = s.kernel.scheduler().stats();
  const auto& dom = s.kernel.scheduler().domain_stats();
  EXPECT_GE(st.shootdown_ipis, dom.balloons > 0 ? 1u : 0u);
  EXPECT_LE(dom.total_balloon_time, 2 * Seconds(1));  // <= cores * wall time

  // Invariant 5: the run is reproducible.
  // (Checked cheaply: rail energy fingerprint vs a second run.)
  const Joules fingerprint = s.board.cpu_rail().EnergyOver(0, Seconds(1));
  {
    Rng rng2(seed);
    TestStack s2(board_cfg);
    const int n2 = static_cast<int>(rng2.UniformInt(2, 6));
    for (int i = 0; i < n2; ++i) {
      const auto which = static_cast<size_t>(
          rng2.UniformInt(0, static_cast<int64_t>(std::size(kFactories)) - 1));
      AppOptions opts;
      opts.deadline = Seconds(1);
      opts.use_psbox = rng2.Bernoulli(0.4);
      opts.threads = rng2.Bernoulli(0.2) ? 2 : 1;
      opts.jitter = rng2.Uniform(0.0, 0.15);
      kFactories[which](s2.kernel, "app" + std::to_string(i), opts);
    }
    s2.kernel.RunUntil(Seconds(1) + Millis(100));
    EXPECT_DOUBLE_EQ(s2.board.cpu_rail().EnergyOver(0, Seconds(1)), fingerprint)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144,
                                           233, 377, 610, 987));

}  // namespace
}  // namespace psbox
