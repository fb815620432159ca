// Tests for the cpufreq governor and its per-psbox operating points.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace psbox {
namespace {

TEST(GovernorTest, StartsAtLowestOpp) {
  TestStack s;
  EXPECT_EQ(s.board.cpu().opp_index(), 0);
}

TEST(GovernorTest, JumpsToMaxUnderSustainedLoad) {
  TestStack s;
  s.SpawnBusy("busy");
  s.kernel.RunUntil(Millis(60));  // a few sample periods
  EXPECT_EQ(s.board.cpu().opp_index(), s.board.cpu().num_opps() - 1);
}

TEST(GovernorTest, DecaysOneStepPerPeriod) {
  TestStack s;
  s.SpawnScript("t", {Action::Compute(100 * kMillisecond)});
  s.kernel.RunUntil(Millis(120));
  ASSERT_EQ(s.board.cpu().opp_index(), s.board.cpu().num_opps() - 1);
  // Lingering state (Fig 3c): each governor period steps the OPP down once.
  const int top = s.board.cpu().num_opps() - 1;
  const DurationNs period = s.kernel.governor().config().sample_period;
  // Snap to the next sample boundary, then observe stepwise decay.
  TimeNs t = ((s.kernel.Now() / period) + 1) * period + Millis(1);
  int prev = top;
  for (; t < Millis(400); t += period) {
    s.kernel.RunUntil(t);
    const int opp = s.board.cpu().opp_index();
    EXPECT_GE(opp, prev - 1);
    EXPECT_LE(opp, prev);
    prev = opp;
  }
  EXPECT_EQ(prev, 0);
}

TEST(GovernorTest, MidUtilizationHoldsOpp) {
  TestStack s;
  // ~50% duty cycle on one core: between the thresholds, the OPP must hold.
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t",
                     std::make_unique<FnBehavior>([phase = 0](TaskEnv&) mutable {
                       return (phase++ % 2 == 0)
                                  ? Action::Compute(5 * kMillisecond, 1.0)
                                  : Action::Sleep(5 * kMillisecond);
                     }));
  s.kernel.RunUntil(Millis(300));
  const int held = s.board.cpu().opp_index();
  s.kernel.RunUntil(Millis(500));
  EXPECT_EQ(s.board.cpu().opp_index(), held);
}

TEST(GovernorTest, SwitchSavesAndRestores) {
  TestStack s;
  CpufreqGovernor& gov = s.kernel.governor();
  gov.BindBox(0);
  // Drive the global context to max.
  s.SpawnBusy("busy");
  s.kernel.RunUntil(Millis(60));
  const int global_opp = s.board.cpu().opp_index();
  ASSERT_EQ(global_opp, s.board.cpu().num_opps() - 1);
  // Switching to the fresh box applies its (lowest) OPP...
  gov.Switch(0);
  EXPECT_EQ(gov.running(), 0);
  EXPECT_EQ(s.board.cpu().opp_index(), 0);
  // ...and switching back restores the global one.
  gov.Switch(kNoPsbox);
  EXPECT_EQ(gov.running(), kNoPsbox);
  EXPECT_EQ(s.board.cpu().opp_index(), global_opp);
}

TEST(GovernorTest, SwitchSkipsBoxWithoutOpp) {
  TestStack s;
  CpufreqGovernor& gov = s.kernel.governor();
  s.SpawnBusy("busy");
  s.kernel.RunUntil(Millis(60));
  const int global_opp = s.board.cpu().opp_index();
  gov.Switch(7);  // never bound
  EXPECT_EQ(gov.running(), kNoPsbox);
  EXPECT_EQ(s.board.cpu().opp_index(), global_opp);
}

TEST(GovernorTest, WithoutVirtualisationBalloonKeepsCoRunnerOpp) {
  // Ablation (KernelConfig::virtualize_cpu_freq = false): balloon edges do
  // not switch operating points, so the sandbox runs at the top OPP the
  // busy co-runner drove the cluster to instead of its own fresh, lowest
  // one.
  KernelConfig cfg;
  cfg.virtualize_cpu_freq = false;
  TestStack s({}, cfg);
  s.SpawnBusy("co-runner");
  s.kernel.RunUntil(Millis(60));
  const int top = s.board.cpu().num_opps() - 1;
  ASSERT_EQ(s.board.cpu().opp_index(), top);
  const AppId app = s.kernel.CreateApp("sandboxed");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  int owned_instants = 0;
  for (TimeNs t = Millis(60); t < Millis(200); t += 100 * kMicrosecond) {
    s.kernel.RunUntil(t);
    if (s.manager.OwnedAt(box, HwComponent::kCpu, t)) {
      EXPECT_EQ(s.board.cpu().opp_index(), top) << "at " << t << " ns";
      ++owned_instants;
    }
  }
  EXPECT_GT(owned_instants, 0);
}

TEST(GovernorTest, SandboxContextRampsFromItsOwnDemand) {
  // A sandboxed app's balloons start at its box's lowest OPP and ramp as
  // the governor judges the utilisation *inside its balloons*.
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(5));
  ASSERT_TRUE(s.kernel.scheduler().InBalloon(0));
  EXPECT_EQ(s.board.cpu().opp_index(), 0);  // fresh box
  s.kernel.RunUntil(Millis(200));
  ASSERT_TRUE(s.kernel.scheduler().InBalloon(0));
  EXPECT_EQ(s.board.cpu().opp_index(), s.board.cpu().num_opps() - 1);
}

TEST(GovernorTest, AccelGovernorRampsAndDecays) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(
      app, "t",
      std::make_unique<FnBehavior>([phase = 0](TaskEnv& env) mutable {
        if (env.now > Millis(300)) {
          return Action::Exit();
        }
        return (phase++ % 2 == 0)
                   ? Action::SubmitAccel(HwComponent::kGpu, 1, 8 * kMillisecond, 0.7)
                   : Action::WaitAccel(1);
      }));
  s.kernel.RunUntil(Millis(250));
  EXPECT_EQ(s.board.gpu().opp_index(), s.board.gpu().num_opps() - 1);
  s.kernel.RunUntil(Millis(800));
  EXPECT_EQ(s.board.gpu().opp_index(), 0);
}

}  // namespace
}  // namespace psbox
