// Tests for the psbox CPU extensions: spatial balloons, coscheduling via
// task shootdown, billing, scheduling loans, and group lifecycle.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace psbox {
namespace {

// Enters an app into a CPU psbox via the manager (from outside task context).
int Sandbox(TestStack& s, AppId app) {
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  return box;
}

TEST(BalloonTest, SandboxedTaskForcesPeerCoreIdle) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("sandboxed");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  Sandbox(s, app);
  s.kernel.RunUntil(Millis(10));
  // During coscheduling with one runnable task, exactly one core is active;
  // the other runs the dummy (forced idle).
  ASSERT_TRUE(s.kernel.scheduler().InBalloon(0));
  ASSERT_TRUE(s.kernel.scheduler().InBalloon(1));
  EXPECT_EQ(s.board.cpu().ActiveCoreCount(), 1);
}

TEST(BalloonTest, BalloonEdgesBalancedAndOrdered) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  s.SpawnBusy("other");
  Sandbox(s, app);
  s.kernel.RunUntil(Seconds(1));
  const auto& sb = s.manager.sandbox(0);
  const auto& intervals = sb.owned(HwComponent::kCpu).intervals();
  ASSERT_GT(intervals.size(), 1u);
  for (size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_LT(intervals[i].begin, intervals[i].end);
    if (i > 0) {
      EXPECT_GE(intervals[i].begin, intervals[i - 1].end);
    }
  }
}

TEST(BalloonTest, BillingDisadvantagesSandboxedApp) {
  // Sandboxed single-threaded app vs one plain competitor: the sandboxed app
  // is billed the whole cluster during balloons, so it gets less CPU time
  // than the plain one.
  TestStack s;
  const AppId app = s.kernel.CreateApp("sand");
  Task* sandboxed = s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  Task* plain = s.SpawnBusy("plain");
  Sandbox(s, app);
  s.kernel.RunUntil(Seconds(2));
  EXPECT_LT(sandboxed->total_cpu_time, plain->total_cpu_time);
  // And the plain task keeps the clear majority of one core.
  EXPECT_GT(plain->total_cpu_time, 1.2 * kSecond);
}

TEST(BalloonTest, NoBillingAblationShiftsCostToOthers) {
  KernelConfig cfg;
  cfg.sched.charge_lost_sharing = false;
  TestStack s({}, cfg);
  const AppId app = s.kernel.CreateApp("sand");
  Task* sandboxed = s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  Task* plain = s.SpawnBusy("plain");
  Sandbox(s, app);
  s.kernel.RunUntil(Seconds(2));
  // Without charging, the sandboxed app gets at least its naive fair share.
  EXPECT_GT(static_cast<double>(sandboxed->total_cpu_time),
            0.9 * static_cast<double>(plain->total_cpu_time));
}

TEST(BalloonTest, ShootdownUsesIpis) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  s.SpawnBusy("other");
  Sandbox(s, app);
  s.kernel.RunUntil(Millis(500));
  const auto& st = s.kernel.scheduler().stats();
  const auto& dom = s.kernel.scheduler().domain_stats();
  EXPECT_GT(dom.balloons, 0u);
  EXPECT_EQ(st.shootdown_ipis, dom.balloons);  // one peer core
}

TEST(BalloonTest, MaxSliceBoundsBalloon) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  Sandbox(s, app);
  s.kernel.RunUntil(Seconds(1));
  const auto& dom = s.kernel.scheduler().domain_stats();
  ASSERT_GT(dom.balloons, 0u);
  const double avg = static_cast<double>(dom.total_balloon_time) /
                     static_cast<double>(dom.balloons);
  EXPECT_LE(avg, static_cast<double>(s.kernel.scheduler().config().max_balloon_slice) * 1.1);
}

TEST(BalloonTest, BlockedGroupEndsBalloon) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t",
                     std::make_unique<ScriptBehavior>(std::vector<Action>{
                         Action::Compute(2 * kMillisecond),
                         Action::Sleep(20 * kMillisecond),
                         Action::Compute(2 * kMillisecond)}));
  Sandbox(s, app);
  s.kernel.RunUntil(Millis(10));
  // The task is asleep: no balloon may be active.
  EXPECT_FALSE(s.kernel.scheduler().InBalloon(0));
  EXPECT_FALSE(s.kernel.scheduler().InBalloon(1));
}

TEST(BalloonTest, LeaveReleasesTasksToNormalScheduling) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  Task* t = s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  const int box = Sandbox(s, app);
  s.kernel.RunUntil(Millis(100));
  s.manager.LeaveBox(box);
  s.kernel.RunUntil(Millis(200));
  EXPECT_EQ(t->group, nullptr);
  EXPECT_FALSE(s.kernel.scheduler().InBalloon(0));
  const DurationNs before = t->total_cpu_time;
  s.kernel.RunUntil(Millis(400));
  // Outside the box, the only runnable task gets a full core.
  EXPECT_NEAR(static_cast<double>(t->total_cpu_time - before), 200.0 * kMillisecond,
              10.0 * kMillisecond);
}

TEST(BalloonTest, ReEnterAfterLeaveWorks) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  const int box = Sandbox(s, app);
  s.kernel.RunUntil(Millis(50));
  s.manager.LeaveBox(box);
  s.kernel.RunUntil(Millis(100));
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(150));
  EXPECT_TRUE(s.kernel.scheduler().InBalloon(0));
}

TEST(BalloonTest, TwoSandboxedAppsNeverOverlapOwnership) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "ta", std::make_unique<BusyBehavior>());
  const AppId b = s.kernel.CreateApp("b");
  s.kernel.SpawnTask(b, "tb", std::make_unique<BusyBehavior>());
  const int box_a = Sandbox(s, a);
  const int box_b = Sandbox(s, b);
  s.kernel.RunUntil(Seconds(2));
  const auto& ia = s.manager.sandbox(box_a).owned(HwComponent::kCpu);
  const auto& ib = s.manager.sandbox(box_b).owned(HwComponent::kCpu);
  ASSERT_FALSE(ia.empty());
  ASSERT_FALSE(ib.empty());
  // Check pairwise disjointness by sampling.
  for (TimeNs t = 0; t < Seconds(2); t += 500 * kMicrosecond) {
    EXPECT_FALSE(ia.Contains(t) && ib.Contains(t)) << "overlap at " << t;
  }
  // And fairness between the two sandboxes.
  const auto ca = ia.TotalCovered();
  const auto cb = ib.TotalCovered();
  EXPECT_NEAR(static_cast<double>(ca) / static_cast<double>(cb), 1.0, 0.2);
}

TEST(BalloonTest, SpawnWhileInsideJoinsGroup) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t1", std::make_unique<BusyBehavior>());
  Sandbox(s, app);
  s.kernel.RunUntil(Millis(20));
  Task* late = s.kernel.SpawnTask(app, "t2", std::make_unique<BusyBehavior>());
  s.kernel.RunUntil(Millis(40));
  EXPECT_NE(late->group, nullptr);
}

TEST(BalloonTest, TwoThreadBalloonUsesBothCores) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t1", std::make_unique<BusyBehavior>());
  s.kernel.SpawnTask(app, "t2", std::make_unique<BusyBehavior>());
  Sandbox(s, app);
  s.kernel.RunUntil(Millis(10));
  ASSERT_TRUE(s.kernel.scheduler().InBalloon(0));
  EXPECT_EQ(s.board.cpu().ActiveCoreCount(), 2);
}

TEST(BalloonTest, PowerStateVirtualisationInsulatesFrequency) {
  // The sandbox's first balloon starts at the lowest OPP regardless of the
  // global operating point raised by a busy co-runner.
  TestStack s;
  Task* busy = s.SpawnBusy("busy");
  s.kernel.RunUntil(Millis(100));  // governor ramps the global context
  ASSERT_EQ(s.board.cpu().opp_index(), s.board.cpu().num_opps() - 1);
  (void)busy;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  const int box = Sandbox(s, app);
  // Find the first balloon and check the OPP right after it starts.
  s.kernel.RunUntil(Millis(102));
  TimeNs probe = -1;
  const auto& sb = s.manager.sandbox(box);
  s.kernel.RunUntil(Millis(160));
  if (!sb.owned(HwComponent::kCpu).empty()) {
    probe = sb.owned(HwComponent::kCpu).intervals().front().begin;
  }
  ASSERT_GE(probe, 0);
  // During the first balloon the cluster ran at the psbox context's initial
  // (lowest) OPP: rail power there is far below the full-speed level.
  const Watts in_balloon = s.board.cpu_rail().PowerAt(probe + 100 * kMicrosecond);
  EXPECT_LT(in_balloon, 2.0);
}

}  // namespace
}  // namespace psbox
