// Edge cases across subsystem boundaries: multiple sandboxes, lifecycle
// races, and unusual interleavings.

#include <gtest/gtest.h>

#include "src/psbox/psbox_api.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

struct AccelLoop {
  AppId app;
  Task* task;
};

AccelLoop SpawnAccelLoop(TestStack& s, const std::string& name, HwComponent hw,
                         DurationNs work) {
  const AppId app = s.kernel.CreateApp(name);
  Task* task = s.kernel.SpawnTask(
      app, name, std::make_unique<FnBehavior>([hw, work, phase = 0](TaskEnv&) mutable {
        return (phase++ % 2 == 0)
                   ? Action::SubmitAccel(hw, 1, work, 0.6)
                   : Action::WaitAccel(1);
      }));
  return {app, task};
}

TEST(EdgeTest, TwoGpuSandboxesAlternate) {
  TestStack s;
  AccelLoop a = SpawnAccelLoop(s, "a", HwComponent::kGpu, 3 * kMillisecond);
  AccelLoop b = SpawnAccelLoop(s, "b", HwComponent::kGpu, 3 * kMillisecond);
  const int box_a = s.manager.CreateBox(a.app, {HwComponent::kGpu});
  const int box_b = s.manager.CreateBox(b.app, {HwComponent::kGpu});
  s.manager.EnterBox(box_a);
  s.manager.EnterBox(box_b);
  s.kernel.RunUntil(Seconds(2));
  // Both make progress and their ownership never overlaps.
  EXPECT_GT(s.kernel.gpu_driver().CompletedFor(a.app), 20u);
  EXPECT_GT(s.kernel.gpu_driver().CompletedFor(b.app), 20u);
  for (TimeNs t = 0; t < Seconds(2); t += 250 * kMicrosecond) {
    EXPECT_FALSE(s.manager.OwnedAt(box_a, HwComponent::kGpu, t) &&
                 s.manager.OwnedAt(box_b, HwComponent::kGpu, t))
        << "overlap at " << t;
  }
}

TEST(EdgeTest, CpuAndGpuSandboxesCoexist) {
  TestStack s;
  const AppId cpu_app = s.kernel.CreateApp("cpu-app");
  s.kernel.SpawnTask(cpu_app, "t", std::make_unique<BusyBehavior>());
  AccelLoop gpu_app = SpawnAccelLoop(s, "gpu-app", HwComponent::kGpu, 3 * kMillisecond);
  const int box_cpu = s.manager.CreateBox(cpu_app, {HwComponent::kCpu});
  const int box_gpu = s.manager.CreateBox(gpu_app.app, {HwComponent::kGpu});
  s.manager.EnterBox(box_cpu);
  s.manager.EnterBox(box_gpu);
  s.kernel.RunUntil(Seconds(1));
  EXPECT_GT(s.manager.ReadEnergyFor(box_cpu, HwComponent::kCpu), 0.0);
  EXPECT_GT(s.manager.ReadEnergyFor(box_gpu, HwComponent::kGpu), 0.0);
}

TEST(EdgeTest, TaskExitsInsideBalloon) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t",
                     std::make_unique<ScriptBehavior>(std::vector<Action>{
                         Action::Compute(10 * kMillisecond)}));
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(200));
  EXPECT_TRUE(s.kernel.AppFinished(app));
  EXPECT_FALSE(s.kernel.scheduler().InBalloon(0));
  EXPECT_FALSE(s.kernel.scheduler().InBalloon(1));
  // The sandbox closed its ownership cleanly.
  EXPECT_GT(s.manager.ReadEnergyFor(box, HwComponent::kCpu), 0.0);
}

TEST(EdgeTest, LeaveWhileBlockedThenWake) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  Task* t = s.kernel.SpawnTask(app, "t",
                               std::make_unique<ScriptBehavior>(std::vector<Action>{
                                   Action::Compute(2 * kMillisecond),
                                   Action::Sleep(50 * kMillisecond),
                                   Action::Compute(2 * kMillisecond)}));
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(20));  // task is asleep now
  EXPECT_EQ(t->state(), TaskState::kBlocked);
  s.manager.LeaveBox(box);
  s.kernel.RunUntil(Millis(200));
  EXPECT_TRUE(s.kernel.AppFinished(app));
}

TEST(EdgeTest, EnterBeforeAnyTaskSpawned) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(10));
  Task* t = s.kernel.SpawnTask(app, "late", std::make_unique<BusyBehavior>());
  s.kernel.RunUntil(Millis(50));
  EXPECT_NE(t->group, nullptr);  // joined the armed group on spawn
  EXPECT_GT(t->total_cpu_time, 0);
}

TEST(EdgeTest, GovernorContextsIsolated) {
  TestStack s;
  // Sandbox ramps its own context to max; the global context stays decayed.
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(500));
  // During a balloon (sandbox context active) the OPP is high...
  ASSERT_TRUE(s.kernel.scheduler().InBalloon(0));
  EXPECT_EQ(s.board.cpu().opp_index(), s.board.cpu().num_opps() - 1);
  // ...and after leaving, the global context resumes from its own (low) OPP.
  s.manager.LeaveBox(box);
  s.kernel.RunUntil(Millis(502));
  EXPECT_LT(s.board.cpu().opp_index(), s.board.cpu().num_opps() - 1);
}

TEST(EdgeTest, ClearSandboxedDuringDrainOthers) {
  TestStack s;
  // A long foreign command is in flight; the sandboxed app submits (enters
  // kDrainOthers) and immediately leaves its box.
  AccelLoop other = SpawnAccelLoop(s, "other", HwComponent::kDsp, 50 * kMillisecond);
  s.kernel.RunUntil(Millis(5));
  AccelLoop boxed = SpawnAccelLoop(s, "boxed", HwComponent::kDsp, 5 * kMillisecond);
  const int box = s.manager.CreateBox(boxed.app, {HwComponent::kDsp});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(20));  // drain in progress (foreign cmd runs ~50 ms)
  s.manager.LeaveBox(box);
  s.kernel.RunUntil(Seconds(1));
  EXPECT_GT(s.kernel.dsp_driver().CompletedFor(boxed.app), 5u);
  EXPECT_GT(s.kernel.dsp_driver().CompletedFor(other.app), 5u);
  EXPECT_EQ(s.kernel.dsp_driver().balloon_owner(), kNoApp);
}

TEST(EdgeTest, EnterBoxWhileAnotherBalloonDraining) {
  TestStack s;
  // A foreign 50 ms command keeps box_a's balloon stuck in drain when box_b
  // arrives; the driver must serialise the two balloons cleanly.
  AccelLoop other = SpawnAccelLoop(s, "other", HwComponent::kDsp, 50 * kMillisecond);
  s.kernel.RunUntil(Millis(5));
  AccelLoop a = SpawnAccelLoop(s, "a", HwComponent::kDsp, 5 * kMillisecond);
  AccelLoop b = SpawnAccelLoop(s, "b", HwComponent::kDsp, 5 * kMillisecond);
  const int box_a = s.manager.CreateBox(a.app, {HwComponent::kDsp});
  const int box_b = s.manager.CreateBox(b.app, {HwComponent::kDsp});
  s.manager.EnterBox(box_a);
  s.kernel.RunUntil(Millis(20));  // box_a is mid-drain behind the 50 ms cmd
  s.manager.EnterBox(box_b);
  s.kernel.RunUntil(Seconds(2));
  EXPECT_GT(s.kernel.dsp_driver().CompletedFor(a.app), 3u);
  EXPECT_GT(s.kernel.dsp_driver().CompletedFor(b.app), 3u);
  EXPECT_GT(s.kernel.dsp_driver().CompletedFor(other.app), 3u);
  // Balloon ownership stays mutually exclusive throughout.
  for (TimeNs t = 0; t < Seconds(2); t += 500 * kMicrosecond) {
    EXPECT_FALSE(s.manager.OwnedAt(box_a, HwComponent::kDsp, t) &&
                 s.manager.OwnedAt(box_b, HwComponent::kDsp, t))
        << "overlap at " << t;
  }
}

TEST(EdgeTest, LeaveBoxMidServe) {
  TestStack s;
  AccelLoop boxed = SpawnAccelLoop(s, "boxed", HwComponent::kGpu, 5 * kMillisecond);
  AccelLoop other = SpawnAccelLoop(s, "other", HwComponent::kGpu, 2 * kMillisecond);
  const int box = s.manager.CreateBox(boxed.app, {HwComponent::kGpu});
  s.manager.EnterBox(box);
  // Run until the balloon is actively serving the boxed app, then leave with
  // its command still on the engine.
  TimeNs t = 0;
  while (s.kernel.gpu_driver().balloon_owner() != boxed.app && t < Seconds(1)) {
    t += kMillisecond;
    s.kernel.RunUntil(t);
  }
  ASSERT_EQ(s.kernel.gpu_driver().balloon_owner(), boxed.app);
  s.manager.LeaveBox(box);
  s.kernel.RunUntil(Seconds(1));
  EXPECT_EQ(s.kernel.gpu_driver().balloon_owner(), kNoApp);
  // Ownership closed (no dangling open interval) and both apps kept going.
  EXPECT_FALSE(s.manager.OwnedAt(box, HwComponent::kGpu, s.kernel.Now()));
  for (const auto& iv : s.manager.sandbox(box).owned(HwComponent::kGpu).intervals()) {
    EXPECT_LT(iv.begin, iv.end);
  }
  EXPECT_GT(s.kernel.gpu_driver().CompletedFor(boxed.app), 5u);
  EXPECT_GT(s.kernel.gpu_driver().CompletedFor(other.app), 5u);
}

TEST(EdgeTest, BoxDestructionWithCommandsInFlight) {
  // Tear the whole stack down while commands are on the engines and a
  // balloon is open: destructors must not touch freed state.
  {
    TestStack s;
    AccelLoop boxed = SpawnAccelLoop(s, "boxed", HwComponent::kGpu, 20 * kMillisecond);
    SpawnAccelLoop(s, "other", HwComponent::kDsp, 20 * kMillisecond);
    const int box = s.manager.CreateBox(boxed.app, {HwComponent::kGpu});
    s.manager.EnterBox(box);
    s.kernel.RunUntil(Millis(30));
    EXPECT_GT(s.board.gpu().in_flight() + s.board.dsp().in_flight(), 0);
  }  // stack destroyed mid-flight
  SUCCEED();
}

TEST(EdgeTest, UnsolicitedRxBeforeAnySocket) {
  TestStack s;
  s.kernel.net().InjectRx(s.kernel.CreateApp("ghost"), 4096);
  s.kernel.RunUntil(Millis(50));
  EXPECT_EQ(s.kernel.net().stats().rx_frames, 1u);
}

TEST(EdgeTest, WifiSandboxWithStreamingResponses) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("stream");
  Task* t = s.kernel.SpawnTask(
      app, "t",
      std::make_unique<ScriptBehavior>(std::vector<Action>{
          Action::Send(500, 8 * 1024, 3 * kMillisecond, /*response_count=*/4),
          Action::WaitNet(), Action::Compute(kMillisecond)}));
  const int box = s.manager.CreateBox(app, {HwComponent::kWifi});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Seconds(1));
  EXPECT_EQ(t->state(), TaskState::kExited);
  // The balloon held through all four expected chunks.
  const Joules observed = s.manager.ReadEnergyFor(box, HwComponent::kWifi);
  EXPECT_GT(observed, 0.0);
  EXPECT_EQ(s.kernel.net().stats().rx_frames, 4u);
}

TEST(EdgeTest, SandboxedMultithreadedAppKeepsIntraGroupFairness) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  Task* t1 = s.kernel.SpawnTask(app, "t1", std::make_unique<BusyBehavior>());
  Task* t2 = s.kernel.SpawnTask(app, "t2", std::make_unique<BusyBehavior>());
  Task* t3 = s.kernel.SpawnTask(app, "t3", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Seconds(2));
  // Three group threads over two balloon cores: all make progress.
  for (Task* t : {t1, t2, t3}) {
    EXPECT_GT(t->total_cpu_time, 200 * kMillisecond) << t->name();
  }
}

TEST(EdgeTest, ReadEnergyMonotone) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(app, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(app, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  Joules prev = 0.0;
  for (int i = 1; i <= 10; ++i) {
    s.kernel.RunUntil(Millis(i * 50));
    const Joules e = s.manager.ReadEnergy(box);
    EXPECT_GE(e, prev);
    prev = e;
  }
}

TEST(EdgeTest, BoxBoundToAllFourKernelComponents) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(
      app, "t",
      std::make_unique<FnBehavior>([phase = 0](TaskEnv&) mutable {
        switch (phase++ % 6) {
          case 0:
            return Action::Compute(2 * kMillisecond);
          case 1:
            return Action::SubmitAccel(HwComponent::kGpu, 1, 2 * kMillisecond, 0.5);
          case 2:
            return Action::SubmitAccel(HwComponent::kDsp, 1, 4 * kMillisecond, 0.5);
          case 3:
            return Action::WaitAccel(2);
          case 4:
            return Action::Send(2048);
          default:
            return Action::WaitNet();
        }
      }));
  const int box = s.manager.CreateBox(
      app, {HwComponent::kCpu, HwComponent::kGpu, HwComponent::kDsp,
            HwComponent::kWifi});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Seconds(1));
  EXPECT_GT(s.manager.ReadEnergyFor(box, HwComponent::kCpu), 0.0);
  EXPECT_GT(s.manager.ReadEnergyFor(box, HwComponent::kGpu), 0.0);
  EXPECT_GT(s.manager.ReadEnergyFor(box, HwComponent::kDsp), 0.0);
  EXPECT_GT(s.manager.ReadEnergyFor(box, HwComponent::kWifi), 0.0);
}

}  // namespace
}  // namespace psbox
