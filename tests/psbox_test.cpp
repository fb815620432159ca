// Tests for the psbox core: PowerSandbox, PsboxManager, and the user API.

#include <gtest/gtest.h>

#include "src/psbox/psbox_api.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

TEST(PowerSandboxTest, BoundComponents) {
  PowerSandbox sb(0, 1, {HwComponent::kCpu, HwComponent::kGpu}, 0);
  EXPECT_TRUE(sb.BoundTo(HwComponent::kCpu));
  EXPECT_TRUE(sb.BoundTo(HwComponent::kGpu));
  EXPECT_FALSE(sb.BoundTo(HwComponent::kWifi));
}

TEST(PowerSandboxTest, OwnershipIntervalsAccumulate) {
  PowerSandbox sb(0, 1, {HwComponent::kCpu}, 0);
  sb.AddOwned(HwComponent::kCpu, 100, 200);
  sb.AddOwned(HwComponent::kCpu, 300, 350);
  EXPECT_EQ(sb.owned(HwComponent::kCpu).TotalCovered(), 150);
}

TEST(PowerSandboxTest, ObservedEnergyIsBalloonEnergyOnly) {
  Simulator sim;
  PowerRail rail(&sim, "cpu", 0.3);
  PowerSandbox sb(0, 1, {HwComponent::kCpu}, 0);
  // Rail at 2 W from t=0.
  rail.SetPower(2.0);
  sb.AddOwned(HwComponent::kCpu, Millis(100), Millis(200));
  // 100 ms of 2 W owned; the rest contributes nothing.
  EXPECT_NEAR(sb.ObservedEnergyDetail(
                    HwComponent::kCpu,
                    MeterSource::OfRail(rail, kNoOpenSpan, nullptr), Millis(500))
                  .measured,
              0.2, 1e-9);
}

TEST(PowerSandboxTest, OpenBalloonCountsUpToNow) {
  Simulator sim;
  PowerRail rail(&sim, "cpu", 0.3);
  rail.SetPower(1.0);
  PowerSandbox sb(0, 1, {HwComponent::kCpu}, 0);
  // The balloon's domain served it at 100 ms and it is still open.
  EXPECT_NEAR(sb.ObservedEnergyDetail(
                    HwComponent::kCpu,
                    MeterSource::OfRail(rail, /*open_since=*/Millis(100), nullptr),
                    Millis(300))
                  .measured,
              0.2, 1e-9);
}

TEST(PowerSandboxTest, MeterResetRestartsAccumulation) {
  Simulator sim;
  PowerRail rail(&sim, "cpu", 0.3);
  rail.SetPower(1.0);
  PowerSandbox sb(0, 1, {HwComponent::kCpu}, 0);
  sb.ResetMeter(Millis(100));
  // A span open since 0 counts only from the reset.
  EXPECT_NEAR(sb.ObservedEnergyDetail(
                    HwComponent::kCpu,
                    MeterSource::OfRail(rail, /*open_since=*/0, nullptr),
                    Millis(150))
                  .measured,
              0.05, 1e-9);
}

TEST(PowerSandboxTest, SamplesShowIdleOutsideOwnership) {
  Simulator sim;
  PowerRail rail(&sim, "gpu", 0.12);
  rail.SetPower(1.5);  // device busy with someone else's work
  PowerSandbox sb(0, 1, {HwComponent::kGpu}, 0);
  sb.AddOwned(HwComponent::kGpu, Millis(10), Millis(20));
  std::vector<PowerSample> samples;
  for (TimeNs t = 0; t < Millis(30); t += kMillisecond) {
    samples.push_back({t, 0.0, false});
  }
  sb.AccumulateObservedSamples(HwComponent::kGpu,
                               MeterSource::OfRail(rail, kNoOpenSpan, nullptr),
                               0.0, nullptr, &samples);
  ASSERT_EQ(samples.size(), 30u);
  for (const PowerSample& s : samples) {
    if (s.timestamp >= Millis(10) && s.timestamp < Millis(20)) {
      EXPECT_DOUBLE_EQ(s.watts, 1.5);  // in the balloon: the true rail
    } else {
      EXPECT_DOUBLE_EQ(s.watts, 0.12);  // outside: idle power only
    }
  }
}

TEST(PsboxManagerTest, CreateReturnsSequentialIds) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  EXPECT_EQ(s.manager.CreateBox(a, {HwComponent::kCpu}), 0);
  EXPECT_EQ(s.manager.CreateBox(a, {HwComponent::kGpu}), 1);
  EXPECT_EQ(s.manager.box_count(), 2u);
}

TEST(PsboxManagerTest, EnterLeaveIdempotent) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.manager.EnterBox(box);  // no-op
  s.kernel.RunUntil(Millis(10));
  EXPECT_TRUE(s.manager.InBox(box));
  s.manager.LeaveBox(box);
  s.manager.LeaveBox(box);  // no-op
  s.kernel.RunUntil(Millis(20));
  EXPECT_FALSE(s.manager.InBox(box));
}

TEST(PsboxManagerTest, RapidEnterLeaveCollapses) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.manager.LeaveBox(box);  // before the deferred apply
  s.kernel.RunUntil(Millis(10));
  EXPECT_FALSE(s.manager.InBox(box));
  EXPECT_FALSE(s.kernel.scheduler().InBalloon(0));
}

TEST(PsboxManagerTest, SampleOnlyInsideBox) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.kernel.RunUntil(Millis(10));
  std::vector<PowerSample> buf;
  EXPECT_EQ(s.manager.Sample(box, &buf, 100), 0u);  // outside: refused
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(30));
  EXPECT_GT(s.manager.Sample(box, &buf, 1000), 0u);
  EXPECT_FALSE(buf.empty());
}

TEST(PsboxManagerTest, SampleCursorAdvances) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(20));
  std::vector<PowerSample> buf;
  const size_t first = s.manager.Sample(box, &buf, 1u << 20);
  const size_t again = s.manager.Sample(box, &buf, 1u << 20);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(again, 0u);  // no new samples yet
  s.kernel.RunUntil(Millis(40));
  EXPECT_GT(s.manager.Sample(box, &buf, 1u << 20), 0u);
}

TEST(PsboxManagerTest, SampleRespectsMaxCount) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(20));
  std::vector<PowerSample> buf;
  EXPECT_EQ(s.manager.Sample(box, &buf, 50), 50u);
}

TEST(PsboxManagerTest, SamplesTimestampedOnSharedClock) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(20));
  std::vector<PowerSample> buf;
  s.manager.Sample(box, &buf, 1000);
  ASSERT_GT(buf.size(), 1u);
  for (size_t i = 1; i < buf.size(); ++i) {
    EXPECT_GT(buf[i].timestamp, buf[i - 1].timestamp);
  }
  EXPECT_LE(buf.back().timestamp, s.kernel.Now());
}

TEST(PsboxManagerTest, ReadEnergyPerComponent) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu, HwComponent::kGpu});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(100));
  const Joules cpu = s.manager.ReadEnergyFor(box, HwComponent::kCpu);
  const Joules gpu = s.manager.ReadEnergyFor(box, HwComponent::kGpu);
  EXPECT_GT(cpu, 0.0);
  EXPECT_GE(gpu, 0.0);  // no GPU work submitted: no GPU balloons
  EXPECT_NEAR(s.manager.ReadEnergy(box), cpu + gpu, 1e-12);
}

TEST(PsboxApiTest, ListingOneFlow) {
  // Exercise the exact Listing-1 sequence from a behaviour.
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  struct Result {
    Joules energy = -1.0;
    size_t samples = 0;
    bool inside_during = false;
    bool inside_after = true;
  };
  auto result = std::make_shared<Result>();
  s.kernel.SpawnTask(
      a, "t",
      std::make_unique<FnBehavior>([result, box = -1,
                                    phase = 0](TaskEnv& env) mutable {
        switch (phase++) {
          case 0: {
            box = psbox_create(env, {HwComponent::kCpu});
            psbox_enter(env, box);
            return Action::Compute(20 * kMillisecond);
          }
          case 1: {
            result->inside_during = psbox_inside(env, box);
            std::vector<PowerSample> buf;
            result->samples = psbox_sample(env, box, &buf, 64);
            result->energy = psbox_read(env, box);
            psbox_leave(env, box);
            return Action::Compute(kMillisecond);
          }
          default: {
            result->inside_after = psbox_inside(env, box);
            return Action::Exit();
          }
        }
      }));
  s.kernel.RunUntil(Millis(100));
  EXPECT_TRUE(result->inside_during);
  EXPECT_FALSE(result->inside_after);
  EXPECT_GT(result->energy, 0.0);
  EXPECT_EQ(result->samples, 64u);
}

TEST(PsboxApiTest, GettimeMatchesKernelClock) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  auto seen = std::make_shared<TimeNs>(-1);
  s.kernel.SpawnTask(a, "t",
                     std::make_unique<FnBehavior>([seen](TaskEnv& env) {
                       *seen = psbox_gettime(env);
                       return Action::Exit();
                     }));
  s.kernel.RunUntil(Millis(5));
  EXPECT_GE(*seen, 0);
}

}  // namespace
}  // namespace psbox
