// Unit tests for the accelerator device model (GPU/DSP).

#include <gtest/gtest.h>

#include <vector>

#include "src/hw/accel_device.h"
#include "src/sim/callback_target.h"

namespace psbox {
namespace {

AccelCommand MakeCmd(uint64_t id, AppId app, DurationNs work, Watts power) {
  AccelCommand cmd;
  cmd.id = id;
  cmd.app = app;
  cmd.nominal_work = work;
  cmd.active_power = power;
  return cmd;
}

class AccelDeviceTest : public ::testing::Test {
 protected:
  AccelDeviceTest()
      : rail_(&sim_, "gpu", MakeGpuConfig().idle_power),
        gpu_(&sim_, &rail_, MakeGpuConfig()) {
    gpu_.set_on_complete([this](const AccelCompletion& c) { done_.push_back(c); });
  }

  Simulator sim_;
  PowerRail rail_;
  AccelDevice gpu_;
  std::vector<AccelCompletion> done_;
};

TEST_F(AccelDeviceTest, IdlePowerWhenEmpty) {
  EXPECT_DOUBLE_EQ(gpu_.ModelPower(), gpu_.config().idle_power);
  EXPECT_EQ(gpu_.in_flight(), 0);
  EXPECT_TRUE(gpu_.CanDispatch());
}

TEST_F(AccelDeviceTest, SoloCommandFinishesAtNominalTime) {
  gpu_.Dispatch(MakeCmd(1, 0, 5 * kMillisecond, 0.8));
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(done_.size(), 1u);
  // Top OPP, alone: exactly the nominal work (within rounding).
  EXPECT_NEAR(static_cast<double>(done_[0].end_time - done_[0].start_time),
              static_cast<double>(5 * kMillisecond), 10.0);
}

TEST_F(AccelDeviceTest, ContentionStretchesExecution) {
  gpu_.Dispatch(MakeCmd(1, 0, 5 * kMillisecond, 0.8));
  gpu_.Dispatch(MakeCmd(2, 1, 5 * kMillisecond, 0.8));
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(done_.size(), 2u);
  const auto span = done_[0].end_time - done_[0].start_time;
  // Two equal in-flight commands run the whole time together: stretched by
  // the configured contention factor.
  const double expected =
      5.0 * kMillisecond * (1.0 + gpu_.config().contention_slowdown);
  EXPECT_NEAR(static_cast<double>(span), expected, expected * 0.01);
}

TEST_F(AccelDeviceTest, PowerSuperpositionIsSubAdditive) {
  gpu_.Dispatch(MakeCmd(1, 0, 10 * kMillisecond, 0.6));
  const Watts one = gpu_.ModelPower();
  gpu_.Dispatch(MakeCmd(2, 1, 10 * kMillisecond, 0.6));
  const Watts two = gpu_.ModelPower();
  const Watts idle = gpu_.config().idle_power;
  EXPECT_GT(two, one);
  EXPECT_LT(two - idle, 2.0 * (one - idle));  // Fig 3b entanglement
}

TEST_F(AccelDeviceTest, SlotsLimitDispatch) {
  gpu_.Dispatch(MakeCmd(1, 0, 10 * kMillisecond, 0.5));
  gpu_.Dispatch(MakeCmd(2, 0, 10 * kMillisecond, 0.5));
  EXPECT_FALSE(gpu_.CanDispatch());
  EXPECT_EQ(gpu_.in_flight(), 2);
}

TEST_F(AccelDeviceTest, CompletionFreesSlot) {
  gpu_.Dispatch(MakeCmd(1, 0, 2 * kMillisecond, 0.5));
  gpu_.Dispatch(MakeCmd(2, 0, 20 * kMillisecond, 0.5));
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(done_.size(), 1u);
  EXPECT_TRUE(gpu_.CanDispatch());
  EXPECT_EQ(gpu_.in_flight(), 1);
}

TEST_F(AccelDeviceTest, LowerOppSlowsAndSavesPower) {
  gpu_.SetOppIndex(0);
  gpu_.Dispatch(MakeCmd(1, 0, 5 * kMillisecond, 0.8));
  const Watts low_power = gpu_.ModelPower();
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(done_.size(), 1u);
  const auto span = done_[0].end_time - done_[0].start_time;
  EXPECT_GT(span, 5 * kMillisecond);  // slower than nominal

  done_.clear();
  gpu_.SetOppIndex(gpu_.num_opps() - 1);
  gpu_.Dispatch(MakeCmd(2, 0, 5 * kMillisecond, 0.8));
  EXPECT_GT(gpu_.ModelPower(), low_power);
}

TEST_F(AccelDeviceTest, OppChangeMidExecutionPreservesWork) {
  gpu_.SetOppIndex(gpu_.num_opps() - 1);
  gpu_.Dispatch(MakeCmd(1, 0, 10 * kMillisecond, 0.8));
  sim_.RunUntil(Millis(5));  // half done at full speed
  gpu_.SetOppIndex(0);       // slow down for the second half
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(done_.size(), 1u);
  const double speed0 = gpu_.config().opps[0].freq_mhz /
                        gpu_.config().opps.back().freq_mhz;
  const double expected = 5.0 * kMillisecond + 5.0 * kMillisecond / speed0;
  EXPECT_NEAR(static_cast<double>(done_[0].end_time), expected, expected * 0.01);
}

TEST_F(AccelDeviceTest, ActiveAppsDeduplicates) {
  gpu_.Dispatch(MakeCmd(1, 7, 10 * kMillisecond, 0.5));
  gpu_.Dispatch(MakeCmd(2, 7, 10 * kMillisecond, 0.5));
  EXPECT_EQ(gpu_.ActiveApps().size(), 1u);
  EXPECT_EQ(gpu_.ActiveApps()[0], 7);
}

TEST_F(AccelDeviceTest, CompletionCarriesDispatchTimes) {
  CallbackTarget callbacks(&sim_);
  callbacks.At(Millis(3), [this] { gpu_.Dispatch(MakeCmd(1, 0, 2 * kMillisecond, 0.5)); });
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(done_.size(), 1u);
  EXPECT_EQ(done_[0].dispatch_time, Millis(3));
  EXPECT_EQ(done_[0].start_time, Millis(3));
  EXPECT_GT(done_[0].end_time, done_[0].start_time);
}

TEST(AccelConfigTest, FactoryShapes) {
  const AccelConfig gpu = MakeGpuConfig();
  const AccelConfig dsp = MakeDspConfig();
  EXPECT_EQ(gpu.slots, 2);   // pipelined overlap
  EXPECT_EQ(dsp.slots, 4);   // spatial concurrency
  EXPECT_GT(dsp.power_interference, gpu.power_interference);
}

// Property sweep: energy on the rail equals idle + the commands' effective
// contribution, for varying overlap counts.
class AccelOverlapSweep : public ::testing::TestWithParam<int> {};

TEST_P(AccelOverlapSweep, RailEnergyMatchesInterferenceModel) {
  const int overlap = GetParam();
  AccelConfig cfg = MakeDspConfig();
  Simulator sim;
  PowerRail rail(&sim, "dsp", cfg.idle_power);
  AccelDevice dsp(&sim, &rail, cfg);
  for (int i = 0; i < overlap; ++i) {
    AccelCommand cmd;
    cmd.id = static_cast<uint64_t>(i + 1);
    cmd.app = i;
    cmd.nominal_work = 10 * kMillisecond;
    cmd.active_power = 0.5;
    dsp.Dispatch(cmd);
  }
  const Watts expected = cfg.idle_power +
                         0.5 * overlap *
                             (1.0 - cfg.power_interference * (overlap - 1));
  EXPECT_NEAR(dsp.ModelPower(), expected, 1e-9);
  sim.RunToCompletion();
  EXPECT_DOUBLE_EQ(dsp.ModelPower(), cfg.idle_power);
}

INSTANTIATE_TEST_SUITE_P(Overlap, AccelOverlapSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace psbox
