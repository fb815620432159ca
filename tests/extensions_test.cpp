// Tests for the §7 extension hardware (OLED display, GPS) and the §8.2
// power-events layer.

#include <gtest/gtest.h>

#include "src/psbox/power_events.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

// --- Display (OLED, entanglement-free) -------------------------------------

TEST(DisplayTest, BasePowerWithNoSurfaces) {
  Board board;
  EXPECT_DOUBLE_EQ(board.display().ModelPower(), board.config().display.base_power);
}

TEST(DisplayTest, PerPixelAdditivity) {
  // The §7 property: pixels contribute independently — total power is the
  // exact sum of per-app contributions plus the base.
  Board board;
  board.display().SetSurface(1, 0.5, 0.8);
  board.display().SetSurface(2, 0.3, 0.6);
  const Watts expected = board.config().display.base_power +
                         board.display().AppPower(1) + board.display().AppPower(2);
  EXPECT_DOUBLE_EQ(board.display().ModelPower(), expected);
}

TEST(DisplayTest, AppEnergyIsExactShare) {
  Board board;
  board.display().SetSurface(1, 1.0, 1.0);
  board.sim().RunUntil(Seconds(1));
  board.display().RemoveSurface(1);
  board.sim().RunUntil(Seconds(2));
  EXPECT_NEAR(board.display().AppTrace(1).IntegralOver(0, Seconds(2)),
              board.config().display.full_panel_power, 1e-9);
}

TEST(DisplayTest, BrightnessScalesPower) {
  Board board;
  board.display().SetSurface(1, 0.5, 0.4);
  const Watts dim = board.display().AppPower(1);
  board.display().SetSurface(1, 0.5, 0.8);
  EXPECT_NEAR(board.display().AppPower(1), 2.0 * dim, 1e-12);
}

TEST(DisplayTest, PsboxReadsOwnSurfaceOnly) {
  TestStack s;
  const AppId mine = s.kernel.CreateApp("mine");
  s.kernel.SpawnTask(mine, "t", std::make_unique<BusyBehavior>());
  const AppId other = s.kernel.CreateApp("other");
  s.board.display().SetSurface(mine, 0.4, 0.5);
  s.board.display().SetSurface(other, 0.6, 1.0);  // brighter co-runner
  const int box = s.manager.CreateBox(mine, {HwComponent::kDisplay});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Seconds(1));
  const Joules observed = s.manager.ReadEnergyFor(box, HwComponent::kDisplay);
  EXPECT_NEAR(observed, s.board.display().AppPower(mine) * 1.0, 1e-6);
}

// The sensor-hub reading (ObservedSamples, which PowerEventMonitor takes)
// and psbox_sample are one meter: with noise off they agree sample for
// sample.
void ExpectObservedSamplesMatchPsboxSample(TestStack& s, int box) {
  const DurationNs period = s.board.config().meter.sample_period;
  const TimeNs from = s.manager.sandbox(box).sample_cursor();
  std::vector<PowerSample> drained;
  ASSERT_GT(s.manager.Sample(box, &drained, 1u << 20), 0u);
  const std::vector<PowerSample> observed =
      s.manager.ObservedSamples(box, from, s.kernel.Now(), period, 0.0, nullptr);
  ASSERT_EQ(observed.size(), drained.size());
  for (size_t i = 0; i < observed.size(); ++i) {
    ASSERT_EQ(observed[i].timestamp, drained[i].timestamp);
    ASSERT_EQ(observed[i].watts, drained[i].watts) << "at " << drained[i].timestamp;
  }
}

BoardConfig NoiselessMeter() {
  BoardConfig bc;
  bc.meter.noise_stddev = 0.0;
  return bc;
}

TEST(DisplayTest, ObservedSamplesAreTheSandboxsPixels) {
  TestStack s(NoiselessMeter());
  const AppId mine = s.kernel.CreateApp("mine");
  s.kernel.SpawnTask(mine, "t", std::make_unique<BusyBehavior>());
  s.board.display().SetSurface(mine, 0.4, 0.5);
  const int box = s.manager.CreateBox(mine, {HwComponent::kDisplay});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(20));
  const std::vector<PowerSample> observed = s.manager.ObservedSamples(
      box, 0, Millis(20), s.board.config().meter.sample_period, 0.0, nullptr);
  ASSERT_FALSE(observed.empty());
  EXPECT_EQ(observed.back().watts, s.board.display().AppPower(mine));
  ExpectObservedSamplesMatchPsboxSample(s, box);
}

// --- GPS --------------------------------------------------------------------

TEST(GpsTest, ColdStartThenOperating) {
  Board board;
  board.gps().Request(1);
  EXPECT_EQ(board.gps().state(), GpsState::kAcquiring);
  EXPECT_DOUBLE_EQ(board.gps().ModelPower(), board.config().gps.acquire_power);
  board.sim().RunUntil(board.config().gps.cold_start + 1);
  EXPECT_EQ(board.gps().state(), GpsState::kOn);
  EXPECT_DOUBLE_EQ(board.gps().ModelPower(), board.config().gps.on_power);
}

TEST(GpsTest, ConcurrentUsersShareTheDevice) {
  // §7: GPS power is unaffected by concurrent uses once operating.
  Board board;
  board.gps().Request(1);
  board.sim().RunUntil(board.config().gps.cold_start + 1);
  const Watts one_user = board.gps().ModelPower();
  board.gps().Request(2);
  EXPECT_DOUBLE_EQ(board.gps().ModelPower(), one_user);
  board.gps().Release(1);
  EXPECT_EQ(board.gps().state(), GpsState::kOn);  // user 2 keeps it on
  board.gps().Release(2);
  EXPECT_EQ(board.gps().state(), GpsState::kOff);
}

TEST(GpsTest, ReleaseDuringAcquisitionPowersOff) {
  Board board;
  board.gps().Request(1);
  board.sim().RunUntil(Millis(100));
  board.gps().Release(1);
  board.sim().RunUntil(board.config().gps.cold_start + Seconds(1));
  EXPECT_EQ(board.gps().state(), GpsState::kOff);
  EXPECT_DOUBLE_EQ(board.gps().ModelPower(), board.config().gps.off_power);
}

TEST(GpsTest, PsboxSeesOperatingPowerButNotAcquisition) {
  // The acquisition burst must not be revealed (it would leak that some app
  // just powered the GPS on, §4.1); operating power is safe to reveal.
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kGps});
  const AppId user = s.kernel.CreateApp("gps-user");
  s.board.gps().Request(user);
  s.kernel.RunUntil(s.board.config().gps.cold_start + Seconds(1));
  const Joules observed = s.manager.ReadEnergyFor(box, HwComponent::kGps);
  // Expected: idle during the 2 s cold start + on-power during 1 s operating.
  const Joules expected =
      s.board.config().gps.off_power * ToSeconds(s.board.config().gps.cold_start) +
      s.board.config().gps.on_power * 1.0;
  EXPECT_NEAR(observed, expected, expected * 0.01);
  // In particular the acquisition burst (0.145 W x 2 s) is absent.
  const Joules with_burst =
      s.board.config().gps.acquire_power * ToSeconds(s.board.config().gps.cold_start) +
      s.board.config().gps.on_power * 1.0;
  EXPECT_LT(observed, with_burst * 0.8);
}

TEST(GpsTest, ObservedSamplesMatchPsboxSampleWhileTracking) {
  TestStack s(NoiselessMeter());
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kGps});
  s.manager.EnterBox(box);
  s.board.gps().Request(a);
  s.kernel.RunUntil(s.board.config().gps.cold_start);
  std::vector<PowerSample> acquisition;
  s.manager.Sample(box, &acquisition, 1u << 20);
  s.kernel.RunUntil(s.board.config().gps.cold_start + Millis(50));
  ASSERT_EQ(s.board.gps().state(), GpsState::kOn);
  ExpectObservedSamplesMatchPsboxSample(s, box);
  const std::vector<PowerSample> tracking = s.manager.ObservedSamples(
      box, s.kernel.Now() - Millis(1), s.kernel.Now(),
      s.board.config().meter.sample_period, 0.0, nullptr);
  ASSERT_FALSE(tracking.empty());
  EXPECT_EQ(tracking.back().watts, s.board.config().gps.on_power);
}

// --- Power events (§8.2) -----------------------------------------------------

struct EventLog {
  std::vector<PowerEvent> events;
};

TEST(PowerEventsTest, HighPowerFiresOnSustainedLoad) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  PowerEventMonitor monitor(&s.kernel, &s.manager, box);
  auto log = std::make_shared<EventLog>();
  PowerEventSpec spec;
  spec.kind = PowerEventKind::kHighPower;
  spec.threshold = 1.0;
  spec.min_duration = 3 * kMillisecond;
  monitor.Register(spec, [log](const PowerEvent& e) { log->events.push_back(e); });
  s.kernel.RunUntil(Seconds(1));
  ASSERT_FALSE(log->events.empty());
  EXPECT_EQ(log->events.front().kind, PowerEventKind::kHighPower);
  EXPECT_GE(log->events.front().value, 1.0);
}

TEST(PowerEventsTest, HighPowerFiresOnDisplayBoundBox) {
  // The monitor reads the sandbox's own pixels (0.22 W), not the panel's
  // idle draw (0.08 W).
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  s.board.display().SetSurface(a, 0.4, 0.5);
  const int box = s.manager.CreateBox(a, {HwComponent::kDisplay});
  s.manager.EnterBox(box);
  PowerEventMonitor monitor(&s.kernel, &s.manager, box);
  auto log = std::make_shared<EventLog>();
  PowerEventSpec spec;
  spec.kind = PowerEventKind::kHighPower;
  spec.threshold = 0.15;
  spec.min_duration = 3 * kMillisecond;
  monitor.Register(spec, [log](const PowerEvent& e) { log->events.push_back(e); });
  s.kernel.RunUntil(Millis(200));
  ASSERT_FALSE(log->events.empty());
  EXPECT_EQ(log->events.front().value, s.board.display().AppPower(a));
}

TEST(PowerEventsTest, NoEventBelowThreshold) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  PowerEventMonitor monitor(&s.kernel, &s.manager, box);
  auto log = std::make_shared<EventLog>();
  PowerEventSpec spec;
  spec.kind = PowerEventKind::kHighPower;
  spec.threshold = 50.0;  // far above anything the board can draw
  monitor.Register(spec, [log](const PowerEvent& e) { log->events.push_back(e); });
  s.kernel.RunUntil(Seconds(1));
  EXPECT_TRUE(log->events.empty());
  EXPECT_GT(monitor.samples_processed(), 0u);
}

TEST(PowerEventsTest, FrequentSpikesDetected) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  // Spiky workload: short hot bursts separated by sleeps.
  s.kernel.SpawnTask(a, "t",
                     std::make_unique<FnBehavior>([phase = 0](TaskEnv&) mutable {
                       return (phase++ % 2 == 0)
                                  ? Action::Compute(3 * kMillisecond, 1.3)
                                  : Action::Sleep(7 * kMillisecond);
                     }));
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  PowerEventMonitor monitor(&s.kernel, &s.manager, box);
  auto log = std::make_shared<EventLog>();
  PowerEventSpec spec;
  spec.kind = PowerEventKind::kFrequentSpikes;
  spec.threshold = 1.0;
  spec.spike_count = 3;
  spec.window = 100 * kMillisecond;
  monitor.Register(spec, [log](const PowerEvent& e) { log->events.push_back(e); });
  s.kernel.RunUntil(Seconds(1));
  EXPECT_FALSE(log->events.empty());
}

TEST(PowerEventsTest, UnregisterStopsDelivery) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  s.kernel.SpawnTask(a, "t", std::make_unique<BusyBehavior>());
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  PowerEventMonitor monitor(&s.kernel, &s.manager, box);
  auto log = std::make_shared<EventLog>();
  PowerEventSpec spec;
  spec.kind = PowerEventKind::kHighPower;
  spec.threshold = 1.0;
  const int id =
      monitor.Register(spec, [log](const PowerEvent& e) { log->events.push_back(e); });
  s.kernel.RunUntil(Millis(200));
  const size_t seen = log->events.size();
  monitor.Unregister(id);
  s.kernel.RunUntil(Seconds(1));
  EXPECT_EQ(log->events.size(), seen);
}

TEST(PowerEventsTest, RisingTrendDetected) {
  TestStack s;
  const AppId a = s.kernel.CreateApp("a");
  // Monotonically intensifying duty cycle.
  s.kernel.SpawnTask(a, "t",
                     std::make_unique<FnBehavior>([step = 0](TaskEnv&) mutable {
                       ++step;
                       const auto busy = static_cast<DurationNs>(
                           std::min(9.0, 1.0 + step * 0.05) * kMillisecond);
                       return (step % 2 == 0) ? Action::Compute(busy, 1.2)
                                              : Action::Sleep(10 * kMillisecond -
                                                              busy);
                     }));
  const int box = s.manager.CreateBox(a, {HwComponent::kCpu});
  s.manager.EnterBox(box);
  PowerEventMonitor monitor(&s.kernel, &s.manager, box, 50 * kMillisecond);
  auto log = std::make_shared<EventLog>();
  PowerEventSpec spec;
  spec.kind = PowerEventKind::kRisingTrend;
  spec.rising_windows = 3;
  monitor.Register(spec, [log](const PowerEvent& e) { log->events.push_back(e); });
  s.kernel.RunUntil(Seconds(3));
  EXPECT_FALSE(log->events.empty());
}

}  // namespace
}  // namespace psbox
