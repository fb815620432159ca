// The uniform ResourceDomain surface: every sandboxed resource reports the
// same DomainStats with the same invariants, and the kernel registry covers
// every HwComponent — balloon-carrying policies for CPU/GPU/DSP/WiFi/storage
// and trace-supplying policies for the §7 entanglement-free display and GPS.
// Also the decision table of the FairQueue the temporal drivers share.

#include <gtest/gtest.h>

#include <limits>

#include "src/kernel/fair_queue.h"
#include "src/workloads/table5_apps.h"
#include "tests/test_util.h"

namespace psbox {
namespace {

using Factory = AppHandle (*)(Kernel&, const std::string&, AppOptions);

struct DomainCase {
  HwComponent hw;
  Factory factory;  // spawns an app exercising exactly this component's domain
};

class DomainStatsParity : public ::testing::TestWithParam<DomainCase> {};

TEST_P(DomainStatsParity, InvariantsHoldOnEveryDomain) {
  const DomainCase c = GetParam();
  TestStack s;
  AppOptions sandboxed;
  sandboxed.deadline = Millis(600);
  sandboxed.use_psbox = true;
  c.factory(s.kernel, "boxed", sandboxed);
  // A same-kind competitor so balloons actually have someone to drain.
  AppOptions plain;
  plain.deadline = Millis(600);
  c.factory(s.kernel, "rival", plain);

  s.kernel.RunUntil(Millis(300));
  const DomainStats mid = s.kernel.domain(c.hw).domain_stats();
  s.kernel.RunUntil(Millis(700));
  const DomainStats end = s.kernel.domain(c.hw).domain_stats();

  // The sandboxed app got balloons, and the counters are well-formed.
  EXPECT_GT(end.balloons, 0u) << HwComponentName(c.hw);
  EXPECT_GT(end.total_balloon_time, 0) << HwComponentName(c.hw);
  EXPECT_LE(end.aborted, end.balloons) << HwComponentName(c.hw);

  // Monotonicity across snapshots.
  EXPECT_GE(end.balloons, mid.balloons) << HwComponentName(c.hw);
  EXPECT_GE(end.total_balloon_time, mid.total_balloon_time)
      << HwComponentName(c.hw);
  EXPECT_GE(end.aborted, mid.aborted) << HwComponentName(c.hw);

  // Recovery actions only ever happen under fault injection.
  EXPECT_EQ(end.recoveries, 0u) << HwComponentName(c.hw);
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, DomainStatsParity,
    ::testing::Values(DomainCase{HwComponent::kCpu, &SpawnCalib3d},
                      DomainCase{HwComponent::kGpu, &SpawnTriangle},
                      DomainCase{HwComponent::kDsp, &SpawnSgemm},
                      DomainCase{HwComponent::kWifi, &SpawnScp},
                      DomainCase{HwComponent::kStorage, &SpawnMediaScan}),
    [](const ::testing::TestParamInfo<DomainCase>& info) {
      return std::string(HwComponentName(info.param.hw));
    });

TEST(DomainRegistryTest, TypedAccessorsAliasTheRegistry) {
  TestStack s;
  EXPECT_EQ(&s.kernel.domain(HwComponent::kCpu),
            static_cast<ResourceDomain*>(&s.kernel.scheduler()));
  EXPECT_EQ(&s.kernel.domain(HwComponent::kGpu),
            static_cast<ResourceDomain*>(&s.kernel.gpu_driver()));
  EXPECT_EQ(&s.kernel.domain(HwComponent::kDsp),
            static_cast<ResourceDomain*>(&s.kernel.dsp_driver()));
  EXPECT_EQ(&s.kernel.domain(HwComponent::kWifi),
            static_cast<ResourceDomain*>(&s.kernel.net()));
  EXPECT_EQ(&s.kernel.domain(HwComponent::kStorage),
            static_cast<ResourceDomain*>(&s.kernel.storage_driver()));
}

TEST(DomainRegistryTest, RegistryCoversEveryComponent) {
  TestStack s;
  for (size_t i = 0; i < kNumHwComponents; ++i) {
    const HwComponent hw = static_cast<HwComponent>(i);
    EXPECT_NE(s.kernel.FindDomain(hw), nullptr) << HwComponentName(hw);
  }
}

TEST(DomainRegistryTest, EntanglementFreeDomainsCarryNoBalloonProtocol) {
  TestStack s;
  // Display and GPS take the §7 entanglement-free path: thin pass-through
  // policies whose balloon counters stay at zero forever, and which hand the
  // virtual meter a trace the sandbox owns outright.
  for (HwComponent hw : {HwComponent::kDisplay, HwComponent::kGps}) {
    ResourceDomain& domain = s.kernel.domain(hw);
    EXPECT_NE(domain.AppPowerTrace(/*app=*/0), nullptr) << HwComponentName(hw);
    domain.SetSandboxed(/*app=*/0, /*box=*/1);  // arming is a no-op
    s.kernel.RunUntil(Millis(50));
    const DomainStats stats = domain.domain_stats();
    EXPECT_EQ(stats.balloons, 0u) << HwComponentName(hw);
    EXPECT_EQ(stats.aborted, 0u) << HwComponentName(hw);
    EXPECT_EQ(domain.balloon_owner(), kNoApp) << HwComponentName(hw);
    EXPECT_TRUE(domain.timeline().empty()) << HwComponentName(hw);
  }
  // Balloon-metered domains keep no such trace: the meter reads the board's
  // rail inside their balloon spans.
  for (HwComponent hw : {HwComponent::kCpu, HwComponent::kGpu, HwComponent::kDsp,
                         HwComponent::kWifi, HwComponent::kStorage}) {
    EXPECT_EQ(s.kernel.domain(hw).AppPowerTrace(/*app=*/0), nullptr)
        << HwComponentName(hw);
  }
}

TEST(DomainRegistryTest, DriverForRejectsNonAccelerators) {
  TestStack s;
  EXPECT_DEATH(s.kernel.DriverFor(HwComponent::kWifi), "not an accelerator");
}

// --- the shared fair queue ---------------------------------------------------

constexpr DurationNs kWindow = 50 * kMillisecond;
constexpr double kLead = 1000.0;

struct FairQueueTest : ::testing::Test {
  using Queue = FairQueue<int, int>;
  using Verdict = Queue::Verdict;

  FairQueueTest() { sim.RunUntil(Seconds(1)); }

  // A lane with |served| service and |queued| items.
  Queue::Lane& Put(AppId app, double served, int queued,
                   bool sandboxed = false) {
    Queue::Lane& l = queue[app];
    l.served = served;
    l.q.assign(static_cast<size_t>(queued), 0);
    l.sandboxed = sandboxed;
    return l;
  }

  Simulator sim;
  int pumps = 0;
  Queue queue{&sim, "queue", kWindow, kLead, kMillisecond, [this] { ++pumps; }};
};

TEST_F(FairQueueTest, TiesGoToTheLowestAppId) {
  Put(7, 5.0, 1);
  Put(3, 5.0, 1);
  Put(5, 6.0, 1);
  EXPECT_EQ(queue.Best(), 3);
  const Queue::Pick pick = queue.Next();
  EXPECT_EQ(pick.verdict, Verdict::kDispatch);
  EXPECT_EQ(pick.app, 3);
}

TEST_F(FairQueueTest, UnsandboxedHeadDispatches) {
  Put(1, 0.0, 1);
  Put(2, 10.0, 1, /*sandboxed=*/true);
  const Queue::Pick pick = queue.Next();
  EXPECT_EQ(pick.verdict, Verdict::kDispatch);
  EXPECT_EQ(pick.app, 1);
  queue[1].q.clear();
  EXPECT_EQ(queue.Next().verdict, Verdict::kBalloon);
  queue[2].q.clear();
  EXPECT_EQ(queue.Next().verdict, Verdict::kIdle);
}

TEST_F(FairQueueTest, SandboxedHeadBalloonsUpToTheLead) {
  // App 1 was served recently and has nothing queued: the competitor.
  Put(1, 0.0, 0).last_seen = sim.Now();
  Put(2, kLead, 1, /*sandboxed=*/true);
  Queue::Pick pick = queue.Next();
  EXPECT_EQ(pick.verdict, Verdict::kBalloon);
  EXPECT_EQ(pick.app, 2);

  // One past the lead: still repaying, and nobody else has work.
  queue[2].served = kLead + 1.0;
  EXPECT_EQ(queue.Next().verdict, Verdict::kHold);

  // The least-served unsandboxed app with queued work goes instead; a
  // sandboxed one does not.
  Put(3, 3000.0, 1, /*sandboxed=*/true);
  Put(4, 2500.0, 1);
  Put(5, 2000.0, 1);
  pick = queue.Next();
  EXPECT_EQ(pick.verdict, Verdict::kDispatch);
  EXPECT_EQ(pick.app, 5);
}

TEST_F(FairQueueTest, CompetitorsAreQueuedOrSeenWithinTheWindow) {
  constexpr double kNone = std::numeric_limits<double>::infinity();
  Queue::Lane& head = Put(1, kLead + 1.0, 1, /*sandboxed=*/true);
  Queue::Lane& rival = Put(2, 0.0, 0);
  EXPECT_EQ(queue.MinRecentCompetitor(1), kNone);  // never seen
  EXPECT_EQ(queue.Next().verdict, Verdict::kBalloon);

  rival.last_seen = sim.Now() - kWindow;
  EXPECT_EQ(queue.MinRecentCompetitor(1), 0.0);
  EXPECT_EQ(queue.Next().verdict, Verdict::kHold);

  rival.last_seen = sim.Now() - kWindow - 1;
  EXPECT_EQ(queue.MinRecentCompetitor(1), kNone);
  EXPECT_EQ(queue.Next().verdict, Verdict::kBalloon);

  rival.q.push_back(0);
  EXPECT_EQ(queue.MinRecentCompetitor(1), 0.0);
  // The owner never competes with itself.
  head.last_seen = sim.Now();
  EXPECT_EQ(queue.MinRecentCompetitor(2), kLead + 1.0);
}

TEST_F(FairQueueTest, OwedResponsesMakeASandboxedAppWantTheDevice) {
  Put(1, 0.0, 0).owed = 2;
  EXPECT_EQ(queue.Best(), kNoApp);  // unsandboxed: reception needs no balloon
  Put(2, 5.0, 0, /*sandboxed=*/true).owed = 1;
  EXPECT_EQ(queue.Best(), 2);
  const Queue::Pick pick = queue.Next();
  EXPECT_EQ(pick.verdict, Verdict::kBalloon);
  EXPECT_EQ(pick.app, 2);
}

TEST_F(FairQueueTest, BestSkipsTheOwner) {
  Put(1, 0.0, 1, /*sandboxed=*/true);
  Put(2, 5.0, 1);
  EXPECT_EQ(queue.Best(1), 2);
  EXPECT_EQ(queue.Best(2), 1);
  queue[2].q.clear();
  EXPECT_EQ(queue.Best(1), kNoApp);
}

TEST_F(FairQueueTest, QuietOnceNothingIsQueuedOwedOrRecent) {
  const TimeNs cutoff = sim.Now();
  EXPECT_TRUE(queue.Quiet(9, cutoff));  // no lane at all
  Queue::Lane& l = Put(1, 0.0, 1);
  l.last_seen = cutoff - kWindow - 1;
  EXPECT_FALSE(queue.Quiet(1, cutoff));  // queued
  l.q.clear();
  l.owed = 1;
  EXPECT_FALSE(queue.Quiet(1, cutoff));  // owed
  l.owed = 0;
  EXPECT_TRUE(queue.Quiet(1, cutoff));
  l.last_seen = cutoff - kWindow;
  EXPECT_FALSE(queue.Quiet(1, cutoff));  // a competitor until the window ends
}

TEST_F(FairQueueTest, HoldArmsOneRetry) {
  queue.Hold();
  queue.Hold();
  sim.RunUntil(sim.Now() + kMillisecond - 1);
  EXPECT_EQ(pumps, 0);
  sim.RunUntil(sim.Now() + 1);
  EXPECT_EQ(pumps, 1);
  queue.Hold();
  queue.PumpAt(sim.Now());
  sim.RunUntil(sim.Now() + kMillisecond);
  EXPECT_EQ(pumps, 3);
}

}  // namespace
}  // namespace psbox
