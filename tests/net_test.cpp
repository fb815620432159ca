// Tests for the network stack: sockets, fair packet scheduling, temporal
// balloons for the WiFi NIC, and the reception limitation.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace psbox {
namespace {

struct NetApp {
  AppId app;
  Task* task;
};

// Repeatedly sends |bytes| with an optional response.
NetApp SpawnSender(TestStack& s, const std::string& name, size_t bytes,
                   size_t resp = 0, DurationNs resp_delay = kMillisecond,
                   DurationNs think = 0) {
  const AppId app = s.kernel.CreateApp(name);
  Task* task = s.kernel.SpawnTask(
      app, name,
      std::make_unique<FnBehavior>([bytes, resp, resp_delay, think,
                                    phase = 0](TaskEnv&) mutable {
        Action a;
        switch (phase % 3) {
          case 0:
            a = Action::Send(bytes, resp, resp_delay);
            break;
          case 1:
            a = Action::WaitNet();
            break;
          default:
            a = think > 0 ? Action::Sleep(think) : Action::Compute(100 * kMicrosecond);
            break;
        }
        ++phase;
        return a;
      }));
  return {app, task};
}

TEST(NetTest, SendCompletesAndWakes) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  Task* t = s.kernel.SpawnTask(
      app, "t",
      std::make_unique<ScriptBehavior>(std::vector<Action>{
          Action::Send(1500), Action::WaitNet(), Action::Compute(kMillisecond)}));
  s.kernel.RunUntil(Millis(20));
  EXPECT_EQ(t->state(), TaskState::kExited);
  EXPECT_EQ(s.kernel.net().stats().tx_frames, 1u);
  EXPECT_GE(s.kernel.net().BytesDelivered(app), 1500u);
}

TEST(NetTest, ResponseDeliveredAfterDelay) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  Task* t = s.kernel.SpawnTask(
      app, "t",
      std::make_unique<ScriptBehavior>(std::vector<Action>{
          Action::Send(500, /*response_bytes=*/8000, /*response_delay=*/Millis(5)),
          Action::WaitNet()}));
  s.kernel.RunUntil(Millis(3));
  EXPECT_EQ(t->state(), TaskState::kBlocked);
  s.kernel.RunUntil(Millis(30));
  EXPECT_EQ(t->state(), TaskState::kExited);
  EXPECT_EQ(s.kernel.net().stats().rx_frames, 1u);
  EXPECT_GE(s.kernel.net().BytesDelivered(app), 8500u);
}

TEST(NetTest, MultiChunkResponseStream) {
  TestStack s;
  const AppId app = s.kernel.CreateApp("a");
  Task* t = s.kernel.SpawnTask(
      app, "t",
      std::make_unique<ScriptBehavior>(std::vector<Action>{
          Action::Send(500, 4000, Millis(2), /*response_count=*/5),
          Action::WaitNet()}));
  s.kernel.RunUntil(Millis(60));
  EXPECT_EQ(t->state(), TaskState::kExited);
  EXPECT_EQ(s.kernel.net().stats().rx_frames, 5u);
}

TEST(NetTest, FairSharingByBytes) {
  TestStack s;
  NetApp a = SpawnSender(s, "a", 8 * 1024);
  NetApp b = SpawnSender(s, "b", 8 * 1024);
  s.kernel.RunUntil(Seconds(2));
  const double ba = static_cast<double>(s.kernel.net().BytesDelivered(a.app));
  const double bb = static_cast<double>(s.kernel.net().BytesDelivered(b.app));
  EXPECT_NEAR(ba / bb, 1.0, 0.1);
}

TEST(NetTest, BalloonInsulatesTx) {
  TestStack s;
  NetApp boxed = SpawnSender(s, "boxed", 4 * 1024, 0, kMillisecond,
                             /*think=*/3 * kMillisecond);
  NetApp other = SpawnSender(s, "other", 4 * 1024);
  const int box = s.manager.CreateBox(boxed.app, {HwComponent::kWifi});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Seconds(2));
  // No foreign TX frames inside ownership windows.
  const auto& owned = s.manager.sandbox(box).owned(HwComponent::kWifi);
  ASSERT_FALSE(owned.empty());
  size_t foreign_tx_inside = 0;
  for (const UsageRecord& r : s.kernel.ledger().records(HwComponent::kWifi)) {
    if (r.app == other.app && owned.Contains(r.begin + (r.end - r.begin) / 2)) {
      ++foreign_tx_inside;
    }
  }
  EXPECT_EQ(foreign_tx_inside, 0u);
}

TEST(NetTest, ReceptionCannotBeDeferred) {
  // The WiLink8 limitation (§5): RX frames reach the NIC regardless of an
  // active balloon and their power bleeds into the sandbox's observation.
  TestStack s;
  NetApp boxed = SpawnSender(s, "boxed", 2 * 1024, 0, kMillisecond,
                             /*think=*/2 * kMillisecond);
  const int box = s.manager.CreateBox(boxed.app, {HwComponent::kWifi});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(50));
  // Unsolicited RX for another app arrives mid-balloon.
  const AppId stranger = s.kernel.CreateApp("stranger");
  bool saw_rx_in_balloon = false;
  for (int i = 0; i < 50; ++i) {
    s.kernel.net().InjectRx(stranger, 16 * 1024);
    s.kernel.RunUntil(s.kernel.Now() + Millis(10));
  }
  for (const UsageRecord& r : s.kernel.ledger().records(HwComponent::kWifi)) {
    if (r.app == stranger &&
        s.manager.OwnedAt(box, HwComponent::kWifi,
                          r.begin + (r.end - r.begin) / 2)) {
      saw_rx_in_balloon = true;
    }
  }
  EXPECT_TRUE(saw_rx_in_balloon);
}

TEST(NetTest, LostOpportunityChargedToSandbox) {
  // With charging enabled the sandboxed sender ends up with at most the
  // plain sender's throughput; with charging ablated it can exceed it.
  auto delivered_ratio = [](bool charge) {
    KernelConfig cfg;
    cfg.net.charge_lost_opportunity = charge;
    TestStack s({}, cfg);
    NetApp boxed = SpawnSender(s, "boxed", 8 * 1024);
    NetApp other = SpawnSender(s, "other", 8 * 1024);
    const int box = s.manager.CreateBox(boxed.app, {HwComponent::kWifi});
    s.manager.EnterBox(box);
    s.kernel.RunUntil(Seconds(3));
    return static_cast<double>(s.kernel.net().BytesDelivered(boxed.app)) /
           static_cast<double>(s.kernel.net().BytesDelivered(other.app));
  };
  EXPECT_LT(delivered_ratio(true), delivered_ratio(false));
}

TEST(NetTest, PowerStateVirtualisedPerBox) {
  TestStack s;
  NetApp boxed = SpawnSender(s, "boxed", 2 * 1024, 0, kMillisecond,
                             /*think=*/2 * kMillisecond);
  // Give the global context a low-power state; the sandbox keeps defaults.
  WifiPowerState low;
  low.tx_power_level = 0;
  s.board.wifi().SetPowerState(low);
  const int box = s.manager.CreateBox(boxed.app, {HwComponent::kWifi});
  s.manager.EnterBox(box);
  s.kernel.RunUntil(Millis(100));
  // During the sandbox's balloon the NIC transmits at the sandbox's state
  // (default: high power level). The balloon may still be open; probe via
  // OwnedAt.
  bool saw_high_tx = false;
  bool saw_owned = false;
  for (TimeNs t = 0; t < Millis(100); t += 100 * kMicrosecond) {
    if (!s.manager.OwnedAt(box, HwComponent::kWifi, t)) {
      continue;
    }
    saw_owned = true;
    if (s.board.wifi_rail().PowerAt(t) == s.board.config().wifi.tx_power_high) {
      saw_high_tx = true;
    }
    EXPECT_NE(s.board.wifi_rail().PowerAt(t), s.board.config().wifi.tx_power_low);
  }
  EXPECT_TRUE(saw_owned);
  EXPECT_TRUE(saw_high_tx);
}

TEST(NetTest, BoxedContenderAwaitingRxHasNoHeadPacket) {
  // App B sends a request, then enters its box while the response is still
  // outstanding and app A's balloon serves. B now contends for the NIC (its
  // balloon must cover the response) with an empty TX queue. A's TX and RX
  // completions inside the balloon charge lost opportunities against the
  // contender's head packet; B has none, so it counts as 0 bytes. (Under
  // _GLIBCXX_ASSERTIONS, reading the front of B's empty queue aborts.)
  TestStack s;
  NetApp a = SpawnSender(s, "a", 8 * 1024, /*resp=*/2 * 1024);
  const AppId b = s.kernel.CreateApp("b");
  Task* b_task = s.kernel.SpawnTask(
      b, "b",
      std::make_unique<ScriptBehavior>(std::vector<Action>{
          Action::Sleep(Millis(2)),
          Action::Send(64 * 1024, /*response_bytes=*/4 * 1024,
                       /*response_delay=*/Millis(30)),
          Action::WaitNet(), Action::Compute(kMillisecond)}));
  const int box_a = s.manager.CreateBox(a.app, {HwComponent::kWifi});
  const int box_b = s.manager.CreateBox(b, {HwComponent::kWifi});
  s.manager.EnterBox(box_a);

  // Step until B's request has flown (B blocks on the response) and A holds
  // the NIC again, serving.
  NetStack& net = s.kernel.net();
  const auto a_serving = [&] {
    return net.balloon_owner() == a.app && !net.timeline().empty() &&
           net.timeline().back().kind == BalloonEdge::Kind::kServe;
  };
  while (s.kernel.Now() < Millis(100) &&
         !(net.BytesDelivered(b) >= 64 * 1024 && a_serving())) {
    s.kernel.RunUntil(s.kernel.Now() + 100 * kMicrosecond);
  }
  ASSERT_TRUE(a_serving()) << "A never served after B's request flew";
  ASSERT_EQ(b_task->state(), TaskState::kBlocked);
  ASSERT_LT(net.BytesDelivered(b), 68 * 1024u) << "response already arrived";
  s.manager.EnterBox(box_b);

  const uint64_t a_frames_before = net.stats().tx_frames;
  s.kernel.RunUntil(s.kernel.Now() + Millis(200));
  // B's response still lands and B finishes; A keeps transmitting.
  EXPECT_EQ(b_task->state(), TaskState::kExited);
  EXPECT_GE(net.BytesDelivered(b), 68 * 1024u);
  EXPECT_GT(net.stats().tx_frames, a_frames_before);
}

TEST(NetTest, TxLatencyTracked) {
  TestStack s;
  SpawnSender(s, "a", 16 * 1024);
  SpawnSender(s, "b", 16 * 1024);
  s.kernel.RunUntil(Seconds(1));
  EXPECT_GT(s.kernel.net().stats().total_tx_latency, 0);
  EXPECT_GT(s.kernel.net().stats().max_tx_latency, 0);
}

}  // namespace
}  // namespace psbox
