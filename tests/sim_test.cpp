// Unit tests for the discrete-event simulator.
//
// Beyond the basic contract, this suite pins the properties the indexed-heap
// engine must preserve: exact (time, insertion-seq) FIFO whatever the
// scheduling distance, cancel and re-arm of entries anywhere in the heap,
// safety under slot reuse (generation tags), deadline-inclusive RunUntil
// semantics, and bit-exact firing-order parity with the previous
// heap+hash-map engine under randomized event storms. The unit tests
// schedule through CallbackTarget; the storms fire records directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench/naive_simulator.h"
#include "src/sim/callback_target.h"
#include "src/sim/simulator.h"

namespace psbox {
namespace {

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  CallbackTarget cb(&sim);
  std::vector<int> order;
  cb.At(300, [&] { order.push_back(3); });
  cb.At(100, [&] { order.push_back(1); });
  cb.At(200, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300);
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  CallbackTarget cb(&sim);
  std::vector<int> order;
  cb.At(100, [&] { order.push_back(1); });
  cb.At(100, [&] { order.push_back(2); });
  cb.At(100, [&] { order.push_back(3); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  CallbackTarget cb(&sim);
  int fired = 0;
  cb.At(100, [&] { ++fired; });
  cb.At(200, [&] { ++fired; });
  sim.RunUntil(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 150);
  sim.RunUntil(250);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtDeadlineRuns) {
  Simulator sim;
  CallbackTarget cb(&sim);
  bool fired = false;
  cb.At(100, [&] { fired = true; });
  sim.RunUntil(100);
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  CallbackTarget cb(&sim);
  bool fired = false;
  const EventId id = cb.At(100, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, DoubleCancelIsNoop) {
  Simulator sim;
  CallbackTarget cb(&sim);
  const EventId id = cb.At(100, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(Simulator, CancelInvalidIdIsNoop) {
  Simulator sim;
  CallbackTarget cb(&sim);
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(9999));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  CallbackTarget cb(&sim);
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) {
      cb.After(10, step);
    }
  };
  cb.At(0, step);
  sim.RunToCompletion();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.Now(), 40);
}

TEST(Simulator, ScheduleAfterUsesNow) {
  Simulator sim;
  CallbackTarget cb(&sim);
  TimeNs seen = -1;
  cb.At(100, [&] {
    cb.After(50, [&] { seen = sim.Now(); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 150);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  CallbackTarget cb(&sim);
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(Simulator, PendingCount) {
  Simulator sim;
  CallbackTarget cb(&sim);
  cb.At(10, [] {});
  const EventId id = cb.At(20, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Cancel(id);
  sim.RunToCompletion();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.total_fired(), 1u);
}

// ---------------------------------------------------------------------------
// Guard rails (explicit past-time check + deadline-inclusive semantics).

TEST(SimulatorDeathTest, ScheduleInPastDies) {
  Simulator sim;
  CallbackTarget cb(&sim);
  sim.RunUntil(100);
  EXPECT_DEATH(cb.At(50, [] {}), "when >= now_");
}

TEST(SimulatorDeathTest, ScheduleAfterNegativeDelayDies) {
  Simulator sim;
  CallbackTarget cb(&sim);
  EXPECT_DEATH(cb.After(-1, [] {}), "delay >= 0");
}

TEST(SimulatorDeathTest, RescheduleIntoPastDies) {
  Simulator sim;
  CallbackTarget cb(&sim);
  sim.RunUntil(100);
  const EventId id = cb.At(200, [] {});
  EXPECT_DEATH(sim.Reschedule(id, 50), "when >= now_");
}

TEST(Simulator, RunUntilDeadlineInclusiveRegression) {
  // Events exactly at the deadline run; events one tick later do not, and a
  // repeated RunUntil at the same deadline fires nothing new. Probed at plain
  // times and at powers of two up to 2^32 ns.
  const TimeNs kDeadlines[] = {100, TimeNs{1} << 16, TimeNs{1} << 24,
                               TimeNs{1} << 32};
  for (const TimeNs deadline : kDeadlines) {
    Simulator sim;
    CallbackTarget cb(&sim);
    int at_deadline = 0;
    int after_deadline = 0;
    cb.At(deadline - 1, [] {});
    cb.At(deadline, [&] { ++at_deadline; });
    cb.At(deadline + 1, [&] { ++after_deadline; });
    EXPECT_EQ(sim.RunUntil(deadline), 2u);
    EXPECT_EQ(at_deadline, 1);
    EXPECT_EQ(after_deadline, 0);
    EXPECT_EQ(sim.Now(), deadline);
    EXPECT_EQ(sim.RunUntil(deadline), 0u);  // idempotent at the same deadline
    sim.RunUntil(deadline + 1);
    EXPECT_EQ(after_deadline, 1);
  }
}

// ---------------------------------------------------------------------------
// Ordering across scheduling distances.

TEST(Simulator, SameTimeFifoAcrossSchedulingDistances) {
  // Four events all fire at T = 6 s, but scheduled from different distances:
  // A from t=0, B from t=4.5 s, C from t=5.99 s, and D *during* A's callback
  // at T. Insertion order must hold exactly.
  constexpr TimeNs kT = 6'000'000'000;
  Simulator sim;
  CallbackTarget cb(&sim);
  std::vector<int> order;
  cb.At(kT, [&] {
    order.push_back(1);
    cb.At(kT, [&] { order.push_back(4); });
  });
  sim.RunUntil(4'500'000'000);
  cb.At(kT, [&] { order.push_back(2); });
  sim.RunUntil(5'990'000'000);
  cb.At(kT, [&] { order.push_back(3); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.Now(), kT);
}

TEST(Simulator, WheelBoundaryTimesFireExactly) {
  // Events straddling 2^16, 2^24 and 2^32 ns (the old timing wheel's level
  // boundaries), scheduled in descending order, must fire in ascending
  // (time, seq) order at their exact times.
  std::vector<TimeNs> times;
  for (const TimeNs base :
       {TimeNs{1} << 16, TimeNs{1} << 24, TimeNs{1} << 32}) {
    times.push_back(base - 1);
    times.push_back(base);
    times.push_back(base + 1);
  }
  Simulator sim;
  CallbackTarget cb(&sim);
  std::vector<TimeNs> fired;
  for (auto it = times.rbegin(); it != times.rend(); ++it) {
    const TimeNs t = *it;
    cb.At(t, [&fired, &sim] { fired.push_back(sim.Now()); });
  }
  sim.RunToCompletion();
  EXPECT_EQ(fired, times);
}

// ---------------------------------------------------------------------------
// Cancellation, slot reuse, and re-arm.

TEST(Simulator, CancelHeavyReArmLeavesNoResidue) {
  Simulator sim;
  CallbackTarget cb(&sim);
  // One far-future survivor, then a burst of cancelled timers (the re-armed
  // watchdog pattern). Cancelled events free their slot immediately, so the
  // slot working set stays at the concurrent high-water mark instead of
  // accumulating per-cancel residue.
  bool survivor_fired = false;
  cb.At(1'000'000, [&] { survivor_fired = true; });
  for (int i = 0; i < 1000; ++i) {
    const EventId id = cb.At(100 + i, [] {});
    EXPECT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.stats().cancelled, 1000u);
  sim.RunToCompletion();
  EXPECT_TRUE(survivor_fired);
  EXPECT_EQ(sim.total_fired(), 1u);
}

TEST(Simulator, CancellingMostFarEventsKeepsSurvivorOrder) {
  Simulator sim;
  CallbackTarget cb(&sim);
  // Cancelling most of a batch of far-future events must leave exactly the
  // survivors pending, still in (time, seq) order.
  constexpr TimeNs kFar = 10'000'000'000;  // 10 s
  std::vector<int> order;
  std::vector<EventId> doomed;
  cb.At(kFar + 500, [&] { order.push_back(5); });
  cb.At(kFar + 100, [&] { order.push_back(1); });
  cb.At(kFar + 100, [&] { order.push_back(2); });  // same-time FIFO
  for (int i = 0; i < 100; ++i) {
    doomed.push_back(cb.At(kFar + 200 + i, [] {}));
  }
  cb.At(kFar + 300, [&] { order.push_back(3); });
  for (const EventId id : doomed) {
    EXPECT_TRUE(sim.Cancel(id));
  }
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5}));
}

TEST(Simulator, GenerationGuardsRetiredIdsUnderSlabReuse) {
  Simulator sim;
  CallbackTarget cb(&sim);
  bool first_fired = false;
  bool second_fired = false;
  const EventId id1 = cb.At(100, [&] { first_fired = true; });
  EXPECT_TRUE(sim.Cancel(id1));
  // The freed slot is recycled immediately; the retired handle must not
  // alias the new occupant.
  const EventId id2 = cb.At(200, [&] { second_fired = true; });
  EXPECT_NE(id1, id2);
  EXPECT_FALSE(sim.IsPending(id1));
  EXPECT_TRUE(sim.IsPending(id2));
  EXPECT_FALSE(sim.Cancel(id1));  // stale handle: no-op, id2 unharmed
  EXPECT_TRUE(sim.IsPending(id2));
  sim.RunToCompletion();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  EXPECT_EQ(sim.total_fired(), 1u);
}

TEST(Simulator, ReArmLoopReusesOneSlot) {
  Simulator sim;
  CallbackTarget cb(&sim);
  // Cancel+schedule a timer thousands of times: the slot high-water mark
  // must stay at one slot and nothing but the last arming fires.
  int fires = 0;
  EventId id = cb.At(1000, [&] { ++fires; });
  for (int i = 1; i <= 5000; ++i) {
    EXPECT_TRUE(sim.Cancel(id));
    id = cb.At(1000 + i, [&] { ++fires; });
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  sim.RunToCompletion();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.total_fired(), 1u);
}

TEST(Simulator, RescheduleMovesEventKeepingClosure) {
  Simulator sim;
  CallbackTarget cb(&sim);
  std::vector<TimeNs> fired_at;
  const EventId id = cb.After(1'000'000, [&] {
    fired_at.push_back(sim.Now());
  });
  const EventId id2 = sim.Reschedule(id, 2'000'000);
  ASSERT_NE(id2, kInvalidEventId);
  EXPECT_NE(id2, id);
  EXPECT_FALSE(sim.IsPending(id));  // old handle retired
  EXPECT_TRUE(sim.IsPending(id2));
  sim.RunToCompletion();
  EXPECT_EQ(fired_at, (std::vector<TimeNs>{2'000'000}));
  EXPECT_EQ(sim.total_fired(), 1u);
}

TEST(Simulator, RescheduleAcrossQueueLevels) {
  Simulator sim;
  CallbackTarget cb(&sim);
  // Moves from 10 s to 5 us and from 1 us to 20 s must both land exactly.
  TimeNs near_fired = 0;
  TimeNs far_fired = 0;
  const EventId toward = cb.At(10'000'000'000, [&] {
    near_fired = sim.Now();
  });
  const EventId away = cb.At(1'000, [&] { far_fired = sim.Now(); });
  EXPECT_NE(sim.Reschedule(toward, 5'000), kInvalidEventId);
  EXPECT_NE(sim.Reschedule(away, 20'000'000'000), kInvalidEventId);
  sim.RunToCompletion();
  EXPECT_EQ(near_fired, 5'000);
  EXPECT_EQ(far_fired, 20'000'000'000);
}

TEST(Simulator, InteriorCancelAndRescheduleKeepKeyOrder) {
  Simulator sim;
  CallbackTarget cb(&sim);
  std::vector<int> fired;
  std::vector<EventId> ids;
  // Each event's key: its time and the seq it was (re)scheduled under.
  std::vector<std::pair<TimeNs, uint64_t>> keys;
  // 32 events, two per time from 100 to 1600, so the heap is five levels
  // deep and every time is a tie.
  for (int i = 0; i < 32; ++i) {
    const TimeNs when = 100 * (i / 2 + 1);
    keys.emplace_back(when, sim.next_seq());
    ids.push_back(cb.At(when, [&fired, i] { fired.push_back(i); }));
  }
  // Cancel interior entries, neither the earliest nor the latest.
  for (const int i : {5, 11, 12, 20, 27}) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
  }
  // Re-key events earlier (to the front, into a tie) and later (into a
  // tie, past everything), each under the next insertion seq.
  const std::pair<int, TimeNs> moves[] = {
      {30, 100}, {25, 400}, {2, 1600}, {8, 2000}, {14, 50}, {31, 1500}};
  for (const auto& [i, when] : moves) {
    const uint64_t seq = sim.next_seq();
    EventId& id = ids[static_cast<size_t>(i)];
    id = sim.Reschedule(id, when);
    ASSERT_NE(id, kInvalidEventId);
    EXPECT_EQ(sim.next_seq(), seq + 1) << "event " << i;
    keys[static_cast<size_t>(i)] = {when, seq};
  }
  // The firing order is the (time, seq) order of what is still pending:
  // sifting entries around moved no other key.
  std::vector<std::tuple<TimeNs, uint64_t, int>> pending;
  for (int i = 0; i < 32; ++i) {
    if (sim.IsPending(ids[static_cast<size_t>(i)])) {
      const auto& [when, seq] = keys[static_cast<size_t>(i)];
      pending.emplace_back(when, seq, i);
    }
  }
  ASSERT_EQ(pending.size(), 27u);
  EXPECT_EQ(sim.pending_events(), 27u);
  std::sort(pending.begin(), pending.end());
  std::vector<int> expected;
  for (const auto& key : pending) {
    expected.push_back(std::get<2>(key));
  }
  EXPECT_EQ(expected.front(), 14);
  EXPECT_EQ(expected.back(), 8);
  sim.RunToCompletion();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.Now(), 2000);
}

// CallbackTarget reclaims the table entries of cancelled callbacks as its
// table grows; a rescheduled callback keeps its entry and fires once, where
// it was moved to.
TEST(Simulator, CallbackTargetReclaimsCancelledEntries) {
  Simulator sim;
  CallbackTarget cb(&sim);
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(cb.At(100 + i, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(sim.Cancel(ids[static_cast<size_t>(i)]));
  }
  for (int i = 30; i < 35; ++i) {
    EXPECT_NE(sim.Reschedule(ids[static_cast<size_t>(i)], 1000 + i),
              kInvalidEventId);
  }
  // Past the 40 stored entries the next schedules sweep the cancelled ones
  // and reuse their entries.
  for (int i = 40; i < 80; ++i) {
    cb.At(500 + i, [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(sim.pending_events(), 50u);
  sim.RunToCompletion();
  std::vector<int> expected;
  for (int i = 35; i < 40; ++i) {
    expected.push_back(i);
  }
  for (int i = 40; i < 80; ++i) {
    expected.push_back(i);
  }
  for (int i = 30; i < 35; ++i) {
    expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);
}

TEST(Simulator, RescheduleOfDeadEventReturnsInvalid) {
  Simulator sim;
  CallbackTarget cb(&sim);
  const EventId cancelled = cb.At(100, [] {});
  sim.Cancel(cancelled);
  EXPECT_EQ(sim.Reschedule(cancelled, 200), kInvalidEventId);
  const EventId fired = cb.At(100, [] {});
  sim.RunUntil(100);
  EXPECT_EQ(sim.Reschedule(fired, 200), kInvalidEventId);
  EXPECT_EQ(sim.Reschedule(kInvalidEventId, 200), kInvalidEventId);
}

// ---------------------------------------------------------------------------
// Differential storm: the rebuilt engine must replay randomized workloads in
// exactly the firing order of the previous heap+hash-map engine (preserved in
// bench/naive_simulator.h).

// The Simulator fires the driver's records (a: the label, b: the chain); the
// naive engine its closures.
template <typename Engine>
struct StormDriver final : EventTarget {
  Engine eng;
  TargetId target = 0;
  std::vector<std::pair<int, TimeNs>> log;
  std::vector<size_t> pending_trace;
  struct Tracked {
    EventId id;
    int label;
    int chain;
  };
  std::vector<Tracked> live;
  int next_label = 0;

  StormDriver() {
    if constexpr (std::is_same_v<Engine, Simulator>) {
      target = eng.AddTarget(this, {"storm"});
    }
  }

  EventId Schedule(TimeNs when, int label, int chain) {
    if constexpr (std::is_same_v<Engine, Simulator>) {
      return eng.ScheduleAt(when, target, 0, static_cast<uint64_t>(label),
                            static_cast<uint64_t>(chain));
    } else {
      return eng.ScheduleAt(when, [this, label, chain] { Fire(label, chain); });
    }
  }

  void OnEvent(uint8_t /*kind*/, uint64_t a, uint64_t b) override {
    Fire(static_cast<int>(a), static_cast<int>(b));
  }

  void Fire(int label, int chain) {
    log.emplace_back(label, eng.Now());
    if (chain > 0) {
      // Deterministic follow-up derived from the label only.
      Schedule(eng.Now() + 1 + (label % 7) * 1'000, label + 100'000,
               chain - 1);
    }
  }

  // Moves tracked event |idx| to |when|, via Reschedule when the engine has
  // it and cancel+recreate (an identical event) otherwise — the two idioms
  // the engine contract requires to be order-equivalent.
  void Move(size_t idx, TimeNs when) {
    Tracked& t = live[idx];
    if constexpr (requires(Engine& e) { e.Reschedule(t.id, when); }) {
      const EventId nid = eng.Reschedule(t.id, when);
      if (nid == kInvalidEventId) {
        Drop(idx);
      } else {
        t.id = nid;
      }
    } else {
      if (eng.Cancel(t.id)) {
        t.id = Schedule(when, t.label, t.chain);
      } else {
        Drop(idx);
      }
    }
  }

  void Drop(size_t idx) {
    live[idx] = live.back();
    live.pop_back();
  }

  void Prune() {
    for (size_t i = live.size(); i-- > 0;) {
      if (!eng.IsPending(live[i].id)) {
        Drop(i);
      }
    }
  }
};

// Mixed-horizon delay: half up to 262 us, then up to 40 ms, a far tail up to
// 60 s, and exact zero-delay events.
DurationNs StormDelay(uint64_t r) {
  const uint64_t m = r % 100;
  const uint64_t v = r / 100;
  if (m < 5) {
    return 0;
  }
  if (m < 55) {
    return static_cast<DurationNs>(v % (4u << 16));
  }
  if (m < 85) {
    return static_cast<DurationNs>(v % 40'000'000);
  }
  if (m < 96) {
    return static_cast<DurationNs>(v % 6'000'000'000);  // up to 6 s
  }
  return static_cast<DurationNs>(v % 60'000'000'000);  // up to 60 s
}

DurationNs StormAdvance(uint64_t a, uint64_t b) {
  const uint64_t m = b % 10;
  return m < 7   ? static_cast<DurationNs>(a % 20'000'000)
         : m < 9 ? static_cast<DurationNs>(a % 1'000'000'000)
                 : static_cast<DurationNs>(a % 10'000'000'000);
}

// Fleet-shaped delay, as one board of a steady fleet sees its timers: on a
// 1 ms grid (ticks, watchdogs, balloon edges), so many events share a time,
// with zero-delay hand-offs and an occasional epoch-length timer.
DurationNs FleetDelay(uint64_t r) {
  const uint64_t m = r % 100;
  const uint64_t v = r / 100;
  if (m < 10) {
    return 0;
  }
  if (m < 90) {
    return static_cast<DurationNs>(1 + v % 24) * 1'000'000;
  }
  return static_cast<DurationNs>(1 + v % 200) * 1'000'000;
}

// Advances on the same 1 ms grid, one or two ticks at a time.
DurationNs FleetAdvance(uint64_t a, uint64_t /*b*/) {
  return static_cast<DurationNs>(1 + a % 2) * 1'000'000;
}

struct StormOp {
  uint32_t kind;
  uint64_t a;
  uint64_t b;
};

// One storm input: its op sequence, delay and advance shapes, the longest
// follow-up chain a schedule starts, and a cap on the tracked events (a
// schedule at the cap re-arms one instead; 0: none).
struct Storm {
  const char* name;
  std::vector<StormOp> ops;
  DurationNs (*delay)(uint64_t);
  DurationNs (*advance)(uint64_t, uint64_t);
  uint64_t max_chain;
  size_t max_live;
};

// |n| ops in the given percentages of schedule, cancel and re-arm; the rest
// advance the clock.
std::vector<StormOp> StormOps(uint64_t seed, int n, uint64_t schedule_pct,
                              uint64_t cancel_pct, uint64_t rearm_pct) {
  std::mt19937_64 rng(seed);
  std::vector<StormOp> ops;
  ops.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const uint64_t k = rng() % 100;
    const uint32_t kind = k < schedule_pct                           ? 0
                          : k < schedule_pct + cancel_pct             ? 1
                          : k < schedule_pct + cancel_pct + rearm_pct ? 2
                                                                      : 3;
    ops.push_back({kind, rng(), rng()});
  }
  return ops;
}

template <typename Engine>
void RunStorm(StormDriver<Engine>& d, const Storm& storm) {
  for (const StormOp& op : storm.ops) {
    uint32_t kind = op.kind;
    if (kind == 0 && storm.max_live > 0 && d.live.size() >= storm.max_live) {
      kind = 2;
    }
    switch (kind) {
      case 0: {  // schedule
        const TimeNs when = d.eng.Now() + storm.delay(op.a);
        const int label = d.next_label++;
        const int chain = static_cast<int>(op.b % (storm.max_chain + 1));
        d.live.push_back({d.Schedule(when, label, chain), label, chain});
        break;
      }
      case 1: {  // cancel
        if (!d.live.empty()) {
          const size_t idx = op.a % d.live.size();
          d.eng.Cancel(d.live[idx].id);
          d.Drop(idx);
        }
        break;
      }
      case 2: {  // re-arm
        if (!d.live.empty()) {
          const size_t idx = op.a % d.live.size();
          d.Move(idx, d.eng.Now() + storm.delay(op.b));
        }
        break;
      }
      default: {  // advance
        d.eng.RunUntil(d.eng.Now() + storm.advance(op.a, op.b));
        d.Prune();
        break;
      }
    }
    d.pending_trace.push_back(d.eng.pending_events());
  }
  d.eng.RunToCompletion();
}

TEST(Simulator, StormFiringOrderMatchesNaiveEngine) {
  std::vector<Storm> storms;
  for (const uint64_t seed : {0xC0FFEEu, 0xBADF00Du, 0x5EEDu}) {
    // 55% schedule, 15% cancel, 15% re-arm, 15% advance.
    storms.push_back({"mixed horizon", StormOps(seed, 600, 55, 15, 15),
                      &StormDelay, &StormAdvance, 2, 0});
  }
  // Fleet-shaped: about 16 events pending, same-time ties on the 1 ms grid,
  // and a cancel (direct or by re-arm) for roughly 40% of fires.
  storms.push_back({"fleet", StormOps(0xF1EE7u, 20'000, 55, 4, 10),
                    &FleetDelay, &FleetAdvance, 0, 24});
  for (const Storm& storm : storms) {
    SCOPED_TRACE(storm.name);
    StormDriver<Simulator> fast;
    StormDriver<NaiveSimulator> naive;
    RunStorm(fast, storm);
    RunStorm(naive, storm);
    ASSERT_EQ(fast.log, naive.log);
    EXPECT_EQ(fast.pending_trace, naive.pending_trace);
    EXPECT_EQ(fast.eng.total_fired(), naive.eng.total_fired());
    EXPECT_EQ(fast.eng.Now(), naive.eng.Now());
    if (storm.max_live == 0) {
      continue;
    }
    // The fleet input must keep the shape it claims.
    size_t pending_sum = 0;
    for (const size_t p : fast.pending_trace) {
      pending_sum += p;
    }
    const double mean_pending = static_cast<double>(pending_sum) /
                                static_cast<double>(fast.pending_trace.size());
    const Simulator::EngineStats& st = fast.eng.stats();
    const double cancels_per_fire =
        static_cast<double>(st.cancelled + st.rescheduled) /
        static_cast<double>(fast.eng.total_fired());
    size_t ties = 0;
    for (size_t i = 1; i < fast.log.size(); ++i) {
      ties += fast.log[i].second == fast.log[i - 1].second ? 1 : 0;
    }
    EXPECT_GT(mean_pending, 12.0);
    EXPECT_LT(mean_pending, 20.0);
    EXPECT_GT(cancels_per_fire, 0.3);
    EXPECT_LT(cancels_per_fire, 0.5);
    EXPECT_GT(ties, fast.log.size() / 4);
  }
}

}  // namespace
}  // namespace psbox
