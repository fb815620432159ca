// Event-engine microbench: the Simulator (an indexed binary heap over a slot
// array of event records) vs the pre-rewrite engine, preserved verbatim as
// NaiveSimulator (binary heap + per-event std::function in a hash map +
// tombstoned cancels).
//
//   ./micro_engine [--json PATH]
//   ./micro_engine --gbench [google-benchmark args...]
//
// Default mode replays the same deterministic workload through both engines,
// cross-checks the firing-order hash (and final clock / fired counts) so the
// comparison can never silently measure diverging behaviour, then reports
// wall time and speedup to stdout and JSON (default BENCH_engine.json) for
// CI trend tracking. Cases:
//   schedule_fire  — bulk one-shot timers: schedule a batch, drain, repeat.
//                    Record slots vs per-event allocation, both heap-sifted.
//   cancel_rearm   — the watchdog/completion-timer pattern from the kernel
//                    drivers: a small population of timers each cancelled and
//                    re-armed every tick, firing only across occasional long
//                    gaps. Cancel+schedule on BOTH engines (the naive
//                    engine's only re-arm path).
//   reschedule     — same workload, but the Simulator uses its in-place
//                    Reschedule() while the naive engine still pays
//                    Cancel+schedule; measures what the driver call sites
//                    actually run today.
//   mixed_horizon  — randomized schedule/cancel/advance churn with delays
//                    from zero to 60 s.
//
// These are dense storms: cancel_rearm and reschedule keep 64 timers
// pending and re-arm every one of them every tick. A board of a perfbench
// fleet holds about 16 pending events, so these cases are not the fleet's
// traffic (perfbench measures that); the Simulator's heap is chosen for the
// fleet and is not tuned to them (DESIGN.md §10).
//
// --gbench runs the original google-benchmark suite (engine plus StepTrace /
// DTW / whole-kernel cases, and the snapshot CRC-32 per kernel) for
// fine-grained per-op numbers.

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/naive_simulator.h"
#include "src/accounting/power_splitter.h"
#include "src/analysis/dtw.h"
#include "src/base/rng.h"
#include "src/sim/simulator.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {
namespace {

// ---------------------------------------------------------------------------
// Differential comparison harness (default mode).

double MillisBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct CaseResult {
  std::string name;
  uint64_t work = 0;  // schedules + cancels + re-arms driven through the engine
  uint64_t fired = 0;
  double naive_ms = 0.0;
  double fast_ms = 0.0;
  double speedup() const { return fast_ms > 0.0 ? naive_ms / fast_ms : 0.0; }
};

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

// What one workload run produced; every field must match across engines.
struct RunOutcome {
  uint64_t order_hash = kFnvOffset;  // FNV over (fire time, label), in order
  uint64_t fired = 0;
  uint64_t work = 0;
  TimeNs end = 0;
  uint64_t total_fired = 0;  // the engine's own counters at the end
  size_t pending = 0;

  void Fired(TimeNs now, uint64_t label) {
    order_hash = Mix(Mix(order_hash, static_cast<uint64_t>(now)), label);
    ++fired;
  }
  template <class Engine>
  void Finish(Engine& e) {
    end = e.eng.Now();
    total_fired = e.eng.total_fired();
    pending = e.eng.pending_events();
  }
};

// The engines under test behind the surface the workloads drive: At(when,
// label) schedules an event that runs |fire(now, label)|. The naive engine
// wraps a closure per event, as the old engine always did; the Simulator
// fires a record of its one bench target, as the models do.
template <class Fire>
class NaiveEngine {
 public:
  explicit NaiveEngine(Fire fire) : fire_(std::move(fire)) {}
  EventId At(TimeNs when, uint64_t label) {
    return eng.ScheduleAt(when, [this, label] { fire_(eng.Now(), label); });
  }
  NaiveSimulator eng;

 private:
  Fire fire_;
};

template <class Fire>
class RecordEngine final : public EventTarget {
 public:
  explicit RecordEngine(Fire fire)
      : fire_(std::move(fire)), target_(eng.AddTarget(this, {"bench"})) {}
  EventId At(TimeNs when, uint64_t label) {
    return eng.ScheduleAt(when, target_, 0, label);
  }
  void OnEvent(uint8_t /*kind*/, uint64_t label, uint64_t /*b*/) override {
    fire_(eng.Now(), label);
  }
  Simulator eng;

 private:
  Fire fire_;
  TargetId target_;
};

// Bulk one-shot timers: schedule a batch with scattered sub-4ms delays,
// drain to completion, repeat. No cancels — this isolates the allocation and
// queue-insert/pop cost per event.
template <template <class> class Engine>
RunOutcome RunScheduleFire() {
  constexpr int kRounds = 25;
  constexpr int kBatch = 10'000;
  RunOutcome out;
  auto fire = [&out](TimeNs now, uint64_t label) { out.Fired(now, label); };
  Engine<decltype(fire)> e(fire);
  Rng rng(0x5c4ed);
  uint32_t label = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kBatch; ++i) {
      const DurationNs delay = rng.UniformInt(0, 4 * kMillisecond);
      e.At(e.eng.Now() + delay, label++);
    }
    e.eng.RunToCompletion();
  }
  out.work = static_cast<uint64_t>(kRounds) * kBatch;
  out.Finish(e);
  return out;
}

// The driver watchdog pattern: |kTimers| timers armed 1 ms out, each
// cancelled and re-armed every 10 us tick (activity keeps resetting the
// deadline), with an occasional long quiet gap that lets the whole
// population expire and re-arm from scratch. kUseReschedule switches the
// re-arm from Cancel+At to the Simulator's in-place Reschedule (the naive
// baseline has none and always takes the cancel+schedule path — that is all
// it has).
template <bool kUseReschedule, template <class> class Engine>
RunOutcome RunCancelRearm() {
  constexpr int kTimers = 64;
  constexpr int kSteps = 20'000;
  constexpr DurationNs kTick = 10 * kMicrosecond;
  constexpr DurationNs kTimeout = kMillisecond;
  RunOutcome out;
  std::array<EventId, kTimers> ids;
  ids.fill(kInvalidEventId);
  auto fire = [&out, &ids](TimeNs now, uint64_t t) {
    out.Fired(now, t);
    ids[static_cast<size_t>(t)] = kInvalidEventId;
  };
  Engine<decltype(fire)> e(fire);
  for (int step = 0; step < kSteps; ++step) {
    for (int t = 0; t < kTimers; ++t) {
      EventId& id = ids[static_cast<size_t>(t)];
      const TimeNs deadline = e.eng.Now() + kTimeout;
      if constexpr (kUseReschedule &&
                    requires { e.eng.Reschedule(EventId{}, TimeNs{}); }) {
        if (id != kInvalidEventId) {
          id = e.eng.Reschedule(id, deadline);
          ++out.work;
          continue;
        }
      } else {
        e.eng.Cancel(id);  // no-op for expired timers
      }
      id = e.At(deadline, static_cast<uint64_t>(t));
      ++out.work;
    }
    // Every ~1k ticks the workload goes quiet past the timeout: the whole
    // timer population fires, exercising the expiry + fresh-arm path.
    const DurationNs advance = (step % 1024 == 1023) ? 2 * kMillisecond : kTick;
    e.eng.RunUntil(e.eng.Now() + advance);
  }
  e.eng.RunToCompletion();
  out.Finish(e);
  return out;
}

// Delay mixture: zero, up to 262 us, up to 40 ms, up to 6 s and up to 60 s.
DurationNs MixedDelay(Rng& rng) {
  const int64_t pick = rng.UniformInt(0, 99);
  if (pick < 5) {
    return 0;
  }
  if (pick < 55) {
    return rng.UniformInt(1, 4 * (1 << 16));
  }
  if (pick < 85) {
    return rng.UniformInt(1, 40 * kMillisecond);
  }
  if (pick < 96) {
    return rng.UniformInt(1, 6 * Seconds(1));
  }
  return rng.UniformInt(1, 60 * Seconds(1));
}

// Randomized churn: 60% schedule at a mixed-horizon delay, 15% cancel a
// random live id (stale ids exercise the generation guard), 25% advance the
// clock. Same Rng seed on both engines -> identical op sequences.
template <template <class> class Engine>
RunOutcome RunMixedHorizon() {
  constexpr int kOps = 120'000;
  RunOutcome out;
  auto fire = [&out](TimeNs now, uint64_t label) { out.Fired(now, label); };
  Engine<decltype(fire)> e(fire);
  Rng rng(0xab1e5);
  std::vector<EventId> live;
  live.reserve(1024);
  uint32_t label = 0;
  for (int op = 0; op < kOps; ++op) {
    const int64_t pick = rng.UniformInt(0, 99);
    if (pick < 60) {
      const DurationNs delay = MixedDelay(rng);
      live.push_back(e.At(e.eng.Now() + delay, label++));
      ++out.work;
    } else if (pick < 75) {
      if (!live.empty()) {
        const auto idx = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        e.eng.Cancel(live[idx]);  // may be stale (already fired): must no-op
        live[idx] = live.back();
        live.pop_back();
        ++out.work;
      }
    } else {
      e.eng.RunUntil(e.eng.Now() + rng.UniformInt(0, 20 * kMillisecond));
    }
  }
  e.eng.RunToCompletion();
  out.Finish(e);
  return out;
}

// Runs a workload on the naive engine, then on the Simulator, checks the
// outcomes are identical, and returns the timed comparison.
CaseResult Compare(const std::string& name, RunOutcome (*naive)(),
                   RunOutcome (*fast)()) {
  const auto t0 = std::chrono::steady_clock::now();
  const RunOutcome base = naive();
  const auto t1 = std::chrono::steady_clock::now();
  const RunOutcome got = fast();
  const auto t2 = std::chrono::steady_clock::now();

  // The engines must have done byte-for-byte the same thing, in the same
  // order, before their times are comparable.
  PSBOX_CHECK_EQ(got.order_hash, base.order_hash);
  PSBOX_CHECK_EQ(got.fired, base.fired);
  PSBOX_CHECK_EQ(got.end, base.end);
  PSBOX_CHECK_EQ(got.total_fired, base.total_fired);
  PSBOX_CHECK_EQ(got.pending, base.pending);

  CaseResult r;
  r.name = name;
  r.work = base.work;
  r.fired = base.fired;
  r.naive_ms = MillisBetween(t0, t1);
  r.fast_ms = MillisBetween(t1, t2);
  return r;
}

int RunComparison(const std::string& json_path) {
  std::vector<CaseResult> results;
  results.push_back(Compare("schedule_fire", &RunScheduleFire<NaiveEngine>,
                            &RunScheduleFire<RecordEngine>));
  results.push_back(Compare("cancel_rearm",
                            &RunCancelRearm<false, NaiveEngine>,
                            &RunCancelRearm<false, RecordEngine>));
  results.push_back(Compare("reschedule", &RunCancelRearm<true, NaiveEngine>,
                            &RunCancelRearm<true, RecordEngine>));
  results.push_back(Compare("mixed_horizon", &RunMixedHorizon<NaiveEngine>,
                            &RunMixedHorizon<RecordEngine>));

  // The JSON keys keep their names (naive_ms, fast_ms) for trend tracking.
  TextTable table(
      {"case", "work", "fired", "naive (ms)", "indexed heap (ms)", "speedup"});
  for (const CaseResult& r : results) {
    table.AddRow({r.name, std::to_string(r.work), std::to_string(r.fired),
                  FormatDouble(r.naive_ms, 2), FormatDouble(r.fast_ms, 2),
                  FormatDouble(r.speedup(), 2) + "x"});
  }
  table.Print(std::cout);

  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  json << "{\n  \"bench\": \"micro_engine\",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    json << "    {\"case\": \"" << r.name << "\", \"work\": " << r.work
         << ", \"fired\": " << r.fired
         << ", \"naive_ms\": " << FormatDouble(r.naive_ms, 3)
         << ", \"fast_ms\": " << FormatDouble(r.fast_ms, 3)
         << ", \"speedup\": " << FormatDouble(r.speedup(), 3) << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nJSON written to %s\n", json_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// google-benchmark suite (--gbench): per-op engine numbers plus the original
// substrate cases (StepTrace, DTW, whole-kernel simulated seconds) and the
// snapshot codec's CRC-32 kernels.

// A target that counts the records it fires.
struct CountingTarget final : EventTarget {
  explicit CountingTarget(Simulator& sim) : id(sim.AddTarget(this, {"count"})) {}
  void OnEvent(uint8_t /*kind*/, uint64_t /*a*/, uint64_t /*b*/) override {
    ++fired;
  }
  TargetId id;
  int fired = 0;
};

void BM_EventQueueScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    CountingTarget sink(sim);
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAt(i * 100, sink.id, 0);
    }
    sim.RunToCompletion();
    benchmark::DoNotOptimize(sink.fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueCancelRearm(benchmark::State& state) {
  Simulator sim;
  CountingTarget sink(sim);
  EventId id = sim.ScheduleAfter(kMillisecond, sink.id, 0);
  for (auto _ : state) {
    sim.Cancel(id);
    id = sim.ScheduleAfter(kMillisecond, sink.id, 0);
  }
  benchmark::DoNotOptimize(sink.fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelRearm);

void BM_EventQueueReschedule(benchmark::State& state) {
  Simulator sim;
  CountingTarget sink(sim);
  EventId id = sim.ScheduleAfter(kMillisecond, sink.id, 0);
  for (auto _ : state) {
    id = sim.Reschedule(id, sim.Now() + kMillisecond);
  }
  benchmark::DoNotOptimize(sink.fired);
  benchmark::DoNotOptimize(id);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueReschedule);

void BM_StepTraceIntegral(benchmark::State& state) {
  StepTrace trace;
  Rng rng(7);
  TimeNs t = 0;
  for (int i = 0; i < 10000; ++i) {
    t += rng.UniformInt(1000, 100000);
    trace.Set(t, rng.Uniform(0.0, 5.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace.IntegralOver(t / 4, 3 * t / 4));
  }
}
BENCHMARK(BM_StepTraceIntegral);

void BM_DtwDistance(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(0.0, 1.0);
    b[i] = rng.Uniform(0.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(a, b));
  }
}
BENCHMARK(BM_DtwDistance)->Arg(120)->Arg(240);

void BM_SimulatedCpuSecond(benchmark::State& state) {
  for (auto _ : state) {
    Stack s;
    AppOptions opts;
    opts.deadline = Seconds(1);
    SpawnCalib3d(s.kernel, "calib3d", opts);
    SpawnBodytrack(s.kernel, "bodytrack", opts);
    s.kernel.RunUntil(Seconds(1));
    benchmark::DoNotOptimize(s.kernel.scheduler().stats().context_switches);
  }
}
BENCHMARK(BM_SimulatedCpuSecond);

void BM_SimulatedSandboxSecond(benchmark::State& state) {
  for (auto _ : state) {
    Stack s;
    AppOptions opts;
    opts.deadline = Seconds(1);
    opts.use_psbox = true;
    SpawnCalib3d(s.kernel, "calib3d", opts);
    AppOptions co;
    co.deadline = Seconds(1);
    SpawnBodytrack(s.kernel, "bodytrack", co);
    s.kernel.RunUntil(Seconds(1));
    benchmark::DoNotOptimize(s.kernel.scheduler().domain_stats().balloons);
  }
}
BENCHMARK(BM_SimulatedSandboxSecond);

void BM_SplitterSweep(benchmark::State& state) {
  Stack s;
  AppOptions opts;
  opts.deadline = Seconds(1);
  SpawnCalib3d(s.kernel, "calib3d", opts);
  SpawnBodytrack(s.kernel, "bodytrack", opts);
  s.kernel.RunUntil(Seconds(1));
  PowerSplitter splitter;
  for (auto _ : state) {
    auto shares = splitter.SplitEnergy(s.board.cpu_rail(),
                                       s.kernel.ledger().records(HwComponent::kCpu),
                                       0, Seconds(1));
    benchmark::DoNotOptimize(shares);
  }
}
BENCHMARK(BM_SplitterSweep);

// The checkpoint codec's CRC-32, one row per kernel: 64 KiB is about one
// board's shard, 8 MiB about a 128-board checkpoint.
void BM_SnapshotCrc32(benchmark::State& state,
                      uint32_t (*crc)(const uint8_t*, size_t)) {
  if (crc == &SnapshotCrc32Folded && !SnapshotCrc32FoldedSupported()) {
    state.SkipWithError("this CPU has no PCLMULQDQ");
    return;
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)));
  Rng rng(13);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK_CAPTURE(BM_SnapshotCrc32, portable, &SnapshotCrc32Portable)
    ->Arg(64 << 10)
    ->Arg(8 << 20);
BENCHMARK_CAPTURE(BM_SnapshotCrc32, folded, &SnapshotCrc32Folded)
    ->Arg(64 << 10)
    ->Arg(8 << 20);

}  // namespace
}  // namespace psbox

int main(int argc, char** argv) {
  std::string json_path = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gbench") {
      // Hand everything after --gbench to google-benchmark.
      int gargc = argc - i;
      std::vector<char*> gargv;
      gargv.push_back(argv[0]);
      for (int j = i + 1; j < argc; ++j) {
        gargv.push_back(argv[j]);
      }
      benchmark::Initialize(&gargc, gargv.data());
      benchmark::RunSpecifiedBenchmarks();
      benchmark::Shutdown();
      return 0;
    }
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: micro_engine [--json PATH] | --gbench [args...]\n");
      return 2;
    }
  }
  return psbox::RunComparison(json_path);
}
