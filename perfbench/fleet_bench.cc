// Fleet benchmark driver: one measurement of one fleet workload, driven
// through the public fleet API (RootCoordinator), reported as one JSON line
// on stdout. perfbench/run.py starts it once per measurement and does the
// repeating, the medians and the correctness checks, so every measured fleet
// lives in a fresh process.
//
//   fleet_bench --workload churn|steady|checkpoint --seed N --task TASK
//               [--seconds S] [--path P]
//
// Tasks:
//   setup   builds the scenario and constructs the coordinator (shards,
//           sandboxes, tenants, initial spawns, threads) again and again for
//           S seconds, at least 25 times, timing each construction
//   run     one timed RootCoordinator::Run(); with --path, the checkpoint is
//           cut there at the last barrier before the horizon
//   trip    restores the checkpoint at --path (timed), saves every restored
//           board (timed) and finishes the run
//   replay  the traced replay (below); spans are written to --path
//
// Workloads (the fleet, board and population seeds all derive from --seed):
//   churn      8 boards x 48 simulated s, generated population only (12
//              arrivals/s/board under 2 nested tenants), flat fleet, 1
//              thread. Thousands of short-lived apps spawn and retire while
//              the live count stays bounded, so any cost that grows with
//              apps-ever-spawned shows as falling sim_rate and rising RSS.
//   steady     64 boards x 6 s, one long-lived sandboxed app per balloon
//              domain plus an unsandboxed co-runner on every board, no
//              arrivals or exits, 2 sub-fleets at 2 threads. Engine,
//              scheduler, driver and barrier costs with no app lifecycle, on
//              a working set far beyond the CPU caches.
//   checkpoint 128 boards x 2 s, steady's cast plus a 6 Hz population, with
//              the checkpoint cut at 1.8 s; the measured work is restore and
//              save. A board's snapshot size depends on how long its
//              telemetry stayed pinned, which varies widely with the seed;
//              128 boards keep the fleet's total within a few percent.
// Every workload steps 200 ms epochs with the root synchronising every epoch,
// keeps telemetry retention on (200 ms) and migration off.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/root_coordinator.h"
#include "src/popgen/board_population.h"
#include "src/snapshot/board_snapshot.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Barrier spacing. Every epoch hands each board's work to a pool thread and
// back; at 10 ms that is tens of thousands of thread wake-ups per run, whose
// cost on a shared host swings with other tenants' load. 200 ms keeps the
// barrier path measured (fleet.overhead_s) without letting it set the noise.
constexpr DurationNs kEpoch = 200 * kMillisecond;
constexpr DurationNs kRetention = 200 * kMillisecond;
constexpr double kAccountingBound = 0.10;
// Per-board saves in the traced run: boards x rounds = 384 on every
// workload, so the tail is the same percentile everywhere — the 374th
// sorted sample (p97), with ten samples beyond it.
constexpr int kSaveSamples = 384;
constexpr size_t kSaveTailIndex = kSaveSamples - 11;

struct Workload {
  const char* name;
  int boards;
  TimeNs horizon;
  int subfleets;
  int threads;
  double arrival_hz;  // generated arrivals per board per second; 0 = none
  bool cast;          // one long-lived app per balloon domain + co-runner
};

const Workload kWorkloads[] = {
    {"churn", 8, Seconds(48), 1, 1, 12.0, false},
    {"steady", 64, Seconds(6), 2, 2, 0.0, true},
    {"checkpoint", 128, Seconds(2), 2, 2, 6.0, true},
};

// The checkpoint cut: the last barrier before the horizon (the root
// synchronises every epoch).
TimeNs CutTime(const Workload& w) { return w.horizon - kEpoch; }

// SplitMix64 step, the same derivation FleetRuntime::BuildShards applies to
// (fleet seed, board stream): the traced replay must build bit-identical
// boards. The workload seeds derive from --seed the same way.
uint64_t DeriveSeed(uint64_t master, uint64_t stream) {
  uint64_t z = master + (stream + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct CastApp {
  const char* name;
  AppFactory factory;
};

const CastApp kCpuApps[] = {{"calib3d", &SpawnCalib3d}, {"dedup", &SpawnDedup}};
const CastApp kGpuApps[] = {{"triangle", &SpawnTriangle},
                            {"cube", &SpawnCube},
                            {"gpu_browser", &SpawnGpuBrowser}};
const CastApp kDspApps[] = {
    {"sgemm", &SpawnSgemm}, {"dgemm", &SpawnDgemm}, {"monte", &SpawnMonte}};
const CastApp kWifiApps[] = {
    {"scp", &SpawnScp}, {"wget", &SpawnWget}, {"wifi_browser", &SpawnWifiBrowser}};
const CastApp kStorageApps[] = {{"photo_sync", &SpawnPhotoSync},
                                {"media_scan", &SpawnMediaScan}};

FleetScenario MakeScenario(const Workload& w, uint64_t seed) {
  FleetScenario s;
  s.seed = DeriveSeed(seed, 0);
  s.epoch = kEpoch;
  s.horizon = w.horizon;
  s.subfleets = w.subfleets;
  s.migration.enabled = false;
  s.boards.resize(static_cast<size_t>(w.boards));
  for (FleetBoardSpec& board : s.boards) {
    board.kernel.telemetry_retention = kRetention;
  }
  if (w.cast) {
    for (int b = 0; b < w.boards; ++b) {
      // The five sandboxed apps rotate through each domain's Table-5 apps
      // across boards; bodytrack is the unsandboxed co-runner everywhere.
      const CastApp apps[] = {kCpuApps[b % 2],  kGpuApps[b % 3],
                              kDspApps[b % 3],  kWifiApps[b % 3],
                              kStorageApps[b % 2], {"bodytrack", &SpawnBodytrack}};
      for (size_t i = 0; i < std::size(apps); ++i) {
        FleetAppSpec spec;
        spec.name = std::string(apps[i].name) + "@b" + std::to_string(b);
        spec.factory = apps[i].factory;
        spec.board = b;
        spec.options.use_psbox = i + 1 < std::size(apps);
        s.apps.push_back(std::move(spec));
      }
    }
  }
  if (w.arrival_hz > 0.0) {
    PopulationConfig& p = s.population;
    p.seed = DeriveSeed(seed, 1);
    p.base_rate_hz = w.arrival_hz;
    p.diurnal_amplitude = 0.5;
    p.diurnal_period = 400 * kMillisecond;
    p.adversarial_fraction = 0.05;
    p.adversarial_period = 500 * kMillisecond;
    p.adversarial_duty = 0.4;
    p.min_iterations = 2;
    p.max_iterations = 40;
    p.tenants_per_board = 2;
    p.tenant_budget = 0.8;
    p.child_budget = 0.05;
  }
  return s;
}

size_t Violations(RootCoordinator& fleet) {
  size_t violations = 0;
  for (int b = 0; b < fleet.board_count(); ++b) {
    if (BoardPopulation* pop = fleet.population(b)) {
      violations += pop->AccountingViolations(kAccountingBound);
    }
  }
  return violations;
}

bool SaveBoards(RootCoordinator& fleet) {
  for (int b = 0; b < fleet.board_count(); ++b) {
    Kernel& kernel = fleet.kernel(b);
    SnapshotWriter w;
    std::string error;
    const bool ok =
        SaveBoardShard(kernel.board(), kernel, fleet.manager(b), &w, &error);
    if (!ok || w.Seal().empty()) {
      std::fprintf(stderr, "fleet_bench: save of board %d failed: %s\n", b,
                   error.c_str());
      return false;
    }
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// OS threads of this process (the coordinator's workers plus main).
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// --- traced replay ----------------------------------------------------------

enum SpanName {
  kReplaySpan,
  kSetupSpan,
  kHwBuildSpan,
  kKernelBuildSpan,
  kPsboxBuildSpan,
  kPopgenBuildSpan,
  kSpawnSpan,
  kEpochSpan,
  kWindowSpan,
  kRunSpan,
  kTrimSpan,
  kSaveSpan,
  kSpanNames,
};

const char* const kSpanNameText[kSpanNames] = {
    "replay",        "setup",        "hw.build",    "kernel.build",
    "psbox.build",   "popgen.build", "workloads.spawn", "epoch",
    "popgen.window", "kernel.run",   "kernel.trim", "snapshot.save_board",
};

// One timed call. |board| is the trace id (-1 for fleet-level spans);
// |count| is the work the call did (events fired by kernel.run, bytes
// written by snapshot.save_board).
struct Span {
  int name;
  int board;
  int parent;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t count;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  int Begin(int name, int board, int parent) {
    spans_.push_back({name, board, parent, 0, 0, 0});
    spans_.back().start_ns = Now();
    return static_cast<int>(spans_.size()) - 1;
  }
  // Returns the span's duration in seconds.
  double End(int span, uint64_t count = 0) {
    const int64_t now = Now();
    Span& s = spans_[static_cast<size_t>(span)];
    s.end_ns = now;
    s.count = count;
    return static_cast<double>(now - s.start_ns) / 1e9;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON (opens in ui.perfetto.dev): one thread track per
  // board, fleet-level spans on track 0.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\": \""
          << kSpanNameText[s.name] << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << s.board + 1 << ", \"ts\": " << s.start_ns / 1000.0
          << ", \"dur\": " << (s.end_ns - s.start_ns) / 1000.0
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"count\": " << s.count << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

struct ReplayBoard {
  std::unique_ptr<Board> board;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<PsboxManager> manager;
  std::unique_ptr<BoardPopulation> population;
};

uint64_t LiveApps(const std::vector<ReplayBoard>& boards, uint64_t* spawned) {
  uint64_t live = 0;
  *spawned = 0;
  for (const ReplayBoard& rb : boards) {
    if (rb.population != nullptr) {
      *spawned += rb.population->spawned();
      live += rb.population->spawned() - rb.population->CompletedCount();
    }
  }
  return live;
}

struct Replay {
  std::vector<Metric> metrics;
  // Every board's events fired and apps spawned, for comparison with the
  // untraced fleet's.
  std::vector<double> board_events;
  std::vector<double> board_spawned;
  bool saves_ok = true;
};

// Replays |w| on freshly built boards with a span around every per-board
// call and writes the spans to |trace_path|.
Replay RunReplay(const Workload& w, uint64_t seed,
                 const std::string& trace_path) {
  const FleetScenario s = MakeScenario(w, seed);
  const int64_t epochs = s.horizon / s.epoch;
  const size_t n = s.boards.size();
  Tracer tr(static_cast<size_t>(epochs) * (3 * n + 1) + 6 * n +
            kSaveSamples + 8);
  const int root = tr.Begin(kReplaySpan, -1, -1);

  // Set-up in RootCoordinator order: shards, then every board's tenants,
  // then the cast in app index order.
  double by_name[kSpanNames] = {};
  const int setup = tr.Begin(kSetupSpan, -1, root);
  std::vector<ReplayBoard> boards(n);
  for (size_t b = 0; b < n; ++b) {
    const int bi = static_cast<int>(b);
    ReplayBoard& rb = boards[b];
    BoardConfig config = s.boards[b].board;
    config.seed = DeriveSeed(s.seed, b * 2);
    config.faults.seed = DeriveSeed(s.seed, b * 2 + 1);
    int span = tr.Begin(kHwBuildSpan, bi, setup);
    rb.board = std::make_unique<Board>(config);
    by_name[kHwBuildSpan] += tr.End(span);
    span = tr.Begin(kKernelBuildSpan, bi, setup);
    rb.kernel = std::make_unique<Kernel>(rb.board.get(), s.boards[b].kernel);
    by_name[kKernelBuildSpan] += tr.End(span);
    span = tr.Begin(kPsboxBuildSpan, bi, setup);
    rb.manager = std::make_unique<PsboxManager>(rb.kernel.get());
    by_name[kPsboxBuildSpan] += tr.End(span);
    // Every phase gets a span on every board, also where the workload
    // leaves it empty, so that each layer's time is measured on every run.
    span = tr.Begin(kPopgenBuildSpan, bi, setup);
    if (s.population.enabled()) {
      rb.population = std::make_unique<BoardPopulation>(
          s.population, DeriveSeed(s.population.seed, b), bi, rb.kernel.get(),
          rb.manager.get());
    }
    by_name[kPopgenBuildSpan] += tr.End(span);
  }
  for (size_t b = 0; b < n; ++b) {
    const int span = tr.Begin(kPopgenBuildSpan, static_cast<int>(b), setup);
    if (boards[b].population != nullptr) {
      boards[b].population->CreateTenants(/*restoring=*/false);
    }
    by_name[kPopgenBuildSpan] += tr.End(span);
  }
  // The cast spawns in app index order, which MakeScenario lays out board by
  // board.
  std::vector<std::shared_ptr<bool>> stops;
  size_t app = 0;
  for (size_t b = 0; b < n; ++b) {
    const int span = tr.Begin(kSpawnSpan, static_cast<int>(b), setup);
    for (; app < s.apps.size() && s.apps[app].board == static_cast<int>(b);
         ++app) {
      AppOptions options = s.apps[app].options;
      options.stop = std::make_shared<bool>(false);
      stops.push_back(options.stop);
      s.apps[app].factory(*boards[b].kernel, s.apps[app].name, options);
    }
    by_name[kSpawnSpan] += tr.End(span);
  }
  tr.End(setup);
  const auto stepping0 = Clock::now();

  // Epoch-major stepping, as the fleet does: every board's window and run,
  // then (at the cut) the per-board saves, then every board's trim. Cost
  // growth compares run + trim host time per event between the first and
  // last quarter of the horizon.
  const int64_t quarter = epochs / 4;
  double quarter_s[2] = {};
  uint64_t quarter_events[2] = {};
  Replay replay;
  std::vector<double> save_ms;
  uint64_t spawned_mid = 0;
  uint64_t live_mid = 0;
  for (int64_t e = 0; e < epochs; ++e) {
    const TimeNs next = (e + 1) * s.epoch;
    const int q = e < quarter ? 0 : e >= epochs - quarter ? 1 : -1;
    const int epoch = tr.Begin(kEpochSpan, -1, root);
    for (size_t b = 0; b < n; ++b) {
      ReplayBoard& rb = boards[b];
      const int bi = static_cast<int>(b);
      int span = tr.Begin(kWindowSpan, bi, epoch);
      if (rb.population != nullptr) {
        rb.population->ScheduleWindow(next);
      }
      by_name[kWindowSpan] += tr.End(span);
      const uint64_t fired = rb.kernel->sim().total_fired();
      span = tr.Begin(kRunSpan, bi, epoch);
      rb.kernel->RunUntil(next);
      const uint64_t events = rb.kernel->sim().total_fired() - fired;
      const double d = tr.End(span, events);
      by_name[kRunSpan] += d;
      if (q >= 0) {
        quarter_s[q] += d;
        quarter_events[q] += events;
      }
    }
    if (next == CutTime(w)) {
      for (int round = 0; round < kSaveSamples / static_cast<int>(n); ++round) {
        for (size_t b = 0; b < n; ++b) {
          ReplayBoard& rb = boards[b];
          const int span = tr.Begin(kSaveSpan, static_cast<int>(b), epoch);
          SnapshotWriter writer;
          std::string error;
          const bool ok = SaveBoardShard(*rb.board, *rb.kernel, *rb.manager,
                                         &writer, &error);
          const size_t bytes = writer.Seal().size();
          const double d = tr.End(span, bytes);
          by_name[kSaveSpan] += d;
          save_ms.push_back(d * 1e3);
          if (!ok) {
            std::fprintf(stderr, "fleet_bench: replay save failed: %s\n",
                         error.c_str());
            replay.saves_ok = false;
          }
        }
      }
    }
    if (next == s.horizon / 2) {
      live_mid = LiveApps(boards, &spawned_mid);
    }
    for (size_t b = 0; b < n; ++b) {
      const int span = tr.Begin(kTrimSpan, static_cast<int>(b), epoch);
      boards[b].kernel->TrimTelemetry(next - s.boards[b].kernel.telemetry_retention);
      const double d = tr.End(span);
      by_name[kTrimSpan] += d;
      if (q >= 0) {
        quarter_s[q] += d;
      }
    }
    tr.End(epoch);
  }
  tr.End(root);
  const double stepping_s = Since(stepping0) - by_name[kSaveSpan];
  if (!trace_path.empty() && tr.Write(trace_path)) {
    std::fprintf(stderr, "fleet_bench: spans written to %s\n",
                 trace_path.c_str());
  }

  uint64_t events = 0, switches = 0, wakeups = 0, ipis = 0, balloons = 0,
           aborted = 0, accel = 0, storage = 0, tx_frames = 0, rail_steps = 0,
           boxes = 0;
  double trim_lag_ms = 0.0;
  for (size_t b = 0; b < n; ++b) {
    ReplayBoard& rb = boards[b];
    Kernel& k = *rb.kernel;
    events += k.sim().total_fired();
    const CpuScheduler::Stats& sched = k.scheduler().stats();
    switches += sched.context_switches;
    wakeups += sched.wakeups;
    ipis += sched.shootdown_ipis;
    for (size_t c = 0; c < kNumHwComponents; ++c) {
      const HwComponent hw = static_cast<HwComponent>(c);
      balloons += k.domain(hw).domain_stats().balloons;
      aborted += k.domain(hw).domain_stats().aborted;
      rail_steps += rb.board->RailFor(hw).trace().size();
    }
    accel += k.gpu_driver().stats().completed + k.dsp_driver().stats().completed;
    storage += k.storage_driver().stats().completed;
    tx_frames += k.net().stats().tx_frames;
    boxes += rb.manager->box_count();
    trim_lag_ms += ToMillis(k.Now() - k.last_trim_horizon()) / static_cast<double>(n);
    const uint64_t spawned =
        rb.population != nullptr ? rb.population->spawned() : 0;
    replay.board_events.push_back(static_cast<double>(k.sim().total_fired()));
    replay.board_spawned.push_back(static_cast<double>(spawned));
  }
  uint64_t spawned_end = 0;
  const uint64_t live_end = LiveApps(boards, &spawned_end);
  std::sort(save_ms.begin(), save_ms.end());
  const auto per_event = [](double s, uint64_t events) {
    return events > 0 ? s * 1e9 / static_cast<double>(events) : 0.0;
  };
  const double first_quarter = per_event(quarter_s[0], quarter_events[0]);
  const double last_quarter = per_event(quarter_s[1], quarter_events[1]);
  const auto count = [](uint64_t v) { return static_cast<double>(v); };

  replay.metrics = {
      {"replay.stepping_s", stepping_s, "s"},
      {"replay.calls_s",
       by_name[kWindowSpan] + by_name[kRunSpan] + by_name[kTrimSpan], "s"},
      {"hw.build_s", by_name[kHwBuildSpan], "s"},
      {"kernel.build_s", by_name[kKernelBuildSpan], "s"},
      {"psbox.build_s", by_name[kPsboxBuildSpan], "s"},
      {"popgen.build_s", by_name[kPopgenBuildSpan], "s"},
      {"workloads.spawn_s", by_name[kSpawnSpan], "s"},
      {"popgen.window_s", by_name[kWindowSpan], "s"},
      {"popgen.spawned_mid", count(spawned_mid), "count"},
      {"popgen.spawned_end", count(spawned_end), "count"},
      {"popgen.live_mid", count(live_mid), "count"},
      {"popgen.live_end", count(live_end), "count"},
      {"kernel.run_s", by_name[kRunSpan], "s"},
      {"kernel.ns_per_event", per_event(by_name[kRunSpan], events), "ns"},
      {"kernel.trim_s", by_name[kTrimSpan], "s"},
      {"kernel.cost_growth",
       first_quarter > 0.0 ? last_quarter / first_quarter : 0.0, "x"},
      {"kernel.trim_lag_ms", trim_lag_ms, "ms"},
      {"sim.events", count(events), "count"},
      {"sched.context_switches", count(switches), "count"},
      {"sched.wakeups", count(wakeups), "count"},
      {"sched.ipis", count(ipis), "count"},
      {"domain.balloons", count(balloons), "count"},
      {"domain.aborted", count(aborted), "count"},
      {"accel.commands", count(accel), "count"},
      {"storage.commands", count(storage), "count"},
      {"net.tx_frames", count(tx_frames), "count"},
      {"hw.rail_steps", count(rail_steps), "count"},
      {"psbox.boxes", count(boxes), "count"},
      {"snapshot.save_board_ms.p50", Median(save_ms), "ms"},
      {"snapshot.save_board_ms.p97",
       save_ms.size() == kSaveSamples ? save_ms[kSaveTailIndex] : 0.0, "ms"},
      {"snapshot.save_board_n", count(save_ms.size()), "count"},
  };
  return replay;
}

// --- tasks ------------------------------------------------------------------

// CPU time of the whole process, every thread.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// The task's report: one JSON object on one line.
class Report {
 public:
  void Number(const std::string& key, double v) { Add(key, Format(v)); }
  void Text(const std::string& key, const std::string& v) {
    Add(key, "\"" + v + "\"");
  }
  void Numbers(const std::string& key, const std::vector<double>& v) {
    std::string list = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      list += (i == 0 ? "" : ", ") + Format(v[i]);
    }
    Add(key, list + "]");
  }
  // {"name": {"value": v, "unit": u}, ...}, the form perfbench reports.
  void Metrics(const std::string& key, const std::vector<Metric>& metrics) {
    std::string object = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      object += (i == 0 ? "\"" : ", \"") + metrics[i].name +
                "\": {\"value\": " + Format(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    Add(key, object + "}");
  }
  // A fleet's outcome: its fingerprint and its accounting-bound violations.
  void Fleet(RootCoordinator& fleet, const FleetStats& stats) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(stats.Fingerprint()));
    Text("fingerprint", hex);
    Number("violations", static_cast<double>(Violations(fleet)));
  }

  void Print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  static std::string Format(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  void Add(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + value;
  }

  std::string body_;
};

const char* const kTasks[] = {"setup", "run", "trip", "replay"};

// Runs |task| (one of kTasks) and fills |report|; false when it failed.
bool RunTask(const std::string& task, const Workload& w, uint64_t seed,
             double seconds, const std::string& path, Report& report) {
  if (task == "setup") {
    std::vector<double> setup_s;
    const auto start = Clock::now();
    while (setup_s.size() < 25 || Since(start) < seconds) {
      const auto t0 = Clock::now();
      auto fleet =
          std::make_unique<RootCoordinator>(MakeScenario(w, seed), w.threads);
      setup_s.push_back(Since(t0));
    }
    report.Numbers("setup_s", setup_s);
  } else if (task == "run") {
    RootCoordinator fleet(MakeScenario(w, seed), w.threads);
    report.Number("board_s", w.boards * ToSeconds(w.horizon));
    report.Number("threads", w.threads);
    report.Number("os_threads", ThreadCount());
    if (!path.empty()) {
      fleet.set_checkpoint(path, static_cast<int>(CutTime(w) / kEpoch));
    }
    const auto t0 = Clock::now();
    const double cpu0 = CpuSeconds();
    const FleetStats stats = fleet.Run();
    report.Number("run_cpu_s", CpuSeconds() - cpu0);
    report.Number("run_s", Since(t0));
    std::vector<double> events, spawned;
    for (const FleetBoardStats& b : stats.boards) {
      events.push_back(static_cast<double>(b.events_fired));
      spawned.push_back(static_cast<double>(b.popgen_spawned));
    }
    report.Numbers("board_events", events);
    report.Numbers("board_spawned", spawned);
    report.Fleet(fleet, stats);
  } else if (task == "trip") {
    std::string error;
    const auto t0 = Clock::now();
    std::unique_ptr<RootCoordinator> fleet =
        RootCoordinator::RestoreFromCheckpoint(MakeScenario(w, seed),
                                               w.threads, path, &error);
    report.Number("restore_s", Since(t0));
    if (fleet == nullptr) {
      std::fprintf(stderr, "fleet_bench: restore failed: %s\n", error.c_str());
      return false;
    }
    const auto t1 = Clock::now();
    if (!SaveBoards(*fleet)) {
      return false;
    }
    report.Number("save_s", Since(t1));
    report.Fleet(*fleet, fleet->Run());
  } else {
    const Replay r = RunReplay(w, seed, path);
    if (!r.saves_ok) {
      return false;
    }
    report.Metrics("metrics", r.metrics);
    report.Numbers("board_events", r.board_events);
    report.Numbers("board_spawned", r.board_spawned);
  }
  report.Number("peak_rss_mb", PeakRssMb());
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fleet_bench --workload churn|steady|checkpoint "
               "--seed N --task setup|run|trip|replay [--seconds S] "
               "[--path P]\n");
  return 2;
}

}  // namespace
}  // namespace psbox

int main(int argc, char** argv) {
  using namespace psbox;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 1.0;
  std::string task;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--task" && has_value) {
      task = argv[++i];
    } else if (arg == "--path" && has_value) {
      path = argv[++i];
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) {
      workload = &w;
    }
  }
  const bool known_task = std::find(std::begin(kTasks), std::end(kTasks),
                                    task) != std::end(kTasks);
  if (workload == nullptr || !known_task || seconds <= 0.0) {
    return Usage();
  }
  Report report;
  if (!RunTask(task, *workload, seed, seconds, path, report)) {
    return 1;
  }
  report.Print();
  return 0;
}
