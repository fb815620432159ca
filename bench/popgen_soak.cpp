// Population soak: a 64-board fleet streaming a generated app population,
// cross-checked for determinism and audited for the nested accounting bound.
//
//   ./popgen_soak [--json PATH] [--boards N] [--seconds S] [--rate HZ]
//
// The fleet runs no fixed cast at all — every app on every board arrives
// from the seeded population generator (diurnal wave + flash crowd over the
// behavior-library mix), nested under per-board tenant sandboxes. The same
// scenario is run twice with different worker-thread counts; the two fleet
// fingerprints must be bit-identical or the soak fails. After the run the
// per-board tenant hierarchies are audited: every level must respect the
// <= 10 % accounting bound, and the violation count reported (and asserted)
// is zero.
//
// Reported (and written to BENCH_popgen.json for CI trend tracking):
//   * spawn throughput — generated apps spawned per wall-clock second
//   * steady-state apps/board — spawned minus completed at the horizon,
//     averaged over boards (the standing population the boards carry)
//   * accounting-bound violations — must be 0
//
// Then a long-horizon cost check: 8 boards streaming a stationary
// population (12 arrivals/s/board of 2-40 iteration apps under 2 tenants,
// 200 ms retention, one thread) run to 8 s and to 64 s. The runs of the two
// horizons interleave, and each horizon repeats until it has at least 1 s of
// host CPU time (about 30 runs at 8 s and 4 at 64 s). The median host CPU
// time per simulated board-second at 64 s may exceed the 8 s figure by at
// most 1.3x — finished apps retire, so cost must not grow with every app
// ever spawned. The ratio and both run counts go into the JSON too.
//
// Last, a restore-growth check on the same population: a checkpoint cut at
// 8 s and one cut at 64 s, each restored five times. The fastest restore of
// the 64 s cut may take at most 1.5x the fastest of the 8 s cut — restore
// re-creates the live apps only, so its cost must not grow with the
// horizon. Both times go into the JSON.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/base/csv.h"
#include "src/fleet/root_coordinator.h"
#include "src/popgen/board_population.h"

namespace psbox {
namespace {

FleetScenario SoakScenario(int boards, TimeNs horizon, double rate_hz) {
  FleetScenario scenario;
  scenario.seed = 0x50AC;
  scenario.horizon = horizon;
  scenario.epoch = 10 * kMillisecond;
  scenario.subfleets = boards >= 8 ? 8 : 1;
  scenario.root_period = 4;
  scenario.migration.enabled = false;
  scenario.boards.resize(static_cast<size_t>(boards));
  scenario.population.seed = 0x90D5;
  scenario.population.base_rate_hz = rate_hz;
  scenario.population.diurnal_amplitude = 0.5;
  scenario.population.diurnal_period = 400 * kMillisecond;
  scenario.population.flash_start = horizon / 2;
  scenario.population.flash_duration = horizon / 5;
  scenario.population.flash_multiplier = 2.5;
  scenario.population.tenants_per_board = 2;
  scenario.population.tenant_budget = 0.8;
  scenario.population.child_budget = 0.05;
  return scenario;
}

// The long-horizon check's stationary population (no flash crowd).
FleetScenario ChurnScenario(TimeNs horizon) {
  FleetScenario scenario;
  scenario.seed = 0x50AC;
  scenario.horizon = horizon;
  scenario.epoch = 10 * kMillisecond;
  scenario.migration.enabled = false;
  scenario.boards.resize(8);
  for (FleetBoardSpec& board : scenario.boards) {
    board.kernel.telemetry_retention = 200 * kMillisecond;
  }
  PopulationConfig& p = scenario.population;
  p.seed = 0x90D5;
  p.base_rate_hz = 12.0;
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
  return scenario;
}

// Host CPU seconds per simulated board-second of ChurnScenario at one
// horizon, over repeated runs.
struct HorizonCost {
  explicit HorizonCost(TimeNs h) : horizon(h) {}

  TimeNs horizon;
  double cpu_s = 0.0;  // summed over the runs
  std::vector<double> per_board_s;

  void RunOnce() {
    const FleetScenario scenario = ChurnScenario(horizon);
    RootCoordinator fleet(scenario, 1);
    const std::clock_t t0 = std::clock();
    (void)fleet.Run();
    const double run_cpu_s =
        static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC;
    cpu_s += run_cpu_s;
    per_board_s.push_back(run_cpu_s /
                          (static_cast<double>(scenario.boards.size()) *
                           ToSeconds(horizon)));
  }

  double Median() const {
    std::vector<double> sorted = per_board_s;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
  }
};

// Runs both horizons until each has at least |min_cpu_s| of CPU time and
// three runs, always next running the one with less CPU so far (an 8 s run,
// a 64 s run, then about eight 8 s runs per 64 s run), so that host drift
// lands on both medians.
void RunInterleaved(HorizonCost& a, HorizonCost& b, double min_cpu_s) {
  const auto done = [min_cpu_s](const HorizonCost& h) {
    return h.cpu_s >= min_cpu_s && h.per_board_s.size() >= 3;
  };
  while (!done(a) || !done(b)) {
    HorizonCost& next =
        (done(b) || (!done(a) && a.cpu_s <= b.cpu_s)) ? a : b;
    next.RunOnce();
  }
}

// Fastest wall time of five restores of ChurnScenario cut at |cut|; a
// negative value when the cut cannot be written or restored.
double MinRestoreSeconds(TimeNs cut) {
  const FleetScenario scenario = ChurnScenario(cut + 10 * kMillisecond);
  const std::string path =
      (std::filesystem::temp_directory_path() / "popgen_soak_restore.snap")
          .string();
  {
    RootCoordinator fleet(scenario, 1);
    fleet.set_checkpoint(path, static_cast<int>(cut / scenario.epoch));
    (void)fleet.Run();
  }
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 5; ++i) {
    std::string error;
    const auto t0 = std::chrono::steady_clock::now();
    const auto restored =
        RootCoordinator::RestoreFromCheckpoint(scenario, 1, path, &error);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - t0;
    if (restored == nullptr || restored->resume_time() != cut) {
      std::fprintf(stderr,
                   "popgen_soak: restore of the %.0f s cut failed: %s\n",
                   ToSeconds(cut), error.c_str());
      best = -1.0;
      break;
    }
    best = std::min(best, took.count());
  }
  std::remove(path.c_str());
  return best;
}

int ThreadBudget(int boards) {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(
      std::min<unsigned>(static_cast<unsigned>(boards), hw > 0 ? hw : 1));
}

struct SoakResult {
  int threads = 0;
  double wall_s = 0.0;
  uint64_t fingerprint = 0;
  uint64_t spawned = 0;
  uint64_t completed = 0;
  size_t violations = 0;
};

SoakResult RunOnce(const FleetScenario& scenario, int threads, int boards) {
  SoakResult r;
  r.threads = threads;
  RootCoordinator fleet(scenario, threads);
  const auto t0 = std::chrono::steady_clock::now();
  const FleetStats stats = fleet.Run();
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.fingerprint = stats.Fingerprint();
  for (const FleetBoardStats& b : stats.boards) {
    r.spawned += b.popgen_spawned;
    r.completed += b.popgen_completed;
  }
  // Audit the tenant hierarchy on every board: served balloon energy must
  // stay within 10 % of metered truth at every level of the nesting.
  for (int b = 0; b < boards; ++b) {
    BoardPopulation* pop = fleet.population(b);
    if (pop != nullptr) {
      r.violations += pop->AccountingViolations(0.10);
    }
  }
  return r;
}

}  // namespace
}  // namespace psbox

int main(int argc, char** argv) {
  using namespace psbox;
  std::string json_path = "BENCH_popgen.json";
  int boards = 64;
  int seconds = 1;
  double rate_hz = 100.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--boards" && i + 1 < argc) {
      boards = std::atoi(argv[++i]);
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atoi(argv[++i]);
    } else if (arg == "--rate" && i + 1 < argc) {
      rate_hz = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: popgen_soak [--json PATH] [--boards N] "
                   "[--seconds S] [--rate HZ]\n");
      return 2;
    }
  }

  const FleetScenario scenario =
      SoakScenario(boards, Seconds(seconds), rate_hz);
  // The two runs must use genuinely different worker counts for the
  // determinism cross-check to mean anything, even on a 1-core machine
  // (workers are plain threads; oversubscription only costs wall time).
  const int threads_a = ThreadBudget(boards);
  const int threads_b =
      threads_a > 1 ? threads_a - threads_a / 2 : std::min(2, boards);

  std::printf("population soak: %d boards, %d s, %.0f arrivals/s/board\n",
              boards, seconds, rate_hz);
  const SoakResult a = RunOnce(scenario, threads_a, boards);
  const SoakResult b = RunOnce(scenario, threads_b, boards);

  const bool deterministic = a.fingerprint == b.fingerprint;
  const uint64_t live = a.spawned - a.completed;
  const double apps_per_board =
      static_cast<double>(live) / static_cast<double>(boards);
  const double spawn_per_s =
      a.wall_s > 0.0 ? static_cast<double>(a.spawned) / a.wall_s : 0.0;

  TextTable table({"threads", "wall (s)", "spawned", "completed",
                   "violations", "fingerprint"});
  for (const SoakResult* r : {&a, &b}) {
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(r->fingerprint));
    table.AddRow({std::to_string(r->threads), FormatDouble(r->wall_s, 3),
                  std::to_string(r->spawned), std::to_string(r->completed),
                  std::to_string(r->violations), fp});
  }
  table.Print(std::cout);
  std::printf("\nspawn throughput: %.0f apps/s (wall)\n", spawn_per_s);
  std::printf("steady-state apps/board at horizon: %.1f\n", apps_per_board);
  std::printf("fingerprints %s across %d vs %d threads\n",
              deterministic ? "IDENTICAL" : "DIFFER", threads_a, threads_b);

  // Long-horizon cost growth (see the header comment).
  constexpr double kMaxGrowth = 1.3;
  HorizonCost short_runs{Seconds(8)};
  HorizonCost long_runs{Seconds(64)};
  RunInterleaved(short_runs, long_runs, /*min_cpu_s=*/1.0);
  const double cpu_short = short_runs.Median();
  const double cpu_long = long_runs.Median();
  const double growth = cpu_short > 0.0 ? cpu_long / cpu_short : 0.0;
  std::printf("\nlong horizon: %.1f us/board-s at 8 s (median of %zu), "
              "%.1f us/board-s at 64 s (median of %zu): growth %.2fx "
              "(limit %.1fx)\n",
              cpu_short * 1e6, short_runs.per_board_s.size(), cpu_long * 1e6,
              long_runs.per_board_s.size(), growth, kMaxGrowth);

  // Restore growth (see the header comment).
  constexpr double kMaxRestoreGrowth = 1.5;
  const double restore_short = MinRestoreSeconds(Seconds(8));
  const double restore_long = MinRestoreSeconds(Seconds(64));
  const double restore_growth =
      restore_short > 0.0 ? restore_long / restore_short : 0.0;
  std::printf("restore: %.2f ms at the 8 s cut, %.2f ms at the 64 s cut "
              "(min of 5): growth %.2fx (limit %.1fx)\n",
              restore_short * 1e3, restore_long * 1e3, restore_growth,
              kMaxRestoreGrowth);

  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  char fpa[32], fpb[32];
  std::snprintf(fpa, sizeof(fpa), "%016llx",
                static_cast<unsigned long long>(a.fingerprint));
  std::snprintf(fpb, sizeof(fpb), "%016llx",
                static_cast<unsigned long long>(b.fingerprint));
  json << "{\n  \"bench\": \"popgen_soak\",\n"
       << "  \"boards\": " << boards << ",\n  \"horizon_s\": " << seconds
       << ",\n  \"rate_hz\": " << FormatDouble(rate_hz, 1)
       << ",\n  \"threads_a\": " << threads_a
       << ",\n  \"threads_b\": " << threads_b << ",\n  \"fingerprint_a\": \""
       << fpa << "\",\n  \"fingerprint_b\": \"" << fpb
       << "\",\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"spawned\": " << a.spawned
       << ",\n  \"completed\": " << a.completed
       << ",\n  \"spawn_per_wall_s\": " << FormatDouble(spawn_per_s, 1)
       << ",\n  \"steady_apps_per_board\": " << FormatDouble(apps_per_board, 2)
       << ",\n  \"accounting_violations\": " << (a.violations + b.violations)
       << ",\n  \"long_horizon_cpu_us_per_board_s_8s\": "
       << FormatDouble(cpu_short * 1e6, 2)
       << ",\n  \"long_horizon_cpu_us_per_board_s_64s\": "
       << FormatDouble(cpu_long * 1e6, 2)
       << ",\n  \"long_horizon_runs_8s\": " << short_runs.per_board_s.size()
       << ",\n  \"long_horizon_runs_64s\": " << long_runs.per_board_s.size()
       << ",\n  \"long_horizon_growth\": " << FormatDouble(growth, 3)
       << ",\n  \"restore_ms_8s\": " << FormatDouble(restore_short * 1e3, 3)
       << ",\n  \"restore_ms_64s\": " << FormatDouble(restore_long * 1e3, 3)
       << ",\n  \"restore_growth\": " << FormatDouble(restore_growth, 3)
       << "\n}\n";
  std::printf("JSON written to %s\n", json_path.c_str());

  if (!deterministic) {
    std::fprintf(stderr, "popgen_soak: FINGERPRINT MISMATCH\n");
    return 1;
  }
  if (a.violations + b.violations != 0) {
    std::fprintf(stderr, "popgen_soak: accounting bound violated\n");
    return 1;
  }
  if (growth > kMaxGrowth) {
    std::fprintf(stderr,
                 "popgen_soak: cost per board-second grew %.2fx from 8 s to "
                 "64 s (limit %.1fx)\n",
                 growth, kMaxGrowth);
    return 1;
  }
  if (restore_short <= 0.0 || restore_long <= 0.0) {
    return 1;
  }
  if (restore_growth > kMaxRestoreGrowth) {
    std::fprintf(stderr,
                 "popgen_soak: restore time grew %.2fx from the 8 s cut to "
                 "the 64 s cut (limit %.1fx)\n",
                 restore_growth, kMaxRestoreGrowth);
    return 1;
  }
  if (a.spawned < 5000 && boards >= 64 && seconds >= 1 && rate_hz >= 100.0) {
    std::fprintf(stderr, "popgen_soak: expected >= 5000 generated apps, got %llu\n",
                 static_cast<unsigned long long>(a.spawned));
    return 1;
  }
  return 0;
}
