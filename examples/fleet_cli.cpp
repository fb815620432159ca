// Fleet runner CLI: simulate N boards as a two-level fleet-of-fleets with
// cross-board app migration, and print per-board and per-sub-fleet
// energy/balloon/migration stats plus the deterministic fleet fingerprint.
//
//   ./fleet_cli [--boards N] [--threads T] [--seconds S] [--seed X]
//               [--subfleets K] [--root-period P] [--fleet-budget J]
//               [--fail BOARD@MS] [--trace-dir DIR] [--retention MS]
//               [--checkpoint-every N] [--checkpoint-path FILE]
//               [--restore-from FILE] [--population CONFIG.csv]
//               [--popgen-seed X]
//
// A default mix of Table-5 apps is placed round-robin: sandboxed CPU, GPU
// and WiFi apps with energy budgets (migratable under budget pressure) plus
// plain co-runners. --fail makes a board lose power at MS milliseconds; its
// sandboxed apps are crash-migrated at the owning sub-fleet's next barrier
// (in-epoch hand-off), escalating to a cross-sub-fleet evacuation at the
// next root barrier only when the whole slice is dead.
//
// Threads: --threads T runs the whole fleet on exactly T OS threads, the
// main thread plus T - 1 workers of one pool.
//
// Hierarchy: --subfleets K splits the boards into K contiguous sub-fleets,
// each running its own bounded-lag barrier; the root synchronises them every
// --root-period sub-epochs by exchanging compact digests. The hierarchy
// bounds what the root sees, not wall time: every sub-fleet steps on the
// same T threads. --fleet-budget J enables the fleet-wide energy ledger:
// the root subdivides J joules across sub-fleets (proportional to alive
// boards) and rebalances app placement against the per-board energy
// pressure. The defaults (--subfleets 1 --root-period 1) reproduce the old
// flat single-barrier fleet exactly. The fingerprint is bit-identical at any
// --threads value for a fixed scenario.
//
// With --trace-dir, every board's balloon timelines are exported as
// DIR/board<i>_balloons_<domain>.csv. --retention bounds every board's
// telemetry working set to the last MS milliseconds (energy accounting
// stays exact; see KernelConfig::telemetry_retention).
//
// Population: --population CONFIG.csv streams a generated background app
// population onto every board (arrival-rate curve, app mix, heavy-tailed
// work sizes, diurnal/flash/adversarial modifiers — see
// src/popgen/population_config.h for the key set), nested under per-board
// tenant sandboxes. One independent deterministic stream per board, so the
// fingerprint stays bit-identical at any --threads value. --popgen-seed
// overrides the config's seed without editing the file.
//
// Checkpoint/restore: --checkpoint-every N writes the full fleet state (all
// boards, kernels, sandboxes, pending events, hierarchy/budget ledger) to
// --checkpoint-path at the first root boundary every N sub-epochs.
// --restore-from warm-starts a later invocation from such a file; the
// scenario flags must match the writing run, and the restored run's final
// fingerprint is bit-identical to an uninterrupted one.
//
// Example: ./fleet_cli --boards 8 --threads 4 --subfleets 2 --root-period 4
//                      --fleet-budget 40 --seconds 2 --fail 1@600
// Warm restart:
//   ./fleet_cli --boards 4 --seconds 2 --checkpoint-every 50
//               --checkpoint-path /tmp/fleet.snap
//   ./fleet_cli --boards 4 --seconds 2 --restore-from /tmp/fleet.snap

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/fleet/root_coordinator.h"
#include "src/kernel/balloon_timeline.h"
#include "src/popgen/population_config.h"

namespace psbox {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fleet_cli [--boards N] [--threads T] [--seconds S] "
               "[--seed X] [--subfleets K] [--root-period P] "
               "[--fleet-budget J] [--fail BOARD@MS] [--trace-dir DIR] "
               "[--retention MS] [--checkpoint-every N] "
               "[--checkpoint-path FILE] [--restore-from FILE] "
               "[--population CONFIG.csv] [--popgen-seed X]\n");
  return 2;
}

// Flag validation with a descriptive message (exit code 2, like Usage()).
int Invalid(const char* what) {
  std::fprintf(stderr, "fleet_cli: %s\n", what);
  return 2;
}

FleetScenario BuildScenario(int boards, int seconds, uint64_t seed,
                            int subfleets, int root_period,
                            double fleet_budget, int fail_board, int fail_ms,
                            int retention_ms) {
  FleetScenario scenario;
  scenario.seed = seed;
  scenario.horizon = Seconds(seconds);
  scenario.epoch = 10 * kMillisecond;
  scenario.subfleets = subfleets;
  scenario.root_period = root_period;
  scenario.fleet_budget = fleet_budget;
  scenario.boards.resize(static_cast<size_t>(boards));
  if (retention_ms > 0) {
    for (FleetBoardSpec& board : scenario.boards) {
      board.kernel.telemetry_retention = Millis(retention_ms);
    }
  }
  if (fail_board >= 0) {
    scenario.boards[static_cast<size_t>(fail_board)].fail_at = Millis(fail_ms);
  }

  // The placed mix: one sandboxed, budgeted, migratable app per component
  // class plus a plain co-runner, spread round-robin over the boards.
  struct Mix {
    const char* name;
    AppFactory factory;
    bool sandboxed;
    Joules budget;
  };
  const Mix mix[] = {
      {"calib3d", &SpawnCalib3d, true, 1.2},
      {"bodytrack", &SpawnBodytrack, false, 0.0},
      {"triangle", &SpawnTriangle, true, 0.8},
      {"scp", &SpawnScp, true, 0.6},
      {"dedup", &SpawnDedup, false, 0.0},
      {"mediascan", &SpawnMediaScan, true, 0.5},
  };
  int board = 0;
  for (const Mix& m : mix) {
    FleetAppSpec spec;
    spec.name = std::string(m.name) + std::to_string(board);
    spec.factory = m.factory;
    spec.board = board;
    spec.options.deadline = scenario.horizon;
    spec.options.use_psbox = m.sandboxed;
    spec.energy_budget = m.budget;
    spec.migratable = m.sandboxed;
    scenario.apps.push_back(spec);
    board = (board + 1) % boards;
  }
  return scenario;
}

}  // namespace
}  // namespace psbox

int main(int argc, char** argv) {
  using namespace psbox;
  int boards = 2;
  int threads = 2;
  int seconds = 2;
  uint64_t seed = 0x5eed;
  int subfleets = 1;
  int root_period = 1;
  double fleet_budget = 0.0;
  int fail_board = -1;
  int fail_ms = 0;
  int retention_ms = 0;
  int checkpoint_every = 0;
  std::string checkpoint_path;
  std::string restore_from;
  std::string trace_dir;
  std::string population_path;
  bool popgen_seed_set = false;
  uint64_t popgen_seed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--boards" && i + 1 < argc) {
      boards = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--subfleets" && i + 1 < argc) {
      subfleets = std::atoi(argv[++i]);
    } else if (arg == "--root-period" && i + 1 < argc) {
      root_period = std::atoi(argv[++i]);
    } else if (arg == "--fleet-budget" && i + 1 < argc) {
      fleet_budget = std::atof(argv[++i]);
    } else if (arg == "--fail" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const size_t at = spec.find('@');
      if (at == std::string::npos) {
        return Invalid("--fail expects BOARD@MS (e.g. --fail 1@600)");
      }
      fail_board = std::atoi(spec.substr(0, at).c_str());
      fail_ms = std::atoi(spec.substr(at + 1).c_str());
    } else if (arg == "--trace-dir" && i + 1 < argc) {
      trace_dir = argv[++i];
    } else if (arg == "--retention" && i + 1 < argc) {
      retention_ms = std::atoi(argv[++i]);
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      checkpoint_every = std::atoi(argv[++i]);
    } else if (arg == "--checkpoint-path" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (arg == "--restore-from" && i + 1 < argc) {
      restore_from = argv[++i];
    } else if (arg == "--population" && i + 1 < argc) {
      population_path = argv[++i];
    } else if (arg == "--popgen-seed" && i + 1 < argc) {
      popgen_seed = std::strtoull(argv[++i], nullptr, 0);
      popgen_seed_set = true;
    } else {
      return Usage();
    }
  }
  if (boards < 1) {
    return Invalid("--boards must be at least 1");
  }
  if (threads < 1) {
    return Invalid("--threads must be at least 1");
  }
  if (seconds < 1) {
    return Invalid("--seconds must be at least 1");
  }
  if (subfleets < 1 || subfleets > boards) {
    return Invalid("--subfleets must be between 1 and the board count");
  }
  if (root_period < 1) {
    return Invalid("--root-period must be at least 1");
  }
  if (fleet_budget < 0.0) {
    return Invalid("--fleet-budget must be non-negative (joules; 0 disables)");
  }
  if (fail_board >= boards ||
      (fail_board >= 0 && fail_ms <= 0)) {
    return Invalid("--fail board index out of range or time not positive");
  }
  if (checkpoint_every < 0) {
    return Invalid("--checkpoint-every must be non-negative");
  }
  if (popgen_seed_set && population_path.empty()) {
    return Invalid("--popgen-seed requires --population CONFIG.csv");
  }

  FleetScenario scenario =
      BuildScenario(boards, seconds, seed, subfleets, root_period,
                    fleet_budget, fail_board, fail_ms, retention_ms);
  if (!population_path.empty()) {
    std::string error;
    if (!LoadPopulationConfig(population_path, &scenario.population, &error)) {
      std::fprintf(stderr, "fleet_cli: invalid --population config: %s\n",
                   error.c_str());
      return 2;
    }
    if (popgen_seed_set) {
      scenario.population.seed = popgen_seed;
    }
  }
  std::unique_ptr<RootCoordinator> fleet_ptr;
  if (!restore_from.empty()) {
    std::string error;
    fleet_ptr = RootCoordinator::RestoreFromCheckpoint(
        std::move(scenario), threads, restore_from, &error);
    if (fleet_ptr == nullptr) {
      std::fprintf(stderr, "fleet_cli: cannot restore from %s: %s\n",
                   restore_from.c_str(), error.c_str());
      return 1;
    }
    std::printf("restored from %s (resuming at %.0f ms)\n", restore_from.c_str(),
                ToMillis(fleet_ptr->resume_time()));
  } else {
    fleet_ptr =
        std::make_unique<RootCoordinator>(std::move(scenario), threads);
  }
  RootCoordinator& fleet = *fleet_ptr;
  if (checkpoint_every > 0 && !checkpoint_path.empty()) {
    fleet.set_checkpoint(checkpoint_path, checkpoint_every);
  }
  const FleetStats stats = fleet.Run();

  std::printf(
      "fleet: %d board(s) in %d sub-fleet(s), root period %d, "
      "%d thread(s), %d s simulated\n\n",
      boards, subfleets, root_period, threads, seconds);
  std::printf("%-6s %-6s %10s %12s %9s %8s %6s %6s\n", "board", "state",
              "ran(ms)", "energy(mJ)", "balloons", "iters", "in", "out");
  for (size_t i = 0; i < stats.boards.size(); ++i) {
    const FleetBoardStats& b = stats.boards[i];
    std::printf("%-6zu %-6s %10.0f %12.1f %9llu %8llu %6d %6d\n", i,
                b.failed ? "FAILED" : "ok", ToMillis(b.ran_until),
                b.rail_energy * 1e3,
                static_cast<unsigned long long>(b.balloons),
                static_cast<unsigned long long>(b.iterations), b.migrations_in,
                b.migrations_out);
  }

  uint64_t pop_spawned = 0;
  uint64_t pop_completed = 0;
  for (const FleetBoardStats& b : stats.boards) {
    pop_spawned += b.popgen_spawned;
    pop_completed += b.popgen_completed;
  }
  if (!population_path.empty()) {
    std::printf(
        "\npopulation: %llu generated app(s) (%.1f per board), "
        "%llu ran to completion\n",
        static_cast<unsigned long long>(pop_spawned),
        static_cast<double>(pop_spawned) / static_cast<double>(boards),
        static_cast<unsigned long long>(pop_completed));
  }

  if (stats.subfleets.size() > 1 || fleet_budget > 0.0) {
    std::printf("\n%-9s %7s %7s %12s %14s %6s %6s\n", "subfleet", "first",
                "boards", "energy(mJ)", "budget(mJ)", "xin", "xout");
    for (size_t s = 0; s < stats.subfleets.size(); ++s) {
      const SubFleetStats& sf = stats.subfleets[s];
      std::printf("%-9zu %7d %7d %12.1f %14.1f %6d %6d\n", s, sf.first_board,
                  sf.boards, sf.energy * 1e3, sf.allocation * 1e3,
                  sf.cross_in, sf.cross_out);
    }
  }

  std::printf("\n%-14s %5s %6s %6s %8s %14s\n", "app", "hops", "board",
              "state", "iters", "billed(mJ)");
  for (const FleetAppOutcome& a : stats.apps) {
    char billed[32];
    if (a.billed_energy >= 0) {
      std::snprintf(billed, sizeof(billed), "%.1f", a.billed_energy * 1e3);
    } else {
      std::snprintf(billed, sizeof(billed), "-");
    }
    std::printf("%-14s %5d %6d %6s %8llu %14s\n", a.name.c_str(), a.hops,
                a.final_board,
                a.lost ? "lost" : (a.finished ? "done" : "run"),
                static_cast<unsigned long long>(a.iterations),
                billed);
  }

  if (!stats.migrations.empty()) {
    std::printf("\nmigrations:\n");
    for (const MigrationRecord& m : stats.migrations) {
      const char* kind =
          m.crash ? (m.state_transfer ? "crash/xfer" : "crash/carry")
                  : (m.cross_subfleet ? "rebalance" : "drain");
      std::printf("  %7.0f ms  %-14s board %d -> %d  (%s%s, %.1f mJ billed, "
                  "%.1f mJ budget carried)\n",
                  ToMillis(m.when), m.app.c_str(), m.from, m.to, kind,
                  m.cross_subfleet ? ", cross-subfleet" : "",
                  m.consumed_source * 1e3, m.budget_carried * 1e3);
    }
  }

  if (!trace_dir.empty()) {
    int files = 0;
    for (int i = 0; i < fleet.board_count(); ++i) {
      files += ExportBalloonTimelines(fleet.kernel(i), trace_dir,
                                      "board" + std::to_string(i) + "_");
    }
    std::printf("\n%d balloon timeline(s) written to %s/board<i>_balloons_"
                "<domain>.csv\n",
                files, trace_dir.c_str());
  }

  std::printf("\nfleet fingerprint: %016llx\n",
              static_cast<unsigned long long>(stats.Fingerprint()));
  return 0;
}
