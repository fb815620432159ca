// Fleet scenario and result types: a fleet is N independent simulated boards
// ("shards"), each a full Board + Kernel + PsboxManager island with its own
// derived seed and fault plan, advanced in lock-step epochs and exchanging
// apps through cross-board migration.
//
// The runtime is hierarchical (a fleet of fleets): boards are split into
// contiguous *sub-fleets*, each running its own bounded-lag barrier
// (subfleet_coordinator.h), while a root coordinator synchronises the
// sub-fleets every `root_period` sub-epochs by exchanging compact
// SubFleetDigests and driving cross-sub-fleet migration from them
// (root_coordinator.h). All of it runs on the root's one pool of exactly
// `threads` threads. `subfleets = 1, root_period = 1` degenerates to the old
// flat single-barrier coordinator.
//
// Everything here is plain configuration/result data; the coordinators own
// the runtime objects.

#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/board.h"
#include "src/kernel/kernel.h"
#include "src/popgen/population_config.h"
#include "src/workloads/table5_apps.h"

namespace psbox {

// A Table-5 style app factory (SpawnCalib3d, SpawnTriangle, ...).
using AppFactory = AppHandle (*)(Kernel&, const std::string&, AppOptions);

// One app placed somewhere in the fleet.
struct FleetAppSpec {
  std::string name;
  AppFactory factory = nullptr;
  // Index of the board the app initially runs on.
  int board = 0;
  // Spawn options; `stop` is managed by the coordinator (the migration drain
  // flag) and must be left null here. Migration billing needs `use_psbox`.
  AppOptions options;
  // Energy budget in joules; > 0 makes the app eligible for budget-pressure
  // migration once its consumption crosses the policy watermark. 0 = no
  // budget (the app never migrates on pressure, only on board failure).
  Joules energy_budget = 0.0;
  // Whether the migration policy may move this app at all.
  bool migratable = false;
};

// One board of the fleet.
struct FleetBoardSpec {
  // Hardware configuration. The coordinator overrides `board.seed` and
  // `board.faults.seed` with values derived from FleetScenario::seed and the
  // board index, so shard randomness is a pure function of (fleet seed,
  // board index) regardless of how specs are assembled.
  BoardConfig board;
  KernelConfig kernel;
  // Simulated instant at which this board fails outright (power loss): its
  // shard freezes there and its migratable apps are crash-migrated at the
  // next *sub-fleet* barrier (in-epoch hand-off — evacuation never waits for
  // the root barrier unless every other board of the sub-fleet is dead too).
  // 0 = never fails.
  TimeNs fail_at = 0;
};

struct MigrationConfig {
  bool enabled = true;
  // Budget pressure watermark: an app starts draining once the energy
  // consumed on its current board reaches this fraction of its remaining
  // budget.
  double pressure_fraction = 0.6;
  // Migration count cap per app (budget-pressure migrations; board-failure
  // evacuations ignore the cap — dying boards always evict. Root-driven
  // fleet-budget rebalance hops are capped by the same value but counted
  // separately).
  int max_hops = 1;
  // Weight of the energy-pressure term in the placement score
  // (MigrationPolicy::Score): score = active_apps + energy_weight * pressure.
  // With the fleet budget disabled every board's pressure is 0 and placement
  // degenerates to pure least-loaded.
  double energy_weight = 1.0;
  // Root rebalance trigger: a sub-fleet donates an app when its budget
  // pressure exceeds `rebalance_ratio` times the fleet-wide pressure.
  double rebalance_ratio = 1.25;
};

struct FleetScenario {
  // Master seed; shard i's board/fault seeds are derived from it.
  uint64_t seed = 0x5eed;
  // Epoch barrier spacing: within a sub-fleet, shards drift at most one
  // epoch apart mid-round and are exactly synchronised at every sub-fleet
  // barrier.
  DurationNs epoch = 10 * kMillisecond;
  // Total simulated time per board.
  TimeNs horizon = Seconds(2);
  // Hierarchy: boards are split into `subfleets` contiguous slices. Each
  // sub-fleet barriers on its own at every epoch; the root synchronises all
  // sub-fleets (digest exchange, cross-sub-fleet migration, budget
  // re-division) every `root_period` sub-epochs. 1/1 = flat fleet.
  int subfleets = 1;
  int root_period = 1;
  // Fleet-wide energy budget in joules (0 = disabled). The root keeps a
  // FleetBudget ledger subdivided into per-sub-fleet allocations
  // (proportional to alive boards, re-divided at every root barrier) and
  // rebalances app placement when a sub-fleet overruns its allocation. The
  // per-app accounting bound underneath is unchanged.
  Joules fleet_budget = 0.0;
  std::vector<FleetBoardSpec> boards;
  std::vector<FleetAppSpec> apps;
  // Migration policy. A failing board's sandboxed apps are evacuated by
  // *state transfer*: the dying board serialises the app's billing state
  // (raw meter reading, residual budget, progress) into a CRC-guarded blob
  // and the target board resumes billing from the transferred value. A torn
  // write (snapshot_corrupt fault) makes the blob fail validation, and the
  // evacuation falls back to the drain-style carry (billing restarts at
  // zero on the target; the budget ledger stays conserved either way).
  MigrationConfig migration;
  // Generated background population: when enabled, every board streams a
  // seeded endless arrival mix (one independent stream per board, derived
  // from population.seed and the board index) under per-board tenant
  // sandboxes, alongside the fixed `apps` cast. Deterministic per seed, so
  // fingerprints stay bit-identical across thread counts.
  PopulationConfig population;
};

// Per-board load snapshot, assembled at sub-fleet barriers (fresh for the
// local slice) and shipped upward inside SubFleetDigests (bounded-stale, at
// most one root period old, for everyone else).
struct BoardLoad {
  bool alive = true;
  // Apps currently resident and still running.
  int active_apps = 0;
  // Cumulative rail energy (all rails) the board consumed so far. Only
  // computed when the fleet budget is enabled.
  Joules energy = 0.0;
  // Energy-pressure term: `energy` divided by the board's slice of its
  // sub-fleet's budget allocation. 0 when the fleet budget is disabled.
  double pressure = 0.0;
};

// Compact per-sub-fleet summary exchanged at root barriers. This is the
// *only* cross-sub-fleet communication channel: the root never reads shard
// state directly, so its view of remote load is bounded-stale by design.
struct SubFleetDigest {
  int subfleet = -1;
  int first_board = 0;       // global index of the slice start
  int alive_boards = 0;
  int active_apps = 0;
  Joules energy_total = 0.0; // cumulative rail energy over the whole slice
  Joules allocation = 0.0;   // budget slice at the last root barrier
  double pressure = 0.0;     // energy_total / allocation (0 when unbudgeted)
  std::vector<BoardLoad> loads;  // loads[i] is global board first_board + i
};

// Fleet-wide energy budget ledger (root-owned). `allocation[s]` is
// sub-fleet s's current slice of `total`; `consumed[s]` mirrors the last
// digest's energy total.
struct FleetBudget {
  Joules total = 0.0;  // 0 = disabled
  std::vector<Joules> allocation;
  std::vector<Joules> consumed;

  bool enabled() const { return total > 0.0; }
  double Pressure(size_t s) const {
    return (enabled() && allocation[s] > 0.0) ? consumed[s] / allocation[s]
                                              : 0.0;
  }
  double FleetPressure() const {
    if (!enabled()) {
      return 0.0;
    }
    Joules c = 0.0;
    for (const Joules v : consumed) {
      c += v;
    }
    return c / total;
  }
};

// One completed migration (graceful drain, crash evacuation, or root-driven
// fleet-budget rebalance).
struct MigrationRecord {
  TimeNs when = 0;           // barrier time the hand-off happened at
  std::string app;           // FleetAppSpec::name
  int from = -1;
  int to = -1;
  bool crash = false;        // board-failure evacuation vs budget drain
  // The hop crossed a sub-fleet boundary (decided/executed at a root
  // barrier from digests rather than at a sub-fleet barrier).
  bool cross_subfleet = false;
  // Crash evacuations only: the billing state made it to the target by
  // snapshot transfer (false = the blob failed validation, or the app had
  // no virtual meter to transfer, and the hop fell back to the drain-style
  // carry).
  bool state_transfer = false;
  Joules consumed_source = 0.0;  // billed on the source board this hop
  Joules budget_carried = 0.0;   // remaining budget moved to the target
  uint64_t iterations_done = 0;  // iterations completed before the hand-off
};

// Aggregated per-board results.
struct FleetBoardStats {
  bool failed = false;
  TimeNs ran_until = 0;          // horizon, or fail_at for failed boards
  Joules rail_energy = 0.0;      // summed over all seven rails
  uint64_t balloons = 0;         // summed over all resource domains
  uint64_t balloons_aborted = 0;
  uint64_t iterations = 0;       // app iterations completed on this board
  int migrations_in = 0;
  int migrations_out = 0;
  // Generated population: arrivals spawned on this board and how many of
  // them ran to completion. Both are fingerprinted — the determinism
  // contract extends to the population.
  uint64_t popgen_spawned = 0;
  uint64_t popgen_completed = 0;
  // Discrete events the board's engine fired over the run. Observability
  // only: excluded from Fingerprint() so fingerprints survive engine-internal
  // changes to event decomposition; determinism of the count itself is pinned
  // separately by fleet_test.
  uint64_t events_fired = 0;
};

// Aggregated per-sub-fleet results (hierarchy level between board and fleet).
struct SubFleetStats {
  int first_board = 0;
  int boards = 0;
  Joules energy = 0.0;           // cumulative rail energy over the slice
  Joules allocation = 0.0;       // final budget allocation (0 = unbudgeted)
  int cross_in = 0;              // cross-sub-fleet migrations received
  int cross_out = 0;             // cross-sub-fleet migrations donated
};

// Final per-app outcome, across however many boards the app visited.
struct FleetAppOutcome {
  std::string name;
  int hops = 0;               // completed migrations
  int final_board = -1;
  bool finished = false;      // ran to its iteration/deadline end
  bool lost = false;          // died with its board (non-migratable / no target)
  uint64_t iterations = 0;    // total across all boards
  // Total energy billed through the app's psboxes, summed across boards.
  // -1 when the app never ran sandboxed.
  Joules billed_energy = -1.0;
};

struct FleetStats {
  std::vector<FleetBoardStats> boards;
  std::vector<SubFleetStats> subfleets;
  std::vector<FleetAppOutcome> apps;
  std::vector<MigrationRecord> migrations;

  // Order-sensitive FNV-1a hash over every field above. Two runs of the same
  // scenario produce the same fingerprint regardless of the thread count —
  // the determinism contract fleet_test pins down.
  uint64_t Fingerprint() const;
};

}  // namespace psbox

#endif  // SRC_FLEET_FLEET_H_
