// FleetRuntime: the state layer shared by the two coordinator levels.
//
// It owns the shard islands (Board + Kernel + PsboxManager), the per-app
// runtime records that follow apps across boards, and the mechanics every
// migration flavour is built from: spawning an app instance on a board
// (listed in the board's live fleet spawns, the instances a checkpoint
// records recipes for), closing a hop (billing energy + iterations to the
// board it ran on), and serialising billing state off a dying board (crash
// state transfer).
//
// Ownership discipline (the determinism argument leans on it): between root
// barriers, every shard and every app belongs to exactly one sub-fleet —
// SubFleetCoordinators only ever touch their own slice, so concurrent
// sub-fleet barriers are data-race free by construction, and a stepping or
// trim pass touches each shard from one thread only. The root touches
// anything it likes, but only from its single-threaded barrier.

#ifndef SRC_FLEET_FLEET_RUNTIME_H_
#define SRC_FLEET_FLEET_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/fleet/migration.h"
#include "src/popgen/board_population.h"
#include "src/psbox/psbox_manager.h"

namespace psbox {

// A fleet app instance spawned on a board and not yet retired there: what
// re-creates it on restore (the spec it instantiates, its label and its
// iteration target). An app's older instances stay listed until the
// board's kernel retires them.
struct FleetSpawn {
  AppId app = kNoApp;
  int app_index = -1;  // into FleetRuntime::apps
  std::string label;
  uint64_t iterations = 0;
};

// One board island.
struct FleetShard {
  int index = 0;
  TimeNs fail_at = 0;       // 0 = never
  bool failed = false;
  TimeNs now = 0;           // local clock at the last barrier
  std::unique_ptr<Board> board;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<PsboxManager> manager;
  // Generated background population (null when the scenario disables it).
  std::unique_ptr<BoardPopulation> population;
  // Live fleet app instances on this board, in spawn (= app id) order;
  // pruned behind the retention trim.
  std::vector<FleetSpawn> spawns;
};

// Runtime state of one FleetAppSpec instance as it moves across boards.
struct FleetAppRuntime {
  FleetAppSpec spec;
  int board = -1;
  int hops = 0;              // completed migrations (any kind)
  int budget_hops = 0;       // budget-pressure migrations (capped)
  int rebalance_hops = 0;    // root fleet-budget rebalance hops (capped)
  bool draining = false;
  bool finished = false;
  bool lost = false;
  Joules billed = 0.0;       // accumulated over completed hops
  bool ever_sandboxed = false;
  Joules budget_remaining = 0.0;
  uint64_t iterations_prev = 0;  // completed on boards already left
  uint64_t remaining = 0;        // iteration target for the current hop
  // Raw meter value carried onto the current board by a state-transfer
  // evacuation; the current hop's meter readings include it, so hop
  // billing subtracts it back out (0 after a fresh/drain-style spawn).
  Joules transferred_base = 0.0;

  // Cross-sub-fleet hand-off state. A sub-fleet that cannot (crash, no
  // local target) or must not (root-chosen remote target) finish a hand-off
  // locally parks the app here; the root resolves it at the next root
  // barrier from digests.
  int cross_target = -1;     // remote board the root picked (-1 = none)
  bool parked = false;       // hop closed, awaiting the root respawn
  bool evac_pending = false; // crashed with no local target; root decides
  int parked_from = -1;      // board the closed hop ran on
  Joules parked_consumed = 0.0;  // hop billing captured at park time
  Joules parked_raw = 0.0;       // raw meter reading for state transfer

  std::shared_ptr<bool> stop;
  AppHandle handle;
};

class FleetRuntime {
 public:
  FleetRuntime(FleetScenario scenario);
  ~FleetRuntime();
  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  const FleetScenario& scenario() const { return scenario_; }
  const MigrationPolicy& policy() const { return policy_; }
  std::vector<std::unique_ptr<FleetShard>>& shards() { return shards_; }
  const std::vector<std::unique_ptr<FleetShard>>& shards() const {
    return shards_;
  }
  std::vector<FleetAppRuntime>& apps() { return apps_; }
  const std::vector<FleetAppRuntime>& apps() const { return apps_; }
  std::vector<uint64_t>& board_iterations() { return board_iterations_; }

  // Spawns |app|'s behavior on |board_index| with its remaining iteration
  // target and lists the instance in the board's spawns.
  void SpawnOn(FleetAppRuntime& app, int board_index);

  // Bills the current hop (energy + iterations, attributed to the board it
  // ran on) and returns the energy consumed on it. |raw_reading| (optional)
  // receives the hop's raw cumulative meter value, transferred base
  // included — the quantity a state-transfer evacuation ships onward.
  Joules CloseHop(FleetAppRuntime& app, Joules* raw_reading = nullptr);

  // Crash evacuation of |app| from |source| onto |target|: serialise the
  // billing state on the dying board, validate, and stage it on the target
  // (true), or fall back to the drain-style carry on a torn/corrupt blob
  // (false). Either way the app ends up spawned on |target|.
  bool TransferAppState(FleetAppRuntime& app, int source, int target,
                        Joules raw_reading);

  // Cumulative rail energy (all seven rails) board |index| consumed up to
  // its local clock. Prefix-sum lookups: cheap enough for every barrier.
  Joules BoardEnergy(int index) const;

 private:
  void BuildShards();

  FleetScenario scenario_;
  MigrationPolicy policy_;
  std::vector<std::unique_ptr<FleetShard>> shards_;
  std::vector<FleetAppRuntime> apps_;
  // App iterations completed per board (cross-hop attribution).
  std::vector<uint64_t> board_iterations_;
};

}  // namespace psbox

#endif  // SRC_FLEET_FLEET_RUNTIME_H_
