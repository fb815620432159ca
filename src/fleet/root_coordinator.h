// RootCoordinator: the upper level of the fleet-of-fleets hierarchy.
//
// It slices the fleet's boards into contiguous sub-fleets (see
// SubFleetCoordinator) and owns the fleet's one ThreadPool of exactly
// `threads` threads. Each sub-epoch is three passes on that pool: every live
// board's window and run, every sub-fleet's barrier, every board's trim.
// Sub-fleets meet the root only every `root_period` sub-epochs; between root
// barriers they share nothing, and at every root barrier (and only there)
// the root:
//
//   1. collects one compact SubFleetDigest per sub-fleet — the only
//      cross-sub-fleet communication channel, so the root's view of remote
//      load is bounded-stale (at most one root period old) by design;
//   2. resolves parked cross-sub-fleet hand-offs from the digest-assembled
//      global load view: crash evacuations a dying sub-fleet could not place
//      locally, and graceful drains it parked for a root-chosen remote
//      target;
//   3. re-divides the FleetBudget ledger across sub-fleets in proportion to
//      their alive boards and pushes the fresh allocations down;
//   4. makes at most one rebalance decision: when a sub-fleet's budget
//      pressure exceeds `rebalance_ratio` times the fleet-wide pressure, its
//      hungriest migratable app is put on a cooperative drain towards the
//      least-loaded board outside the donor.
//
// Determinism: the root barrier is single-threaded and iterates sub-fleets
// and apps in fixed index order; between barriers sub-fleets share no
// mutable state (each owns its shard slice and an explicit app-index list),
// and each pool pass returns only once all its tasks have finished.
// FleetStats::Fingerprint() is therefore bit-identical for a fixed scenario
// at any thread count.
// `subfleets = 1, root_period = 1` reproduces the old flat single-barrier
// coordinator exactly.

#ifndef SRC_FLEET_ROOT_COORDINATOR_H_
#define SRC_FLEET_ROOT_COORDINATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/fleet/fleet_runtime.h"
#include "src/fleet/subfleet_coordinator.h"
#include "src/fleet/thread_pool.h"

namespace psbox {

class SnapshotReader;

class RootCoordinator {
 public:
  // The fleet runs on exactly |threads| (>= 1) threads: the one calling
  // Run() plus |threads| - 1 workers. The count affects wall-clock time only.
  RootCoordinator(FleetScenario scenario, int threads);
  ~RootCoordinator();
  RootCoordinator(const RootCoordinator&) = delete;
  RootCoordinator& operator=(const RootCoordinator&) = delete;

  // Advances every sub-fleet to the scenario horizon and returns the
  // aggregated fleet stats. Call once.
  FleetStats Run();

  // Periodic checkpointing: at the first root boundary where at least
  // |every_n_epochs| sub-epochs have completed since the last cut (before
  // the boundary barriers run — the only globally quiescent instant), the
  // whole fleet is serialised to |path| (overwriting earlier checkpoints).
  // With subfleets = 1 and root_period = 1 this is exactly the old flat
  // "every N epoch barriers" cadence. Call before Run().
  void set_checkpoint(std::string path, int every_n_epochs) {
    checkpoint_path_ = std::move(path);
    checkpoint_every_ = every_n_epochs;
  }

  // Warm restart: rebuilds a coordinator from a checkpoint written by a run
  // of the *same* scenario (the caller re-supplies it — factories cannot be
  // serialised; key fields, including the hierarchy and budget parameters,
  // are cross-checked against the file). The returned coordinator's Run()
  // resumes at the checkpointed root boundary and produces stats
  // bit-identical to the uninterrupted run at any thread count. Returns
  // nullptr with a descriptive |error| when the file is missing, corrupt,
  // truncated, or from a different scenario.
  static std::unique_ptr<RootCoordinator> RestoreFromCheckpoint(
      FleetScenario scenario, int threads, const std::string& path,
      std::string* error);

  // Root boundary a restored coordinator resumes from (0 on a fresh one).
  TimeNs resume_time() const { return resume_t_; }

  int subfleet_count() const { return static_cast<int>(subfleets_.size()); }

  // Post-run access for trace export (valid after Run()).
  int board_count() const { return static_cast<int>(rt_.shards().size()); }
  Kernel& kernel(int board) {
    return *rt_.shards()[static_cast<size_t>(board)]->kernel;
  }
  PsboxManager& manager(int board) {
    return *rt_.shards()[static_cast<size_t>(board)]->manager;
  }
  // Generated population of |board| (null when the scenario disables it).
  BoardPopulation* population(int board) {
    return rt_.shards()[static_cast<size_t>(board)]->population.get();
  }

 private:
  struct RestoreTag {};
  // Builds sub-fleets and app runtimes but spawns nothing (restore path).
  RootCoordinator(FleetScenario scenario, int threads, RestoreTag);

  // Slices boards into sub-fleets, seeds the budget ledger, and (unless
  // restoring) performs the initial spawns in app index order.
  void Init(bool spawn);

  int SubfleetOf(int board) const {
    return board_to_subfleet_[static_cast<size_t>(board)];
  }
  void MoveApp(int app_index, int from_subfleet, int to_subfleet);

  // Pass 1: every live board arms its population window and runs to |next|
  // (or to its failure instant, whichever comes first).
  void StepBoards(TimeNs next);
  // Passes 2 and 3: every sub-fleet's barrier (race-free via the
  // per-sub-fleet app ownership lists), then every board's telemetry trim.
  void SubFleetBarriers(TimeNs now);
  // Digest exchange + cross-sub-fleet migration + budget ledger, single-
  // threaded, in fixed order.
  void ProcessRootBarrier(TimeNs now);

  bool WriteCheckpoint(TimeNs now, std::string* error);
  // The checkpoint body both directions run (RestoreFromCheckpoint loads
  // with it). |now| is the root boundary the restored run resumes at.
  // Returns false with |error| when a shard refuses to save or the reader
  // fails.
  template <class Ar>
  bool SerializeCheckpoint(Ar& ar, TimeNs& now, std::string* error);
  FleetStats Aggregate();

  FleetRuntime rt_;
  std::vector<std::unique_ptr<SubFleetCoordinator>> subfleets_;
  std::vector<int> board_to_subfleet_;
  ThreadPool pool_;
  FleetBudget budget_;
  // Cross-sub-fleet hand-offs executed at root barriers; sub-fleets keep
  // their own local lists.
  std::vector<MigrationRecord> root_migrations_;
  std::string checkpoint_path_;
  int checkpoint_every_ = 0;
  TimeNs resume_t_ = 0;
  bool resumed_ = false;
  bool ran_ = false;
};

}  // namespace psbox

#endif  // SRC_FLEET_ROOT_COORDINATOR_H_
