// SubFleetCoordinator: the lower level of the fleet-of-fleets hierarchy.
//
// Owns a contiguous slice of board shards but no threads: the root steps
// every sub-fleet's boards together on the fleet's one pool and then runs
// each sub-fleet's barrier as one task of a pool pass. Between two root
// barriers a sub-fleet is self-sufficient all the same: it runs its own
// single-threaded barrier at every sub-epoch boundary and performs all
// *intra*-sub-fleet migration — budget-pressure drains and, crucially,
// in-epoch board-failure hand-off: a failed board's residents are evacuated
// at the sub-fleet barrier that detects the failure, against the sub-fleet's
// own fresh load view, instead of waiting for the next root barrier. Only
// when every other local board is dead does an evacuation escalate (park) to
// the root, which resolves it cross-sub-fleet from digests.
//
// Determinism: a sub-fleet barrier only ever touches its own shards, the
// runtime records of apps currently resident on them, and its own logs. Two
// sub-fleets therefore share no mutable state between root barriers, and
// their barriers may run concurrently in any order — the fingerprint is
// invariant under the fleet's thread count.

#ifndef SRC_FLEET_SUBFLEET_COORDINATOR_H_
#define SRC_FLEET_SUBFLEET_COORDINATOR_H_

#include <vector>

#include "src/fleet/fleet_runtime.h"

namespace psbox {

class SubFleetCoordinator {
 public:
  // Owns boards [first, first + count) of |runtime|.
  SubFleetCoordinator(FleetRuntime* runtime, int index, int first, int count);
  SubFleetCoordinator(const SubFleetCoordinator&) = delete;
  SubFleetCoordinator& operator=(const SubFleetCoordinator&) = delete;

  int index() const { return index_; }
  int first_board() const { return first_; }
  int board_count() const { return count_; }
  bool Owns(int board) const { return board >= first_ && board < first_ + count_; }

  // Budget slice assigned by the root at the last root barrier. Bounded-
  // stale by design: mid-period pressure terms are computed against it.
  Joules allocation() const { return allocation_; }
  void set_allocation(Joules a) { allocation_ = a; }

  // Single-threaded sub-fleet barrier: board failures (in-epoch hand-off),
  // app completions and graceful hand-offs, budget-pressure drain decisions
  // — all restricted to the local slice, in fixed board/app order. Safe to
  // run concurrently with other sub-fleets' barriers.
  void ProcessBarrier(TimeNs now);

  // Compact summary shipped to the root. Call after ProcessBarrier so the
  // alive set and loads reflect this boundary's decisions.
  SubFleetDigest BuildDigest() const;

  // Hand-off history, local decisions only; the root keeps its own for
  // cross-sub-fleet moves.
  std::vector<MigrationRecord>& migrations() { return migrations_; }

  // Indices (into FleetRuntime::apps) of the apps this sub-fleet owns,
  // ascending. Barriers iterate this list and nothing else, so concurrent
  // sub-fleet barriers never touch another sub-fleet's app records — the
  // race-freedom argument in the header comment. Only the root (single-
  // threaded, at root barriers) moves an app between lists.
  const std::vector<int>& owned_apps() const { return owned_apps_; }
  void AdoptApp(int app_index);
  void ReleaseApp(int app_index);

 private:
  // Fresh per-board load view of the local slice; index i = board first_+i.
  // Energy/pressure terms are filled only when |with_energy| (they cost a
  // few prefix-sum lookups per board, and placement only needs them when
  // the fleet budget is enabled).
  std::vector<BoardLoad> LocalLoads(bool with_energy) const;

  FleetRuntime* rt_;
  int index_ = 0;
  int first_ = 0;
  int count_ = 0;
  Joules allocation_ = 0.0;
  std::vector<int> owned_apps_;  // ascending indices into rt_->apps()
  std::vector<MigrationRecord> migrations_;
};

}  // namespace psbox

#endif  // SRC_FLEET_SUBFLEET_COORDINATOR_H_
