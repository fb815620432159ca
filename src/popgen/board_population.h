// BoardPopulation: streams one board's generated app population onto its
// kernel through the event engine.
//
// Live stepping is window-based: before a shard runs an epoch to T1, the
// coordinator calls ScheduleWindow(T1), which turns every generated arrival
// in (scheduled_until, T1] into a simulator event; RunUntil(T1) fires events
// at <= T1, so the window fully drains before the barrier — a checkpoint cut
// at a barrier never sees a pending arrival event. Spawning never consults
// simulation state (no admission control), so a restore can reproduce the
// exact app/task construction sequence by replaying the generator from its
// seed through the restored clock (ReplayArrivalsThrough).
//
// Tenancy: the board gets tenants_per_board tenant sandboxes bound to all
// balloon-metered components; each arrival's app box nests under its
// round-robin tenant, claiming child_budget joules of the tenant's slice.

#ifndef SRC_POPGEN_BOARD_POPULATION_H_
#define SRC_POPGEN_BOARD_POPULATION_H_

#include <vector>

#include "src/popgen/population_generator.h"
#include "src/psbox/psbox_manager.h"

namespace psbox {

class BoardPopulation {
 public:
  // |stream_seed| must be derived from (config seed, board index) by the
  // caller so every board draws an independent deterministic stream.
  BoardPopulation(const PopulationConfig& cfg, uint64_t stream_seed,
                  int board_index, Kernel* kernel, PsboxManager* manager);

  // Creates the per-board tenant principals (apps + tenant sandboxes). Must
  // run before any arrival spawns and before any other boxes exist on the
  // board, so tenant box ids are deterministically 0..tenants-1. On the
  // restore path only the apps are re-created (the manager replays its
  // sandboxes from the snapshot itself).
  void CreateTenants(bool restoring);

  // Live stepping: schedules every arrival in (scheduled_until, until] as a
  // simulator event. Call from the shard's worker before RunUntil(until).
  // Also forgets the spawned apps the kernel has retired since the last
  // window (they stay counted as completed).
  void ScheduleWindow(TimeNs until);

  // Restore replay: immediately re-invokes the spawn factory for every
  // arrival in (scheduled_until, until], in arrival order. Runs under
  // Kernel::BeginRestore — the factories recreate apps/tasks for the
  // snapshot overlay; behaviors never execute.
  void ReplayArrivalsThrough(TimeNs until);

  // Population stats (fingerprinted per board).
  uint64_t spawned() const { return spawned_; }
  // Spawned apps that have run to completion, judged by the kernel; retired
  // apps count as completed.
  uint64_t CompletedCount() const;
  // Nested accounting audit over this board's tenants (see
  // PsboxManager::AccountingViolations).
  size_t AccountingViolations(double bound) const;

  int tenant_box(int tenant) const { return tenant_boxes_[static_cast<size_t>(tenant)]; }
  int tenant_count() const { return static_cast<int>(tenant_boxes_.size()); }

 private:
  void SpawnArrival(const GeneratedArrival& a);
  // Pulls the next arrival at or before |until| into |a| (the lookahead
  // overshoot is kept pending for the next window). False when the window
  // is exhausted.
  bool PopArrivalUpTo(TimeNs until, GeneratedArrival* a);

  PopulationConfig cfg_;
  int board_;
  Kernel* kernel_;
  PsboxManager* manager_;
  PopulationGenerator gen_;
  bool has_pending_ = false;
  GeneratedArrival pending_;
  TimeNs scheduled_until_ = 0;
  std::vector<int> tenant_boxes_;
  // Spawned apps not yet retired, and how many were forgotten on retirement.
  std::vector<AppId> spawned_apps_;
  uint64_t retired_ = 0;
  uint64_t spawned_ = 0;
};

}  // namespace psbox

#endif  // SRC_POPGEN_BOARD_POPULATION_H_
