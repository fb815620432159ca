// BoardPopulation: streams one board's generated app population onto its
// kernel through the event engine.
//
// Live stepping is window-based: before a shard runs an epoch to T1, the
// coordinator calls ScheduleWindow(T1), which turns every generated arrival
// in (scheduled_until, T1] into a simulator event; RunUntil(T1) fires events
// at <= T1, so the window fully drains before the barrier — a checkpoint cut
// at a barrier never sees a pending arrival event.
//
// Checkpoints hold what is alive, never the history: the board's cursor (the
// generator's, the lookahead arrival held back for the next window, and the
// counts) and, per live generated app, the arrival that spawned it — its
// recipe. A restore re-creates the tenants and the listed apps alone
// (RestoreTenant, RestoreArrival, under Kernel::BeginRestore and the
// recorded ids) and resumes the stream from the cursor, so its cost follows
// the live population, not the horizon.
//
// Tenancy: the board gets tenants_per_board tenant sandboxes bound to all
// balloon-metered components; each arrival's app box nests under its
// round-robin tenant, claiming child_budget joules of the tenant's slice.

#ifndef SRC_POPGEN_BOARD_POPULATION_H_
#define SRC_POPGEN_BOARD_POPULATION_H_

#include <string>
#include <vector>

#include "src/popgen/population_generator.h"
#include "src/psbox/psbox_manager.h"

namespace psbox {

class BoardPopulation {
 public:
  // A live generated app and the arrival that spawned it.
  struct LiveArrival {
    AppId app = kNoApp;
    GeneratedArrival arrival;
  };

  // |stream_seed| must be derived from (config seed, board index) by the
  // caller so every board draws an independent deterministic stream.
  BoardPopulation(const PopulationConfig& cfg, uint64_t stream_seed,
                  int board_index, Kernel* kernel, PsboxManager* manager);

  // Creates the per-board tenant principals (apps + tenant sandboxes). Must
  // run before any arrival spawns and before any other boxes exist on the
  // board, so tenant box ids are deterministically 0..tenants-1. With
  // |restoring| only the apps are created (RestoreTenant for each).
  void CreateTenants(bool restoring);

  // Live stepping: schedules every arrival in (scheduled_until, until] as a
  // simulator event. Call from the shard's worker before RunUntil(until).
  // Also forgets the spawned apps the kernel has retired since the last
  // window (they stay counted as completed).
  void ScheduleWindow(TimeNs until);

  // Population stats (fingerprinted per board).
  uint64_t spawned() const { return spawned_; }
  // Spawned apps that have run to completion, judged by the kernel; retired
  // apps count as completed.
  uint64_t CompletedCount() const;
  // Nested accounting audit over this board's tenants (see
  // PsboxManager::AccountingViolations).
  size_t AccountingViolations(double bound) const;

  int tenant_box(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].box;
  }
  AppId tenant_app(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].app;
  }
  int tenant_count() const { return static_cast<int>(tenants_.size()); }

  // --- checkpoint/restore -------------------------------------------------
  // The live generated apps, each with its arrival; with the tenants' apps
  // they are what recipes re-create.
  const std::vector<LiveArrival>& live_arrivals() const { return live_; }
  // The cursor: the generator's, the pending lookahead arrival, the
  // scheduled window end and the spawned and retired counts. Saving first
  // forgets the apps the kernel retired, so live_arrivals() then lists only
  // live ones. The load rejects a cursor that lies before the shard clock
  // |now| or a pending arrival that CheckArrival rejects.
  template <class Ar>
  void Serialize(Ar& ar, TimeNs now);
  // Empty when a restored |a| names a catalog entry and a tenant slot (-1
  // without tenants) that exist; otherwise why not.
  std::string CheckArrival(const GeneratedArrival& a) const;
  // Restore mode: re-create tenant |tenant|'s app (the next tenant in order)
  // and a listed generated app. Neither counts as a spawn.
  void RestoreTenant(int tenant);
  void RestoreArrival(const GeneratedArrival& a);

 private:
  void CreateTenant(int tenant, bool restoring);
  void SpawnArrival(const GeneratedArrival& a);
  // Drops the retired apps from live_, counting them in retired_.
  void ForgetRetired();
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
  struct Tenant {
    AppId app = kNoApp;
    int box = -1;
  };
  std::vector<Tenant> tenants_;
  // Spawned apps not yet retired, and how many were forgotten on retirement.
  std::vector<LiveArrival> live_;
  uint64_t retired_ = 0;
  uint64_t spawned_ = 0;
};

}  // namespace psbox

#endif  // SRC_POPGEN_BOARD_POPULATION_H_
