#include "src/fleet/root_coordinator.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/base/check.h"
#include "src/snapshot/board_snapshot.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {
namespace {

// One board's share of pass 1: arm the window (now, target] of generated
// arrivals, then run to |target|. RunUntil(target) fires events at <=
// target, so every arrival drains before the barrier and a checkpoint cut at
// a root boundary never sees a pending arrival event. A board stops at its
// failure instant; the barrier that follows marks it failed.
void StepBoard(FleetShard& s, TimeNs next) {
  if (s.failed) {
    return;
  }
  const TimeNs target = s.fail_at > 0 ? std::min(next, s.fail_at) : next;
  if (target <= s.now) {
    return;
  }
  if (s.population != nullptr) {
    s.population->ScheduleWindow(target);
  }
  s.kernel->RunUntil(target);
  s.now = target;
}

// How a restore re-creates one live app of a board, under its recorded app
// id and first task id: a tenant principal, an instance of a fleet app, or
// a generated arrival.
struct AppRecipe {
  enum class Kind : uint8_t { kTenant, kFleetSpawn, kArrival };
  AppId app = kNoApp;
  TaskId first_task = 0;
  Kind kind = Kind::kTenant;
  int tenant = -1;          // kTenant: the tenant slot
  FleetSpawn spawn;         // kFleetSpawn (spawn.app is |app|)
  bool current = false;     // kFleetSpawn: the instance the app's handle names
  GeneratedArrival arrival; // kArrival (its time is not recorded)

  template <class Ar>
  void Serialize(Ar& ar) {
    ar.I64(app);
    ar.I64(first_task);
    ar.Enum(kind, Kind::kArrival, "app recipe kind");
    switch (kind) {
      case Kind::kTenant:
        ar.I64(tenant);
        break;
      case Kind::kFleetSpawn:
        ar.I64(spawn.app_index);
        ar.Str(spawn.label);
        ar.U64(spawn.iterations);
        ar.Bool(current);
        break;
      case Kind::kArrival:
        ar.I64(arrival.catalog_index);
        ar.U64(arrival.seq);
        ar.U64(arrival.iterations);
        ar.I64(arrival.tenant);
        ar.Bool(arrival.adversarial);
        break;
    }
  }
};

// The recipes of every live app on |s|, in app id order. The population's
// live list must already be pruned (its Serialize does that on save).
std::vector<AppRecipe> LiveRecipes(FleetShard& s,
                                   const std::vector<FleetAppRuntime>& apps) {
  std::vector<AppRecipe> recipes;
  if (s.population != nullptr) {
    for (int i = 0; i < s.population->tenant_count(); ++i) {
      AppRecipe& r = recipes.emplace_back();
      r.app = s.population->tenant_app(i);
      r.kind = AppRecipe::Kind::kTenant;
      r.tenant = i;
    }
    for (const BoardPopulation::LiveArrival& live :
         s.population->live_arrivals()) {
      AppRecipe& r = recipes.emplace_back();
      r.app = live.app;
      r.kind = AppRecipe::Kind::kArrival;
      r.arrival = live.arrival;
    }
  }
  s.ForgetRetiredSpawns();
  for (const FleetSpawn& spawn : s.spawns) {
    const FleetAppRuntime& app = apps[static_cast<size_t>(spawn.app_index)];
    AppRecipe& r = recipes.emplace_back();
    r.app = spawn.app;
    r.kind = AppRecipe::Kind::kFleetSpawn;
    r.spawn = spawn;
    r.current = app.board == s.index && app.handle.app == spawn.app;
  }
  for (AppRecipe& r : recipes) {
    r.first_task = s.kernel->FirstTaskId(r.app);
  }
  std::sort(recipes.begin(), recipes.end(),
            [](const AppRecipe& a, const AppRecipe& b) {
              return a.app < b.app;
            });
  return recipes;
}

// Restore: re-creates the live apps of |s| from |recipes|, one factory call
// each under the recorded ids (the kernel is in restore mode), and marks in
// |has_current| each fleet app whose current instance it re-created. Fails
// |ar| at the first recipe the save side could not have written.
void RecreateApps(SnapshotReader& ar, FleetShard& s,
                  const std::vector<AppRecipe>& recipes,
                  std::vector<FleetAppRuntime>& apps, int tenants,
                  std::vector<bool>& has_current) {
  const std::string board = "checkpoint board " + std::to_string(s.index);
  // App ids ascend strictly; first task ids ascend too, but a task-less
  // app (a tenant) shares its first task id with the app after it, and the
  // kernel refuses a first task id inside the previous app's tasks.
  AppId prev_app = -1;
  TaskId prev_task = 1;
  for (const AppRecipe& r : recipes) {
    if (r.app <= prev_app || r.first_task < prev_task) {
      ar.Fail(board + " app recipes do not ascend (app " +
              std::to_string(r.app) + ", first task " +
              std::to_string(r.first_task) + ")");
      return;
    }
    prev_app = r.app;
    prev_task = r.first_task;
    if (!s.kernel->RestoreIdsAt(r.app, r.first_task)) {
      ar.Fail(board + " app " + std::to_string(r.app) + " first task " +
              std::to_string(r.first_task) +
              " overlaps the tasks re-created before it");
      return;
    }
    const int restored_tenants =
        s.population != nullptr ? s.population->tenant_count() : 0;
    switch (r.kind) {
      case AppRecipe::Kind::kTenant:
        if (r.tenant < 0 || r.tenant >= tenants) {
          ar.Fail(board + " tenant " + std::to_string(r.tenant) +
                  " outside [0, " + std::to_string(tenants) + ")");
          return;
        }
        if (r.tenant != restored_tenants) {
          ar.Fail(board + " lists tenant " + std::to_string(r.tenant) +
                  " out of order");
          return;
        }
        s.population->RestoreTenant(r.tenant);
        break;
      case AppRecipe::Kind::kArrival: {
        if (s.population == nullptr) {
          ar.Fail(board + " lists a generated app but runs no population");
          return;
        }
        const std::string bad = s.population->CheckArrival(r.arrival);
        if (!bad.empty()) {
          ar.Fail(bad);
          return;
        }
        if (r.arrival.tenant >= restored_tenants) {
          ar.Fail(board + " lists a generated app under tenant " +
                  std::to_string(r.arrival.tenant) + " ahead of that tenant");
          return;
        }
        s.population->RestoreArrival(r.arrival);
        break;
      }
      case AppRecipe::Kind::kFleetSpawn: {
        const int index = r.spawn.app_index;
        if (index < 0 || static_cast<size_t>(index) >= apps.size()) {
          ar.Fail(board + " fleet spawn names app spec " +
                  std::to_string(index) + " outside the scenario's " +
                  std::to_string(apps.size()) + " apps");
          return;
        }
        FleetAppRuntime& app = apps[static_cast<size_t>(index)];
        if (r.current && app.board != s.index) {
          ar.Fail(board + " holds the current instance of fleet app " +
                  std::to_string(index) + ", which runs on board " +
                  std::to_string(app.board));
          return;
        }
        if (r.current && has_current[static_cast<size_t>(index)]) {
          ar.Fail("checkpoint lists two current instances of fleet app " +
                  std::to_string(index));
          return;
        }
        AppOptions opts = app.spec.options;
        opts.iterations = r.spawn.iterations;
        auto stop = std::make_shared<bool>(false);
        opts.stop = stop;
        AppHandle handle = app.spec.factory(*s.kernel, r.spawn.label, opts);
        s.spawns.push_back(
            {handle.app, index, r.spawn.label, r.spawn.iterations});
        if (r.current) {
          has_current[static_cast<size_t>(index)] = true;
          app.stop = std::move(stop);
          app.handle = std::move(handle);
        }
        break;
      }
    }
  }
  if (s.population != nullptr && s.population->tenant_count() != tenants) {
    ar.Fail(board + " lists " + std::to_string(s.population->tenant_count()) +
            " of its " + std::to_string(tenants) + " tenants");
  }
}

}  // namespace

RootCoordinator::RootCoordinator(FleetScenario scenario, int threads)
    : rt_(std::move(scenario)), pool_(threads) {
  Init(/*spawn=*/true);
}

RootCoordinator::RootCoordinator(FleetScenario scenario, int threads,
                                 RestoreTag)
    : rt_(std::move(scenario)), pool_(threads) {
  // Checkpoint restore: sub-fleets and app runtimes are built, but nothing
  // is spawned; SerializeCheckpoint re-creates the live apps from their
  // recipes.
  Init(/*spawn=*/false);
}

RootCoordinator::~RootCoordinator() = default;

void RootCoordinator::Init(bool spawn) {
  const int subfleet_count = rt_.scenario().subfleets;
  const int boards = static_cast<int>(rt_.shards().size());
  const int base = boards / subfleet_count;
  const int rem = boards % subfleet_count;
  board_to_subfleet_.assign(static_cast<size_t>(boards), 0);
  int first = 0;
  for (int s = 0; s < subfleet_count; ++s) {
    const int count = base + (s < rem ? 1 : 0);
    subfleets_.push_back(
        std::make_unique<SubFleetCoordinator>(&rt_, s, first, count));
    for (int b = first; b < first + count; ++b) {
      board_to_subfleet_[static_cast<size_t>(b)] = s;
    }
    first += count;
  }

  budget_.total = rt_.scenario().fleet_budget;
  budget_.allocation.assign(static_cast<size_t>(subfleet_count), 0.0);
  budget_.consumed.assign(static_cast<size_t>(subfleet_count), 0.0);
  if (budget_.enabled()) {
    // Initial division: proportional to board count (everything is alive).
    for (int s = 0; s < subfleet_count; ++s) {
      budget_.allocation[static_cast<size_t>(s)] =
          budget_.total * subfleets_[static_cast<size_t>(s)]->board_count() /
          boards;
      subfleets_[static_cast<size_t>(s)]->set_allocation(
          budget_.allocation[static_cast<size_t>(s)]);
    }
  }

  if (spawn) {
    // Tenant principals first: their apps and sandboxes must precede every
    // other app and box on a board so their ids stay deterministic and the
    // generated arrivals can nest under them from the first epoch. The
    // restore path re-creates them from their recipes instead.
    for (auto& shard : rt_.shards()) {
      if (shard->population != nullptr) {
        shard->population->CreateTenants(/*restoring=*/false);
      }
    }
    auto& apps = rt_.apps();
    for (size_t i = 0; i < apps.size(); ++i) {
      SubFleetCoordinator& sf =
          *subfleets_[static_cast<size_t>(SubfleetOf(apps[i].spec.board))];
      sf.AdoptApp(static_cast<int>(i));
      rt_.SpawnOn(apps[i], apps[i].spec.board);
    }
  }
}

void RootCoordinator::MoveApp(int app_index, int from_subfleet,
                              int to_subfleet) {
  if (from_subfleet == to_subfleet) {
    return;
  }
  subfleets_[static_cast<size_t>(from_subfleet)]->ReleaseApp(app_index);
  subfleets_[static_cast<size_t>(to_subfleet)]->AdoptApp(app_index);
}

void RootCoordinator::StepBoards(TimeNs next) {
  auto& shards = rt_.shards();
  pool_.ParallelFor(board_count(), [&shards, next](int b) {
    StepBoard(*shards[static_cast<size_t>(b)], next);
  });
}

void RootCoordinator::SubFleetBarriers(TimeNs now) {
  pool_.ParallelFor(subfleet_count(), [this, now](int s) {
    subfleets_[static_cast<size_t>(s)]->ProcessBarrier(now);
  });
}

void RootCoordinator::ProcessRootBarrier(TimeNs now) {
  const size_t subfleet_count = subfleets_.size();
  auto& apps = rt_.apps();
  auto& shards = rt_.shards();
  const MigrationPolicy& policy = rt_.policy();

  // --- 1. digest exchange --------------------------------------------------
  std::vector<SubFleetDigest> digests;
  digests.reserve(subfleet_count);
  for (auto& sf : subfleets_) {
    digests.push_back(sf->BuildDigest());
  }
  // Global load view assembled purely from the digests. For placement this
  // is as fresh as it gets (the digests were built at this boundary); the
  // point is that it is the *only* remote state the root consumes.
  std::vector<BoardLoad> view(shards.size());
  for (const SubFleetDigest& d : digests) {
    for (size_t i = 0; i < d.loads.size(); ++i) {
      view[static_cast<size_t>(d.first_board) + i] = d.loads[i];
    }
  }

  // --- 2a. cross-sub-fleet crash evacuations -------------------------------
  // Apps whose whole sub-fleet slice died before a local target was found.
  for (size_t ai = 0; ai < apps.size(); ++ai) {
    FleetAppRuntime& app = apps[ai];
    if (!app.evac_pending) {
      continue;
    }
    app.evac_pending = false;
    const int from = app.parked_from;
    const int target = policy.ClaimTarget(view, from);
    if (target < 0) {
      app.lost = true;  // the whole fleet is dead
      continue;
    }
    ++app.hops;
    const bool transferred =
        rt_.TransferAppState(app, from, target, app.parked_raw);
    MigrationRecord rec;
    rec.when = now;
    rec.app = app.spec.name;
    rec.from = from;
    rec.to = target;
    rec.crash = true;
    rec.cross_subfleet = true;
    rec.state_transfer = transferred;
    rec.consumed_source = app.parked_consumed;
    rec.budget_carried = app.budget_remaining;
    rec.iterations_done = app.iterations_prev;
    root_migrations_.push_back(std::move(rec));
    MoveApp(static_cast<int>(ai), SubfleetOf(from), SubfleetOf(target));
  }

  // --- 2b. parked graceful hand-offs ---------------------------------------
  // Drains the root ordered towards a remote target; the target is
  // re-validated against this boundary's digests (it may have died since the
  // decision one root period ago).
  for (size_t ai = 0; ai < apps.size(); ++ai) {
    FleetAppRuntime& app = apps[ai];
    if (!app.parked) {
      continue;
    }
    app.parked = false;
    const int from = app.parked_from;
    int target = app.cross_target;
    if (target >= 0 && view[static_cast<size_t>(target)].alive) {
      ++view[static_cast<size_t>(target)].active_apps;  // claim
    } else {
      target = policy.ClaimTarget(view, from);
    }
    if (target < 0) {
      app.finished = true;  // nowhere to go; what ran is the outcome
      app.board = from;
      app.cross_target = -1;
      continue;
    }
    ++app.hops;
    ++app.rebalance_hops;
    rt_.SpawnOn(app, target);
    MigrationRecord rec;
    rec.when = now;
    rec.app = app.spec.name;
    rec.from = from;
    rec.to = target;
    rec.crash = false;
    rec.cross_subfleet = true;
    rec.consumed_source = app.parked_consumed;
    rec.budget_carried = app.budget_remaining;
    rec.iterations_done = app.iterations_prev;
    root_migrations_.push_back(std::move(rec));
    MoveApp(static_cast<int>(ai), SubfleetOf(from), SubfleetOf(target));
  }

  // --- 3. fleet-budget ledger re-division ----------------------------------
  if (budget_.enabled()) {
    int alive_total = 0;
    for (const SubFleetDigest& d : digests) {
      alive_total += d.alive_boards;
    }
    for (size_t s = 0; s < subfleet_count; ++s) {
      budget_.consumed[s] = digests[s].energy_total;
      budget_.allocation[s] =
          alive_total > 0
              ? budget_.total * digests[s].alive_boards / alive_total
              : 0.0;
      subfleets_[s]->set_allocation(budget_.allocation[s]);
    }
  }

  // --- 4. rebalance: at most one donated app per root barrier --------------
  if (!budget_.enabled() || !policy.config().enabled || subfleet_count < 2 ||
      now >= rt_.scenario().horizon) {
    return;
  }
  const double fleet_pressure = budget_.FleetPressure();
  if (fleet_pressure <= 0.0) {
    return;
  }
  int donor = -1;
  double donor_pressure = 0.0;
  for (size_t s = 0; s < subfleet_count; ++s) {
    const double p = budget_.Pressure(s);
    if (donor < 0 || p > donor_pressure) {
      donor = static_cast<int>(s);
      donor_pressure = p;
    }
  }
  if (donor_pressure <= policy.config().rebalance_ratio * fleet_pressure) {
    return;
  }
  // The donor's hungriest live app: most energy drawn on its current hop.
  // Ties break towards the lowest app index (strict >).
  int best_app = -1;
  Joules best_consumed = -1.0;
  for (int ai : subfleets_[static_cast<size_t>(donor)]->owned_apps()) {
    FleetAppRuntime& app = apps[static_cast<size_t>(ai)];
    if (app.finished || app.lost || app.draining || app.parked ||
        app.evac_pending || !app.spec.migratable || app.board < 0) {
      continue;
    }
    if (app.rebalance_hops >= policy.config().max_hops) {
      continue;
    }
    if (!app.spec.options.use_psbox || app.handle.stats == nullptr ||
        app.handle.stats->box < 0) {
      continue;
    }
    FleetShard& shard = *shards[static_cast<size_t>(app.board)];
    if (shard.failed) {
      continue;
    }
    const Joules consumed =
        std::max(0.0, shard.manager->ReadEnergy(app.handle.stats->box) -
                          app.transferred_base);
    if (consumed > best_consumed) {
      best_app = ai;
      best_consumed = consumed;
    }
  }
  if (best_app < 0) {
    return;
  }
  // Target: lowest-score alive board outside the donor, from the digests.
  std::vector<BoardLoad> outside = view;
  const int donor_first =
      subfleets_[static_cast<size_t>(donor)]->first_board();
  const int donor_boards =
      subfleets_[static_cast<size_t>(donor)]->board_count();
  for (int b = donor_first; b < donor_first + donor_boards; ++b) {
    outside[static_cast<size_t>(b)].alive = false;
  }
  const int target = policy.PickTarget(outside, -1);
  if (target < 0) {
    return;
  }
  FleetAppRuntime& app = apps[static_cast<size_t>(best_app)];
  app.cross_target = target;
  *app.stop = true;  // cooperative drain; the park happens at a sub-barrier
  app.draining = true;
}

FleetStats RootCoordinator::Run() {
  PSBOX_CHECK(!ran_);
  ran_ = true;
  const FleetScenario& scenario = rt_.scenario();
  const DurationNs period = scenario.epoch * scenario.root_period;

  TimeNs t = 0;
  uint64_t epochs_done = 0;
  if (resumed_) {
    // The checkpoint was cut with every shard advanced to resume_t_ but the
    // boundary barriers not yet processed — re-run them (and the root
    // barrier) on the restored, bit-identical state and continue.
    SubFleetBarriers(resume_t_);
    ProcessRootBarrier(resume_t_);
    t = resume_t_;
    epochs_done = static_cast<uint64_t>(resume_t_ / scenario.epoch);
  }
  uint64_t next_checkpoint =
      checkpoint_every_ > 0
          ? (epochs_done / static_cast<uint64_t>(checkpoint_every_) + 1) *
                static_cast<uint64_t>(checkpoint_every_)
          : 0;

  TimeNs root_next = t;  // where the current root period ends
  while (t < scenario.horizon) {
    if (t == root_next) {
      root_next = std::min<TimeNs>(t + period, scenario.horizon);
    }
    const TimeNs next = std::min<TimeNs>(t + scenario.epoch, root_next);
    StepBoards(next);
    ++epochs_done;
    const bool at_root = next == root_next;
    // Checkpoint cadence: the instant after the boards stopped at a root
    // boundary and before the boundary barriers, which a restored run
    // re-runs on the restored state (every board's pending events travel as
    // its engine's records).
    if (at_root && checkpoint_every_ > 0 && !checkpoint_path_.empty() &&
        next < scenario.horizon && epochs_done >= next_checkpoint) {
      std::string error;
      if (!WriteCheckpoint(next, &error)) {
        // A board has a record pending that a snapshot cannot carry. Say
        // which target.
        std::fprintf(stderr, "[psbox] checkpoint write failed: %s\n",
                     error.c_str());
        PSBOX_CHECK(false);
      }
      next_checkpoint =
          (epochs_done / static_cast<uint64_t>(checkpoint_every_) + 1) *
          static_cast<uint64_t>(checkpoint_every_);
    }
    SubFleetBarriers(next);
    if (at_root) {
      ProcessRootBarrier(next);
    }
    t = next;
  }

  // Settle apps still running at the horizon so their last hop is billed.
  // Parked hops were already closed when they parked.
  for (FleetAppRuntime& app : rt_.apps()) {
    if (!app.finished && !app.lost && !app.parked && !app.evac_pending &&
        app.board >= 0) {
      rt_.CloseHop(app);
    }
  }
  return Aggregate();
}

template <class Ar>
bool RootCoordinator::SerializeCheckpoint(Ar& ar, TimeNs& now,
                                          std::string* error) {
  const FleetScenario& scenario = rt_.scenario();
  auto& apps = rt_.apps();
  ar.Section("fleet");

  // Compatibility block: enough of the scenario to refuse a restore under a
  // different one (factories cannot be serialised, so the caller re-supplies
  // the scenario and these fields cross-check it). Every mismatch is a
  // different scenario, not a corrupt file — say so.
  const char* run_mismatch =
      "checkpoint was written under a different fleet scenario "
      "(seed/epoch/horizon mismatch)";
  ar.Expect(scenario.seed, run_mismatch);
  ar.Expect(scenario.epoch, run_mismatch);
  ar.Expect(scenario.horizon, run_mismatch);
  ar.Fixed(scenario.boards, sizeof(int64_t),
           "checkpoint board count does not match the scenario",
           [&](const FleetBoardSpec& spec) {
             ar.Expect(spec.fail_at,
                       "checkpoint board failure plan does not match the "
                       "scenario");
           });
  ar.Fixed(scenario.apps, 1, "checkpoint app count does not match the scenario",
           [&](const FleetAppSpec& spec) {
             const char* app_mismatch =
                 "checkpoint app list does not match the scenario";
             ar.Expect(spec.name, app_mismatch);
             ar.Expect(spec.board, app_mismatch);
             ar.Expect(spec.options.use_psbox, app_mismatch);
           });
  const char* migration_mismatch =
      "checkpoint migration policy does not match the scenario";
  ar.Expect(scenario.migration.enabled, migration_mismatch);
  ar.Expect(scenario.migration.pressure_fraction, migration_mismatch);
  ar.Expect(scenario.migration.max_hops, migration_mismatch);
  // Hierarchy/budget block (format v2): the sub-fleet split shapes every
  // load view and therefore every placement — a different split is a
  // different scenario, not a resumable state.
  const char* hierarchy_mismatch =
      "checkpoint was written under a different fleet scenario "
      "(hierarchy/budget mismatch)";
  ar.Expect(scenario.subfleets, hierarchy_mismatch);
  ar.Expect(scenario.root_period, hierarchy_mismatch);
  ar.Expect(scenario.fleet_budget, hierarchy_mismatch);
  ar.Expect(scenario.migration.energy_weight, hierarchy_mismatch);
  ar.Expect(scenario.migration.rebalance_ratio, hierarchy_mismatch);
  // Population block (format v3): the full config rides in the file and is
  // compared against the re-supplied scenario. Each board's generator
  // cursor travels with its shard below (v6).
  PopulationConfig population = scenario.population;
  population.Serialize(ar);
  if constexpr (Ar::kLoading) {
    if (ar.ok() && !(population == scenario.population)) {
      ar.Fail(
          "checkpoint was written under a different fleet scenario "
          "(population mismatch)");
    }
  }

  ar.I64(now);  // root boundary the restored run resumes at
  if constexpr (Ar::kLoading) {
    if (ar.ok() && (now < 0 || now > scenario.horizon)) {
      ar.Fail("checkpoint resume time lies outside the scenario horizon");
    }
  }

  // Budget ledger: the live allocations are bounded-stale state the
  // sub-fleets keep using until the next root barrier.
  for (auto& sf : subfleets_) {
    Joules allocation = sf->allocation();
    ar.F64(allocation);
    if constexpr (Ar::kLoading) {
      sf->set_allocation(allocation);
      budget_.allocation[static_cast<size_t>(sf->index())] = allocation;
    }
  }

  // Restored board indices feed shard, load-view and stats lookups: refuse
  // any outside [0, boards), or outside {-1} and that range where the field
  // may name no board.
  const auto board_in_range = [&](int board, bool none_allowed) {
    if constexpr (Ar::kLoading) {
      const bool in_range = (board >= 0 && board < board_count()) ||
                            (none_allowed && board == -1);
      if (ar.ok() && !in_range) {
        ar.Fail("checkpoint app state references an out-of-range board");
      }
    }
  };

  const auto migrations = [&](std::vector<MigrationRecord>& list) {
    ar.Seq(list, 6 * sizeof(int64_t), [&](MigrationRecord& m) {
      ar.I64(m.when);
      ar.Str(m.app);
      ar.I64(m.from);
      ar.I64(m.to);
      board_in_range(m.from, /*none_allowed=*/false);
      board_in_range(m.to, /*none_allowed=*/false);
      ar.Bool(m.crash);
      ar.Bool(m.cross_subfleet);
      ar.Bool(m.state_transfer);
      ar.F64(m.consumed_source);
      ar.F64(m.budget_carried);
      ar.U64(m.iterations_done);
    });
  };

  // Per-sub-fleet local migration histories.
  for (auto& sf : subfleets_) {
    migrations(sf->migrations());
  }
  migrations(root_migrations_);

  // Coordinator-side app runtime state.
  for (FleetAppRuntime& app : apps) {
    ar.I64(app.board);
    ar.I64(app.hops);
    ar.I64(app.budget_hops);
    ar.I64(app.rebalance_hops);
    ar.Bool(app.draining);
    ar.Bool(app.finished);
    ar.Bool(app.lost);
    ar.F64(app.billed);
    ar.Bool(app.ever_sandboxed);
    ar.F64(app.budget_remaining);
    ar.U64(app.iterations_prev);
    ar.U64(app.remaining);
    ar.F64(app.transferred_base);
    ar.I64(app.cross_target);
    ar.Bool(app.parked);
    ar.Bool(app.evac_pending);
    ar.I64(app.parked_from);
    ar.F64(app.parked_consumed);
    ar.F64(app.parked_raw);
    board_in_range(app.board, /*none_allowed=*/true);
    board_in_range(app.cross_target, /*none_allowed=*/true);
    board_in_range(app.parked_from, /*none_allowed=*/true);
  }
  for (uint64_t& iters : rt_.board_iterations()) {
    ar.U64(iters);
  }

  if constexpr (Ar::kLoading) {
    // Rebuild the per-sub-fleet app ownership lists from the restored state:
    // an app belongs to the sub-fleet of its current board, or — parked with
    // its hop closed — of the board it last ran on.
    for (size_t i = 0; i < apps.size() && ar.ok(); ++i) {
      const int home = apps[i].board >= 0 ? apps[i].board : apps[i].parked_from;
      if (home < 0 || static_cast<size_t>(home) >= rt_.shards().size()) {
        ar.Fail("checkpoint app state references an out-of-range board");
        break;
      }
      subfleets_[static_cast<size_t>(SubfleetOf(home))]->AdoptApp(
          static_cast<int>(i));
    }
  }

  // Every shard, whole: its population cursor, the recipe of every live app
  // on it, then device state, kernel, sandboxes and pending events. Restore
  // re-creates exactly the listed apps, one factory call each.
  const int tenants = scenario.population.enabled()
                          ? scenario.population.tenants_per_board
                          : 0;
  std::vector<bool> has_current(apps.size(), false);
  for (auto& shard : rt_.shards()) {
    ar.Bool(shard->failed);
    ar.I64(shard->now);
    if constexpr (Ar::kLoading) {
      if (ar.ok() && (shard->now < 0 || shard->now > now)) {
        ar.Fail("checkpoint shard clock lies past the resume time");
      }
    }
    FleetShard* s = shard.get();
    if (s->population != nullptr) {
      s->population->Serialize(ar, s->now);
    }
    std::vector<AppRecipe> recipes;
    if constexpr (!Ar::kLoading) {
      recipes = LiveRecipes(*s, apps);
    }
    ar.Seq(recipes, 25, [&](AppRecipe& r) { r.Serialize(ar); });
    if constexpr (!Ar::kLoading) {
      if (!SaveBoardShard(*s->board, *s->kernel, *s->manager, &ar, error)) {
        return false;
      }
    } else {
      if (!ar.ok()) {
        break;
      }
      auto recreate = [&] {
        RecreateApps(ar, *s, recipes, apps, tenants, has_current);
      };
      if (!RestoreBoardShard(ar, *s->board, *s->kernel, *s->manager, recreate,
                             error)) {
        // Name the board, unless the recipe pass already did.
        const std::string board = "checkpoint board " + std::to_string(s->index);
        if (error->rfind(board, 0) != 0) {
          *error = board + ": " + *error;
        }
        return false;
      }
    }
  }

  if constexpr (Ar::kLoading) {
    // A running app's handle names its current instance, which must be live.
    for (size_t i = 0; i < apps.size() && ar.ok(); ++i) {
      const FleetAppRuntime& app = apps[i];
      if (!app.finished && !app.lost && !app.parked && !app.evac_pending &&
          app.board >= 0 && !has_current[i]) {
        ar.Fail("checkpoint fleet app " + std::to_string(i) +
                " runs on board " + std::to_string(app.board) +
                " but lists no current instance of it");
      }
    }
    if (!ar.ok()) {
      *error = ar.error();
      return false;
    }
    // Draining apps had their cooperative stop flag raised before the
    // checkpoint; the re-created tasks get fresh flags, so re-raise them.
    for (FleetAppRuntime& app : apps) {
      if (app.draining && app.stop != nullptr) {
        *app.stop = true;
      }
    }
    if (!ar.AtEnd()) {
      *error = "checkpoint has trailing bytes after the last shard";
      return false;
    }
  }
  return true;
}

bool RootCoordinator::WriteCheckpoint(TimeNs now, std::string* error) {
  SnapshotWriter w;
  if (!SerializeCheckpoint(w, now, error)) {
    return false;
  }

  // snapshot_corrupt fault: the checkpoint write itself is torn mid-file
  // (simulated power loss while flushing). The truncated file fails CRC/size
  // validation on restore — exactly the robustness case being modelled — so
  // the write "succeeds" from the running fleet's point of view.
  if (rt_.shards()[0]->board->fault_injector().ShouldCorruptSnapshot()) {
    std::vector<uint8_t> blob = w.Seal();
    blob.resize(blob.size() / 2);
    std::ofstream out(checkpoint_path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    return true;
  }
  return w.WriteFile(checkpoint_path_, error);
}

std::unique_ptr<RootCoordinator> RootCoordinator::RestoreFromCheckpoint(
    FleetScenario scenario, int threads, const std::string& path,
    std::string* error) {
  SnapshotReader r;
  if (!r.OpenFile(path)) {
    *error = r.error();
    return nullptr;
  }
  std::unique_ptr<RootCoordinator> coord(
      new RootCoordinator(std::move(scenario), threads, RestoreTag{}));
  if (!coord->SerializeCheckpoint(r, coord->resume_t_, error)) {
    return nullptr;
  }
  coord->resumed_ = true;
  return coord;
}

FleetStats RootCoordinator::Aggregate() {
  auto& shards = rt_.shards();
  auto& apps = rt_.apps();
  FleetStats stats;
  stats.boards.resize(shards.size());
  for (size_t i = 0; i < shards.size(); ++i) {
    FleetShard& shard = *shards[i];
    FleetBoardStats& b = stats.boards[i];
    b.failed = shard.failed;
    b.ran_until = shard.now;
    b.iterations = rt_.board_iterations()[i];
    b.events_fired = shard.kernel->sim().total_fired();
    if (shard.population != nullptr) {
      b.popgen_spawned = shard.population->spawned();
      b.popgen_completed = shard.population->CompletedCount();
    }
    for (size_t c = 0; c < kNumHwComponents; ++c) {
      const HwComponent hw = static_cast<HwComponent>(c);
      b.rail_energy += shard.board->RailFor(hw).EnergyOver(0, shard.now);
      const DomainStats& d = shard.kernel->domain(hw).domain_stats();
      b.balloons += d.balloons;
      b.balloons_aborted += d.aborted;
    }
  }

  // Migration history: the sub-fleets' local lists (each internally
  // chronological) in sub-fleet order, then the root's cross-sub-fleet list,
  // merged into one chronological stream. The stable sort keeps the
  // fixed concatenation order within a barrier instant, so the merged list
  // is identical at any thread count.
  for (const auto& sf : subfleets_) {
    stats.migrations.insert(stats.migrations.end(), sf->migrations().begin(),
                            sf->migrations().end());
  }
  stats.migrations.insert(stats.migrations.end(), root_migrations_.begin(),
                          root_migrations_.end());
  std::stable_sort(
      stats.migrations.begin(), stats.migrations.end(),
      [](const MigrationRecord& a, const MigrationRecord& b) {
        return a.when < b.when;
      });
  for (const MigrationRecord& m : stats.migrations) {
    ++stats.boards[static_cast<size_t>(m.from)].migrations_out;
    ++stats.boards[static_cast<size_t>(m.to)].migrations_in;
  }

  stats.subfleets.resize(subfleets_.size());
  for (size_t s = 0; s < subfleets_.size(); ++s) {
    SubFleetStats& out = stats.subfleets[s];
    out.first_board = subfleets_[s]->first_board();
    out.boards = subfleets_[s]->board_count();
    out.allocation = subfleets_[s]->allocation();
    for (int b = out.first_board; b < out.first_board + out.boards; ++b) {
      out.energy += stats.boards[static_cast<size_t>(b)].rail_energy;
    }
  }
  for (const MigrationRecord& m : root_migrations_) {
    ++stats.subfleets[static_cast<size_t>(SubfleetOf(m.from))].cross_out;
    ++stats.subfleets[static_cast<size_t>(SubfleetOf(m.to))].cross_in;
  }

  stats.apps.reserve(apps.size());
  for (const FleetAppRuntime& app : apps) {
    FleetAppOutcome out;
    out.name = app.spec.name;
    out.hops = app.hops;
    out.final_board = app.board;
    out.finished = app.finished;
    out.lost = app.lost;
    out.iterations = app.iterations_prev;
    out.billed_energy = app.ever_sandboxed ? app.billed : -1.0;
    stats.apps.push_back(std::move(out));
  }
  return stats;
}

}  // namespace psbox
