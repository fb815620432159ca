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

// One board's share of pass 3. Shards with a bounded-retention kernel config
// are trimmed behind every barrier (their own periodic tick handles the
// mid-epoch cadence; this pass keeps memory bounded even when epochs outpace
// the tick). Trimming folds exact energy bases first, so results are
// unchanged.
void TrimBoard(FleetShard& s) {
  const DurationNs retention = s.kernel->config().telemetry_retention;
  if (!s.failed && retention > 0) {
    s.kernel->TrimTelemetry(s.now - retention);
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
  // Checkpoint restore: sub-fleets and app runtimes are built, but every
  // spawn is replayed from the checkpoint's logs by SerializeCheckpoint.
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
    // restore path recreates them inside the per-shard replay instead.
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
      rt_.SpawnOn(apps[i], apps[i].spec.board, &sf.spawn_log());
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
  auto& shards = rt_.shards();
  pool_.ParallelFor(board_count(), [&shards](int b) {
    TrimBoard(*shards[static_cast<size_t>(b)]);
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
    const bool transferred = rt_.TransferAppState(
        app, from, target, app.parked_raw,
        &subfleets_[static_cast<size_t>(SubfleetOf(target))]->spawn_log());
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
    rt_.SpawnOn(
        app, target,
        &subfleets_[static_cast<size_t>(SubfleetOf(target))]->spawn_log());
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
    // boundary and before the boundary barriers is the only globally
    // quiescent point — the barriers' respawns schedule work that the event
    // census would (correctly) refuse to serialise.
    if (at_root && checkpoint_every_ > 0 && !checkpoint_path_.empty() &&
        next < scenario.horizon && epochs_done >= next_checkpoint) {
      std::string error;
      if (!WriteCheckpoint(next, &error)) {
        // Census refusal: a serialiser lost a timer. Say which one.
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
  ar.Expect(scenario.crash_state_transfer, migration_mismatch);
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
  // Population block (format v3). The generator carries no runtime state of
  // its own: a restore re-derives every arrival up to each shard's clock by
  // replaying the seeded stream, so the full config is the cursor — it rides
  // in the file and is compared against the re-supplied scenario.
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

  // Per-sub-fleet spawn logs (replayed verbatim on restore so every shard
  // re-creates its apps/tasks through the same factory calls, in the same
  // order) and local migration histories.
  for (auto& sf : subfleets_) {
    ar.Seq(sf->spawn_log(), 4 * sizeof(int64_t), [&](SpawnRecord& rec) {
      ar.I64(rec.app_index);
      ar.I64(rec.board);
      ar.Str(rec.label);
      ar.U64(rec.iterations);
      ar.I64(rec.when);
      if constexpr (Ar::kLoading) {
        if (ar.ok() && (rec.app_index < 0 ||
                        static_cast<size_t>(rec.app_index) >= apps.size() ||
                        !sf->Owns(rec.board))) {
          ar.Fail("checkpoint spawn log references an out-of-range app/board");
        }
        // Restore replays population arrivals up to each record's time.
        if (ar.ok() && (rec.when < 0 || rec.when > now)) {
          ar.Fail("checkpoint spawn record lies past the resume time");
        }
      }
    });
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

  // An app's live handle/stop belong to its most recent spawn — within one
  // sub-fleet's log that is its last record, and only the log of the
  // sub-fleet owning the app's current board can hold it (the board is
  // cross-checked to reject a stale last record in a sub-fleet the app has
  // since left). Earlier spawns are replayed only to reconstruct each
  // shard's task population.
  std::vector<std::vector<int>> last_spawn;
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
    last_spawn.resize(subfleets_.size());
    for (const auto& sf : subfleets_) {
      std::vector<int>& last = last_spawn[static_cast<size_t>(sf->index())];
      last.assign(apps.size(), -1);
      const std::vector<SpawnRecord>& log = sf->spawn_log();
      for (size_t i = 0; i < log.size(); ++i) {
        last[static_cast<size_t>(log[i].app_index)] = static_cast<int>(i);
      }
    }
  }

  // Every shard, whole: device state, kernel, sandboxes, pending events.
  for (auto& shard : rt_.shards()) {
    ar.Bool(shard->failed);
    ar.I64(shard->now);
    if constexpr (!Ar::kLoading) {
      if (!SaveBoardShard(*shard->board, *shard->kernel, *shard->manager, &ar,
                          error)) {
        return false;
      }
    } else {
      // Restore replays population arrivals up to the shard's clock.
      if (ar.ok() && (shard->now < 0 || shard->now > now)) {
        ar.Fail("checkpoint shard clock lies past the resume time");
      }
      if (!ar.ok()) {
        break;
      }
      FleetShard* s = shard.get();
      SubFleetCoordinator& owner =
          *subfleets_[static_cast<size_t>(SubfleetOf(s->index))];
      const std::vector<int>& last =
          last_spawn[static_cast<size_t>(owner.index())];
      auto replay = [this, s, &owner, &last] {
        // Reconstruct the shard's app/task population in the exact live
        // creation order: tenant principals, then the board's spawn records
        // merged in time order with the regenerated population arrivals
        // (arrivals at a barrier instant fired before the barrier's spawns
        // ran, so each record is preceded by every arrival at <= its
        // instant).
        if (s->population != nullptr) {
          s->population->CreateTenants(/*restoring=*/true);
        }
        const std::vector<SpawnRecord>& log = owner.spawn_log();
        auto& all_apps = rt_.apps();
        for (size_t i = 0; i < log.size(); ++i) {
          const SpawnRecord& rec = log[i];
          if (rec.board != s->index) {
            continue;
          }
          if (s->population != nullptr) {
            s->population->ReplayArrivalsThrough(rec.when);
          }
          FleetAppRuntime& app = all_apps[static_cast<size_t>(rec.app_index)];
          AppOptions opts = app.spec.options;
          opts.iterations = rec.iterations;
          auto stop = std::make_shared<bool>(false);
          opts.stop = stop;
          AppHandle handle = app.spec.factory(*s->kernel, rec.label, opts);
          if (last[static_cast<size_t>(rec.app_index)] == static_cast<int>(i) &&
              rec.board == app.board) {
            app.stop = std::move(stop);
            app.handle = handle;
          }
        }
        if (s->population != nullptr) {
          s->population->ReplayArrivalsThrough(s->now);
        }
      };
      if (!RestoreBoardShard(ar, *s->board, *s->kernel, *s->manager, replay,
                             error)) {
        return false;
      }
    }
  }

  if constexpr (Ar::kLoading) {
    if (!ar.ok()) {
      *error = ar.error();
      return false;
    }
    // Draining apps had their cooperative stop flag raised before the
    // checkpoint; the replayed tasks get fresh flags, so re-raise them.
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
