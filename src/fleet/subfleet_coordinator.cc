#include "src/fleet/subfleet_coordinator.h"

#include <algorithm>

#include "src/base/check.h"

namespace psbox {

SubFleetCoordinator::SubFleetCoordinator(FleetRuntime* runtime, int index,
                                         int first, int count)
    : rt_(runtime), index_(index), first_(first), count_(count) {
  PSBOX_CHECK_GE(first, 0);
  PSBOX_CHECK_GT(count, 0);
  PSBOX_CHECK_LE(static_cast<size_t>(first + count), rt_->shards().size());
}

void SubFleetCoordinator::AdoptApp(int app_index) {
  // Keep the list sorted so barrier iteration stays in global app order —
  // the same order the flat coordinator used, hence the same decisions.
  auto it = std::lower_bound(owned_apps_.begin(), owned_apps_.end(), app_index);
  PSBOX_CHECK(it == owned_apps_.end() || *it != app_index);
  owned_apps_.insert(it, app_index);
}

void SubFleetCoordinator::ReleaseApp(int app_index) {
  auto it = std::lower_bound(owned_apps_.begin(), owned_apps_.end(), app_index);
  PSBOX_CHECK(it != owned_apps_.end() && *it == app_index);
  owned_apps_.erase(it);
}

std::vector<BoardLoad> SubFleetCoordinator::LocalLoads(bool with_energy) const {
  auto& shards = rt_->shards();
  std::vector<BoardLoad> loads(static_cast<size_t>(count_));
  for (int i = 0; i < count_; ++i) {
    FleetShard& s = *shards[static_cast<size_t>(first_ + i)];
    loads[static_cast<size_t>(i)].alive = !s.failed;
    if (with_energy) {
      loads[static_cast<size_t>(i)].energy = rt_->BoardEnergy(first_ + i);
      if (allocation_ > 0.0) {
        // Each board's pressure is measured against an equal slice of the
        // sub-fleet's (bounded-stale) allocation.
        loads[static_cast<size_t>(i)].pressure =
            loads[static_cast<size_t>(i)].energy / (allocation_ / count_);
      }
    }
  }
  for (int ai : owned_apps_) {
    const FleetAppRuntime& app = rt_->apps()[static_cast<size_t>(ai)];
    if (!app.finished && !app.lost && !app.parked && !app.evac_pending &&
        app.board >= 0 && Owns(app.board)) {
      ++loads[static_cast<size_t>(app.board - first_)].active_apps;
    }
  }
  return loads;
}

void SubFleetCoordinator::ProcessBarrier(TimeNs now) {
  auto& shards = rt_->shards();
  auto& apps = rt_->apps();
  const MigrationPolicy& policy = rt_->policy();
  // One load snapshot per barrier, maintained incrementally as decisions
  // change it (ClaimTarget bumps the chosen board, so back-to-back
  // evictions spread instead of piling onto one target).
  std::vector<BoardLoad> loads =
      LocalLoads(rt_->scenario().fleet_budget > 0.0);
  const auto local = [this](int board) { return board - first_; };

  // --- 1. board failures: freeze the shard, evacuate its residents --------
  // This is the in-epoch hand-off: the failure is detected and resolved at
  // the sub-fleet barrier of the sub-epoch it happened in, never waiting
  // for the root. Only when the whole local slice is dead does the app park
  // for a cross-sub-fleet evacuation at the next root barrier.
  for (int b = first_; b < first_ + count_; ++b) {
    FleetShard& shard = *shards[static_cast<size_t>(b)];
    if (shard.failed || shard.fail_at <= 0 || now < shard.fail_at) {
      continue;
    }
    shard.failed = true;  // shard.now stopped exactly at fail_at
    loads[static_cast<size_t>(local(b))].alive = false;
    for (int ai : owned_apps_) {
      FleetAppRuntime& app = apps[static_cast<size_t>(ai)];
      if (app.board != b || app.finished || app.lost || app.parked ||
          app.evac_pending) {
        continue;
      }
      Joules raw = 0.0;
      const Joules consumed = rt_->CloseHop(app, &raw);
      const bool work_done =
          (app.spec.options.iterations > 0 && app.remaining == 0) ||
          shard.kernel->AppFinished(app.handle.app);
      if (work_done) {
        app.finished = true;
        --loads[static_cast<size_t>(local(b))].active_apps;
        continue;
      }
      if (!app.spec.migratable) {
        app.lost = true;  // died with its board
        --loads[static_cast<size_t>(local(b))].active_apps;
        continue;
      }
      const int target_local = policy.ClaimTarget(loads, local(b));
      if (target_local < 0) {
        // Every other local board is dead: escalate to the root, which
        // resolves the evacuation cross-sub-fleet from digests.
        app.evac_pending = true;
        app.parked_from = b;
        app.parked_raw = raw;
        app.parked_consumed = consumed;
        --loads[static_cast<size_t>(local(b))].active_apps;
        continue;
      }
      const int target = first_ + target_local;
      ++app.hops;
      const bool transferred =
          rt_->TransferAppState(app, b, target, raw);
      MigrationRecord rec;
      rec.when = now;
      rec.app = app.spec.name;
      rec.from = b;
      rec.to = target;
      rec.crash = true;
      rec.state_transfer = transferred;
      rec.consumed_source = consumed;
      rec.budget_carried = app.budget_remaining;
      rec.iterations_done = app.iterations_prev;
      migrations_.push_back(std::move(rec));
      --loads[static_cast<size_t>(local(b))].active_apps;
    }
  }

  // --- 2. completions & graceful hand-offs --------------------------------
  for (int ai : owned_apps_) {
    FleetAppRuntime& app = apps[static_cast<size_t>(ai)];
    if (app.finished || app.lost || app.parked || app.evac_pending ||
        app.board < 0 || !Owns(app.board)) {
      continue;
    }
    FleetShard& shard = *shards[static_cast<size_t>(app.board)];
    if (shard.failed || !shard.kernel->AppFinished(app.handle.app)) {
      continue;
    }
    const int from = app.board;
    const Joules consumed = rt_->CloseHop(app);
    const bool work_done =
        (app.spec.options.iterations > 0 && app.remaining == 0) ||
        (app.spec.options.deadline > 0 && now >= app.spec.options.deadline);
    if (!app.draining || work_done) {
      app.finished = true;
      --loads[static_cast<size_t>(local(from))].active_apps;
      continue;
    }
    if (app.cross_target >= 0) {
      // The root chose a remote target for this drain (fleet-budget
      // rebalance): park the closed hop; the root executes the respawn at
      // the next root barrier, re-picking from fresh digests if the target
      // died in the meantime.
      app.parked = true;
      app.parked_from = from;
      app.parked_consumed = consumed;
      app.board = -1;
      --loads[static_cast<size_t>(local(from))].active_apps;
      continue;
    }
    // Drained on the policy's order: hand the remainder to a local target.
    const int target_local = policy.ClaimTarget(loads, local(from));
    if (target_local < 0) {
      app.finished = true;  // nowhere to go; what ran is the outcome
      --loads[static_cast<size_t>(local(from))].active_apps;
      continue;
    }
    ++app.hops;
    ++app.budget_hops;
    rt_->SpawnOn(app, first_ + target_local);
    MigrationRecord rec;
    rec.when = now;
    rec.app = app.spec.name;
    rec.from = from;
    rec.to = first_ + target_local;
    rec.crash = false;
    rec.consumed_source = consumed;
    rec.budget_carried = app.budget_remaining;
    rec.iterations_done = app.iterations_prev;
    migrations_.push_back(std::move(rec));
    --loads[static_cast<size_t>(local(from))].active_apps;
  }

  // --- 3. budget-pressure drain decisions ----------------------------------
  if (!policy.config().enabled) {
    return;
  }
  for (int ai : owned_apps_) {
    FleetAppRuntime& app = apps[static_cast<size_t>(ai)];
    if (app.finished || app.lost || app.draining || app.parked ||
        app.evac_pending || !app.spec.migratable || app.board < 0 ||
        !Owns(app.board)) {
      continue;
    }
    FleetShard& shard = *shards[static_cast<size_t>(app.board)];
    if (shard.failed || !app.spec.options.use_psbox ||
        app.handle.stats->box < 0) {
      continue;
    }
    // Pressure is against what was spent on *this* board, so a transferred
    // base (already billed on previous boards) is subtracted back out.
    const Joules consumed =
        std::max(0.0, shard.manager->ReadEnergy(app.handle.stats->box) -
                          app.transferred_base);
    if (policy.ShouldDrain(consumed, app.budget_remaining, app.budget_hops) &&
        policy.PickTarget(loads, local(app.board)) >= 0) {
      *app.stop = true;  // LoopBehaviors exit at their next iteration boundary
      app.draining = true;
    }
  }
}

SubFleetDigest SubFleetCoordinator::BuildDigest() const {
  SubFleetDigest d;
  d.subfleet = index_;
  d.first_board = first_;
  d.loads = LocalLoads(/*with_energy=*/true);
  for (const BoardLoad& load : d.loads) {
    if (load.alive) {
      ++d.alive_boards;
    }
    d.active_apps += load.active_apps;
    d.energy_total += load.energy;
  }
  d.allocation = allocation_;
  if (allocation_ > 0.0) {
    d.pressure = d.energy_total / allocation_;
  }
  return d;
}

}  // namespace psbox
