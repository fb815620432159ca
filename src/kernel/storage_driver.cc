#include "src/kernel/storage_driver.h"

#include <algorithm>
#include <limits>

#include "src/base/check.h"
#include "src/kernel/kernel.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

StorageDriver::StorageDriver(Simulator* sim, StorageDevice* device,
                             Kernel* kernel, StorageDriverConfig config)
    : ResourceDomain(sim, HwComponent::kStorage, config.drain_timeout),
      device_(device), kernel_(kernel), config_(config) {
  device_->set_on_complete(
      [this](const StorageCompletion& c) { OnComplete(c); });
  // Quiescence (channel idle, buffer flushed) is what the drain phases wait
  // for; the device tells us the moment it happens.
  device_->set_on_quiescent([this] { Pump(); });
  global_state_ = device_->power_state();
}

StorageDriver::AppQueue& StorageDriver::QueueFor(AppId app) {
  return queues_[app];
}

void StorageDriver::SchedulePumpAt(TimeNs when) {
  std::erase_if(pump_events_, [this](EventId e) { return !sim_->IsPending(e); });
  pump_events_.push_back(sim_->ScheduleAt(when, [this] { Pump(); }));
}

void StorageDriver::Submit(Task* task, StorageCommand cmd) {
  cmd.id = next_cmd_id_++;
  cmd.app = task->app();
  ++stats_.submitted;
  AppQueue& q = QueueFor(cmd.app);
  q.q.push_back(Pending{cmd, task, sim_->Now()});
  q.last_seen = sim_->Now();
  Pump();
}

bool StorageDriver::Retirable(AppId app, TimeNs cutoff) const {
  if (!ResourceDomain::Retirable(app, cutoff)) {
    return false;
  }
  auto it = queues_.find(app);
  if (it == queues_.end()) {
    return true;
  }
  const AppQueue& q = it->second;
  if (!q.q.empty() || (q.last_seen >= 0 && cutoff - q.last_seen <= kRecency)) {
    return false;
  }
  for (const auto& [cmd_id, p] : in_flight_) {
    if (p.cmd.app == app) {
      return false;
    }
  }
  return true;
}

double StorageDriver::MinRecentCompetitorVtime(AppId owner) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [app, q] : queues_) {
    if (app == owner) {
      continue;
    }
    const bool recent =
        q.last_seen >= 0 && sim_->Now() - q.last_seen <= kRecency;
    if (!q.q.empty() || recent) {
      best = std::min(best, q.vtime);
    }
  }
  return best;
}

AppId StorageDriver::BestPendingApp(bool exclude_sandboxed_owner) const {
  AppId best = kNoApp;
  double best_vt = std::numeric_limits<double>::infinity();
  for (const auto& [app, q] : queues_) {
    if (q.q.empty()) {
      continue;
    }
    if (exclude_sandboxed_owner && app == balloon_owner()) {
      continue;
    }
    if (q.vtime < best_vt) {
      best_vt = q.vtime;
      best = app;
    }
  }
  return best;
}

void StorageDriver::DispatchFrom(AppId app) {
  AppQueue& q = QueueFor(app);
  Pending p = q.q.front();
  q.q.pop_front();
  const DurationNs lat = sim_->Now() - p.submit_time;
  stats_.total_dispatch_latency += lat;
  stats_.max_dispatch_latency = std::max(stats_.max_dispatch_latency, lat);
  device_->Dispatch(p.cmd);
  in_flight_[p.cmd.id] = p;
  ArmCommandWatchdog(p.cmd.id);
}

void StorageDriver::Pump() {
  while (true) {
    switch (balloon_phase()) {
      case BalloonPhase::kIdle: {  // normal fair dispatch
        if (!device_->CanDispatch()) {
          return;
        }
        AppId best = BestPendingApp(false);
        if (best == kNoApp) {
          return;
        }
        if (QueueFor(best).sandboxed) {
          // Non-work-conserving toward the sandbox: it only takes the channel
          // when it is not still repaying its previous balloon relative to
          // apps that will be back momentarily (§6.3).
          const double competitor = MinRecentCompetitorVtime(best);
          if (QueueFor(best).vtime >
              competitor + static_cast<double>(config_.switch_lead)) {
            AppId fallback = kNoApp;
            double fallback_vt = std::numeric_limits<double>::infinity();
            for (const auto& [app, q2] : queues_) {
              if (q2.q.empty() || q2.sandboxed) {
                continue;
              }
              if (q2.vtime < fallback_vt) {
                fallback_vt = q2.vtime;
                fallback = app;
              }
            }
            if (fallback == kNoApp) {
              if (retry_event_ == kInvalidEventId) {
                retry_event_ = sim_->ScheduleAfter(1 * kMillisecond, [this] {
                  retry_event_ = kInvalidEventId;
                  Pump();
                });
              }
              return;
            }
            best = fallback;
          } else {
            // Phase 1 — drain others, flush tails included.
            BalloonRequest(best, QueueFor(best).box);
            continue;
          }
        }
        DispatchFrom(best);
        continue;
      }
      case BalloonPhase::kDrainOthers: {
        // Unlike the accelerators, "drained" here means *quiescent*: channel
        // idle AND the write-back buffer flushed, so no lingering energy from
        // others' writes leaks into the sandbox's window.
        if (!device_->Quiescent()) {
          return;  // on_quiescent pumps us again
        }
        // Balloon-in: restore the sandbox's virtualised power state before
        // the observer looks.
        global_state_ = device_->power_state();
        if (config_.virtualize_power_state) {
          device_->SetPowerState(QueueFor(balloon_owner()).vstate);
        }
        BalloonServe();
        continue;
      }
      case BalloonPhase::kServe: {
        AppQueue& sq = QueueFor(balloon_owner());
        const AppId contender = BestPendingApp(/*exclude_sandboxed_owner=*/true);
        const bool grant_over =
            sim_->Now() - balloon_start() >= config_.min_grant;
        // The owner's flush tail does NOT keep the balloon alive — releasing
        // moves to kDrainOwner, which waits the tail out *inside* the window.
        const bool owner_idle = sq.q.empty() && !device_->channel_busy();
        if (owner_idle) {
          if (owner_idle_since_ < 0) {
            owner_idle_since_ = sim_->Now();
            SchedulePumpAt(sim_->Now() + config_.idle_release);
          }
        } else {
          owner_idle_since_ = -1;
        }
        const bool idle_expired =
            owner_idle &&
            sim_->Now() - owner_idle_since_ >= config_.idle_release;
        const double accrued =
            static_cast<double>(sim_->Now() - balloon_start());
        const bool lead_exceeded =
            contender != kNoApp &&
            sq.vtime + (config_.bill_balloon ? accrued : 0.0) -
                    QueueFor(contender).vtime >
                static_cast<double>(config_.switch_lead);
        if ((contender != kNoApp && grant_over &&
             (owner_idle || lead_exceeded)) ||
            idle_expired) {
          owner_idle_since_ = -1;
          BalloonRelease();  // phase 4: drain the owner (and its flush tail)
          continue;
        }
        if (!device_->CanDispatch() || sq.q.empty()) {
          if (contender != kNoApp && !grant_over) {
            const TimeNs when = balloon_start() + config_.min_grant;
            SchedulePumpAt(std::max(when, sim_->Now()));
          }
          return;
        }
        DispatchFrom(balloon_owner());
        continue;
      }
      case BalloonPhase::kDrainOwner: {
        // The owner's lingering flush energy belongs to its window: wait for
        // full quiescence before closing the balloon.
        if (!device_->Quiescent()) {
          return;
        }
        AppQueue& sq = QueueFor(balloon_owner());
        if (config_.bill_balloon) {
          sq.vtime += static_cast<double>(sim_->Now() - balloon_start());
        }
        // Park the sandbox's power state and restore the global one before
        // the observer sees balloon-out.
        if (config_.virtualize_power_state) {
          sq.vstate = device_->power_state();
          device_->SetPowerState(global_state_);
        }
        BalloonFinish();
        owner_idle_since_ = -1;
        continue;  // back to fair dispatch
      }
    }
  }
}

void StorageDriver::OnComplete(const StorageCompletion& completion) {
  auto it = in_flight_.find(completion.cmd.id);
  PSBOX_CHECK(it != in_flight_.end());
  const Pending p = it->second;
  in_flight_.erase(it);
  sim_->Cancel(p.watchdog);
  ++stats_.completed;
  AppQueue& q = QueueFor(completion.cmd.app);
  ++q.completed;
  q.last_seen = sim_->Now();
  if (completion.cmd.app != balloon_owner()) {
    // Normal billing: the span the command occupied the channel.
    q.vtime +=
        static_cast<double>(completion.end_time - completion.dispatch_time);
  }
  if (ledger_ != nullptr) {
    ledger_->Add(kind(), completion.cmd.app, completion.dispatch_time,
                 completion.end_time);
  }
  if (p.task != nullptr) {
    ++p.task->pending_storage_completions;
    kernel_->DeliverStorageCompletion(p.task);
  }
  Pump();
}

void StorageDriver::SetSandboxed(AppId app, PsboxId box) {
  AppQueue& q = QueueFor(app);
  q.sandboxed = true;
  q.box = box;
  Pump();
}

void StorageDriver::ClearSandboxed(AppId app) {
  AppQueue& q = QueueFor(app);
  q.sandboxed = false;
  if (balloon_owner() == app) {
    if (balloon_phase() == BalloonPhase::kDrainOthers) {
      // Ownership never began; just unwind.
      BalloonCancel();
    } else if (balloon_phase() == BalloonPhase::kServe) {
      BalloonRelease();
    }
  }
  Pump();
}

void StorageDriver::ArmCommandWatchdog(uint64_t cmd_id) {
  // Raw slab event; the handle rides in the in-flight record so the whole
  // arm/complete cycle stays allocation-free.
  Pending& p = in_flight_.at(cmd_id);
  p.watchdog = sim_->ScheduleAfter(config_.command_timeout,
                                   [this, cmd_id] { OnCommandTimeout(cmd_id); });
}

void StorageDriver::OnCommandTimeout(uint64_t cmd_id) {
  if (in_flight_.count(cmd_id) == 0) {
    return;  // completed concurrently with the expiry; stale
  }
  ++stats_.watchdog_fires;
  ResetAndRequeue();
  Pump();
}

void StorageDriver::ResetAndRequeue() {
  std::vector<StorageDevice::AbortedCommand> aborted = device_->Reset();
  ++stats_.device_resets;
  RecordRecovery();
  // Cancel surviving watchdogs; for the expired one this is a stale-handle
  // no-op (its event already left the simulator queue).
  for (auto& [cmd_id, pending] : in_flight_) {
    sim_->Cancel(pending.watchdog);
    pending.watchdog = kInvalidEventId;
  }
  // Single channel: at most one aborted command, but keep the generic shape.
  for (auto it = aborted.rbegin(); it != aborted.rend(); ++it) {
    auto fit = in_flight_.find(it->cmd.id);
    PSBOX_CHECK(fit != in_flight_.end());
    Pending p = fit->second;
    in_flight_.erase(fit);
    if (it->hung) {
      ++p.retries;
    }
    if (p.retries > config_.max_command_retries) {
      FailCommand(p);
      continue;
    }
    ++stats_.command_retries;
    QueueFor(p.cmd.app).q.push_front(p);
  }
}

void StorageDriver::OnDrainTimeout() {
  ++stats_.watchdog_fires;
  // Unwind the balloon before clearing the hardware: ResetAndRequeue can
  // re-enter Pump (a failed command wakes its submitter, which may submit
  // again synchronously), and the reentrant pump must see a settled domain.
  AppQueue& sq = QueueFor(balloon_owner());
  const bool owned = balloon_phase() == BalloonPhase::kDrainOwner;
  if (owned && config_.virtualize_power_state) {
    sq.vstate = device_->power_state();
    device_->SetPowerState(global_state_);
  }
  // Bills only the service actually rendered — nothing for a kDrainOthers
  // abort, where ownership never began.
  const DurationNs served = BalloonAbort();
  if (owned && config_.bill_balloon) {
    sq.vtime += static_cast<double>(served);
  }
  owner_idle_since_ = -1;
  if (device_->Wedged()) {
    // The drain was stuck behind a hung command; clear it now rather than
    // wait for the per-command watchdog.
    ResetAndRequeue();
  }
  Pump();
}

void StorageDriver::FailCommand(const Pending& p) {
  ++stats_.commands_failed;
  // The submitter still gets a completion (an error status, in a real
  // driver) so it unblocks and can react to the loss.
  if (p.task != nullptr) {
    ++p.task->pending_storage_completions;
    kernel_->DeliverStorageCompletion(p.task);
  }
}

template <class Ar>
void StorageDriver::Serialize(Ar& ar) {
  if (!ar.Section("storage_driver")) {
    return;
  }
  SerializeDomain(ar);
  auto pending = [&](Pending& p) {
    p.cmd.Serialize(ar);
    ar.TaskRef(p.task, *kernel_,
               "storage driver command references unknown task in snapshot");
    ar.I64(p.submit_time);
    ar.U32(p.retries);
  };
  ar.Map(queues_, 8, [&](AppId& app, AppQueue& q) {
    ar.I64(app);
    ar.Seq(q.q, 8, pending);
    ar.F64(q.vtime);
    ar.Bool(q.sandboxed);
    ar.I64(q.box);
    q.vstate.Serialize(ar);
    ar.U64(q.completed);
    ar.I64(q.last_seen);
  });
  ar.Map(in_flight_, 8, [&](uint64_t& cmd_id, Pending& p) {
    pending(p);
    cmd_id = p.cmd.id;
    ar.Event(p.watchdog, [this, cmd_id](TimeNs when) {
      in_flight_.at(cmd_id).watchdog = sim_->ScheduleAt(
          when, [this, cmd_id] { OnCommandTimeout(cmd_id); });
    });
  });
  ar.U64(next_cmd_id_);
  ar.I64(owner_idle_since_);
  global_state_.Serialize(ar);
  ar.U64(stats_.submitted);
  ar.U64(stats_.completed);
  ar.I64(stats_.total_dispatch_latency);
  ar.I64(stats_.max_dispatch_latency);
  ar.U64(stats_.watchdog_fires);
  ar.U64(stats_.device_resets);
  ar.U64(stats_.command_retries);
  ar.U64(stats_.commands_failed);
  ar.Event(retry_event_, [this](TimeNs when) {
    retry_event_ = sim_->ScheduleAt(when, [this] {
      retry_event_ = kInvalidEventId;
      Pump();
    });
  });
  ar.PendingEvents(pump_events_, 10, [&](EventId& e) {
    ar.Event(e, [this](TimeNs when) { SchedulePumpAt(when); });
  });
}

template void StorageDriver::Serialize(SnapshotWriter&);
template void StorageDriver::Serialize(SnapshotReader&);

uint64_t StorageDriver::CompletedFor(AppId app) const {
  auto it = queues_.find(app);
  return it == queues_.end() ? 0 : it->second.completed;
}

}  // namespace psbox
