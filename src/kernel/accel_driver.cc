#include "src/kernel/accel_driver.h"

#include <algorithm>
#include <limits>

#include "src/base/check.h"
#include "src/kernel/kernel.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

AccelDriver::AccelDriver(Simulator* sim, AccelDevice* device, HwComponent kind,
                         Kernel* kernel, AccelDriverConfig config)
    : ResourceDomain(sim, kind, config.drain_timeout),
      device_(device), kernel_(kernel), config_(config) {
  context_opp_[0] = device_->opp_index();
  device_->set_on_complete([this](const AccelCompletion& c) { OnComplete(c); });
  last_ctx_mark_ = sim_->Now();
  gov_event_ = sim_->ScheduleAfter(config_.governor_period, [this] { OnGovernorTick(); });
}

void AccelDriver::SchedulePumpAt(TimeNs when) {
  // Prune fired entries so the list stays small and checkpoints only see
  // genuinely pending wake-ups.
  std::erase_if(pump_events_, [this](EventId e) { return !sim_->IsPending(e); });
  pump_events_.push_back(sim_->ScheduleAt(when, [this] { Pump(); }));
}

void AccelDriver::MarkContextTime() {
  const TimeNs now = sim_->Now();
  if (busy_since_ >= 0) {
    ctx_busy_[current_context_] += now - busy_since_;
    busy_since_ = now;
  }
  ctx_wall_[current_context_] += now - last_ctx_mark_;
  last_ctx_mark_ = now;
}

AccelDriver::AppQueue& AccelDriver::QueueFor(AppId app) { return queues_[app]; }

void AccelDriver::Submit(Task* task, AccelCommand cmd) {
  cmd.id = next_cmd_id_++;
  cmd.app = task->app();
  ++stats_.submitted;
  AppQueue& q = QueueFor(cmd.app);
  q.q.push_back(Pending{cmd, task, sim_->Now()});
  q.last_seen = sim_->Now();
  Pump();
}

double AccelDriver::MinRecentCompetitorVruntime(AppId owner) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [app, q] : queues_) {
    if (app == owner) {
      continue;
    }
    const bool recent =
        q.last_seen >= 0 && sim_->Now() - q.last_seen <= kRecency;
    if (!q.q.empty() || recent) {
      best = std::min(best, q.vruntime);
    }
  }
  return best;
}

AppId AccelDriver::BestPendingApp(bool exclude_sandboxed_owner) const {
  AppId best = kNoApp;
  double best_vr = std::numeric_limits<double>::infinity();
  for (const auto& [app, q] : queues_) {
    if (q.q.empty()) {
      continue;
    }
    if (exclude_sandboxed_owner && app == balloon_owner()) {
      continue;
    }
    if (q.vruntime < best_vr) {
      best_vr = q.vruntime;
      best = app;
    }
  }
  return best;
}

void AccelDriver::Pump() {
  // Busy-state bookkeeping for the frequency governor.
  auto update_busy = [this] {
    if (device_->in_flight() > 0 && busy_since_ < 0) {
      busy_since_ = sim_->Now();
    } else if (device_->in_flight() == 0 && busy_since_ >= 0) {
      ctx_busy_[current_context_] += sim_->Now() - busy_since_;
      busy_since_ = -1;
    }
  };

  while (true) {
    switch (balloon_phase()) {
      case BalloonPhase::kIdle: {  // phase 5 / normal fair dispatch
        if (!device_->CanDispatch()) {
          update_busy();
          return;
        }
        AppId best = BestPendingApp(false);
        if (best == kNoApp) {
          update_busy();
          return;
        }
        if (QueueFor(best).sandboxed) {
          // A sandboxed app only takes the device when it is not still
          // repaying its previous balloon relative to apps that will be back
          // momentarily (non-work-conserving toward the sandbox; this is
          // what confines the loss to the sandboxed app, §6.3).
          const double competitor = MinRecentCompetitorVruntime(best);
          if (QueueFor(best).vruntime >
              competitor + static_cast<double>(config_.switch_lead)) {
            // Try the best non-sandboxed pending app instead.
            AppId fallback = kNoApp;
            double fallback_vr = std::numeric_limits<double>::infinity();
            for (const auto& [app, q2] : queues_) {
              if (q2.q.empty() || q2.sandboxed) {
                continue;
              }
              if (q2.vruntime < fallback_vr) {
                fallback_vr = q2.vruntime;
                fallback = app;
              }
            }
            if (fallback == kNoApp) {
              // Idle on purpose; retry once the competition catches up.
              if (retry_event_ == kInvalidEventId) {
                retry_event_ = sim_->ScheduleAfter(1 * kMillisecond, [this] {
                  retry_event_ = kInvalidEventId;
                  Pump();
                });
              }
              update_busy();
              return;
            }
            best = fallback;
          } else {
            // Phase 1 — drain others: buffer everything until the device is
            // empty, then the balloon owns it.
            BalloonRequest(best, QueueFor(best).box);
            continue;
          }
        }
        AppQueue& q = QueueFor(best);
        Pending p = q.q.front();
        q.q.pop_front();
        const DurationNs lat = sim_->Now() - p.submit_time;
        stats_.total_dispatch_latency += lat;
        stats_.max_dispatch_latency = std::max(stats_.max_dispatch_latency, lat);
        device_->Dispatch(p.cmd);
        in_flight_[p.cmd.id] = p;
        ArmCommandWatchdog(p.cmd.id);
        update_busy();
        continue;
      }
      case BalloonPhase::kDrainOthers: {
        if (device_->in_flight() > 0) {
          update_busy();
          return;
        }
        // Balloon-in: exclusive ownership begins; restore the sandbox's
        // virtualised operating frequency before the observer looks.
        if (config_.virtualize_freq) {
          SwitchOppContext(QueueFor(balloon_owner()).opp_context);
        }
        BalloonServe();
        continue;
      }
      case BalloonPhase::kServe: {
        AppQueue& sq = QueueFor(balloon_owner());
        const AppId contender = BestPendingApp(/*exclude_sandboxed_owner=*/true);
        const bool grant_over = sim_->Now() - balloon_start() >= config_.min_grant;
        const bool owner_idle = sq.q.empty() && device_->in_flight() == 0;
        if (owner_idle) {
          if (owner_idle_since_ < 0) {
            owner_idle_since_ = sim_->Now();
            SchedulePumpAt(sim_->Now() + config_.idle_release);
          }
        } else {
          owner_idle_since_ = -1;
        }
        const bool idle_expired =
            owner_idle && sim_->Now() - owner_idle_since_ >= config_.idle_release;
        // The owner's accrued-so-far billing for this balloon counts toward
        // the lead check — otherwise a single long balloon (whose billing
        // only lands at balloon end) could hold the device forever.
        const double accrued =
            static_cast<double>(sim_->Now() - balloon_start()) * device_->slots();
        const bool lead_exceeded =
            contender != kNoApp &&
            sq.vruntime + (config_.bill_balloon ? accrued : 0.0) -
                    QueueFor(contender).vruntime >
                static_cast<double>(config_.switch_lead);
        if ((contender != kNoApp && grant_over && (owner_idle || lead_exceeded)) ||
            idle_expired) {
          owner_idle_since_ = -1;
          BalloonRelease();  // phase 4: drain the owner
          continue;
        }
        if (!device_->CanDispatch() || sq.q.empty()) {
          // Nothing to do now. If a contender is waiting for the grant to
          // expire, make sure we come back then.
          if (contender != kNoApp && !grant_over) {
            const TimeNs when = balloon_start() + config_.min_grant;
            SchedulePumpAt(std::max(when, sim_->Now()));
          }
          update_busy();
          return;
        }
        // Phases 2-3 — flush & serve the sandboxed app.
        Pending p = sq.q.front();
        sq.q.pop_front();
        const DurationNs lat = sim_->Now() - p.submit_time;
        stats_.total_dispatch_latency += lat;
        stats_.max_dispatch_latency = std::max(stats_.max_dispatch_latency, lat);
        device_->Dispatch(p.cmd);
        in_flight_[p.cmd.id] = p;
        ArmCommandWatchdog(p.cmd.id);
        update_busy();
        continue;
      }
      case BalloonPhase::kDrainOwner: {
        if (device_->in_flight() > 0) {
          update_busy();
          return;
        }
        // Balloon-out: bill the *whole* accelerator for the whole balloon to
        // the sandboxed app (drain stalls and idle slots included).
        AppQueue& sq = QueueFor(balloon_owner());
        if (config_.bill_balloon) {
          sq.vruntime += static_cast<double>(sim_->Now() - balloon_start()) *
                         device_->slots();
        }
        if (config_.virtualize_freq) {
          SwitchOppContext(0);
        }
        BalloonFinish();
        owner_idle_since_ = -1;
        continue;  // phase 5: flush others in queueing order
      }
    }
  }
}

void AccelDriver::OnComplete(const AccelCompletion& completion) {
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
    // Normal billing: the span the command occupied the device, as visible
    // to the CPU side (dispatch to completion interrupt).
    q.vruntime +=
        static_cast<double>(completion.end_time - completion.dispatch_time);
  }
  if (ledger_ != nullptr) {
    ledger_->Add(kind(), completion.cmd.app, completion.dispatch_time,
                 completion.end_time);
  }
  // Deliver the completion to the submitting task (may wake it).
  if (p.task != nullptr) {
    ++p.task->pending_accel_completions;
    kernel_->DeliverAccelCompletion(p.task);
  }
  Pump();
}

void AccelDriver::SetSandboxed(AppId app, PsboxId box) {
  AppQueue& q = QueueFor(app);
  q.sandboxed = true;
  q.box = box;
  if (q.opp_context < 0) {
    q.opp_context = CreateOppContext();
  }
  Pump();
}

void AccelDriver::ClearSandboxed(AppId app) {
  AppQueue& q = QueueFor(app);
  q.sandboxed = false;
  if (balloon_owner() == app) {
    if (balloon_phase() == BalloonPhase::kDrainOthers) {
      // Balloon never took ownership; just unwind.
      BalloonCancel();
    } else if (balloon_phase() == BalloonPhase::kServe) {
      BalloonRelease();
    }
  }
  Pump();
}

bool AccelDriver::Retirable(AppId app, TimeNs cutoff) const {
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
  if (q.opp_context >= 0) {
    const auto unconsumed = [&](const std::unordered_map<int, DurationNs>& m) {
      auto t = m.find(q.opp_context);
      return t != m.end() && t->second != 0;
    };
    if (q.opp_context == current_context_ || unconsumed(ctx_wall_) ||
        unconsumed(ctx_busy_)) {
      return false;
    }
  }
  return true;
}

void AccelDriver::RetireApp(AppId app) {
  auto it = queues_.find(app);
  if (it == queues_.end()) {
    return;
  }
  const int ctx = it->second.opp_context;
  if (ctx >= 0) {
    context_opp_.erase(ctx);
    ctx_busy_.erase(ctx);
    ctx_wall_.erase(ctx);
  }
  queues_.erase(it);
}

int AccelDriver::CreateOppContext() {
  const int ctx = next_context_++;
  context_opp_[ctx] = 0;
  return ctx;
}

void AccelDriver::SwitchOppContext(int ctx) {
  PSBOX_CHECK(context_opp_.count(ctx) > 0);
  if (ctx == current_context_) {
    return;
  }
  MarkContextTime();
  context_opp_[current_context_] = device_->opp_index();
  current_context_ = ctx;
  device_->SetOppIndex(context_opp_[ctx]);
}

void AccelDriver::OnGovernorTick() {
  MarkContextTime();
  // Update every context that owned the device long enough this window,
  // judging each by the utilisation measured while it was in charge.
  for (auto& [ctx, wall] : ctx_wall_) {
    if (wall >= 2 * kMillisecond) {
      const double util =
          static_cast<double>(ctx_busy_[ctx]) / static_cast<double>(wall);
      int opp = context_opp_[ctx];
      if (ctx == current_context_) {
        opp = device_->opp_index();
      }
      if (util > config_.governor_up) {
        opp = device_->num_opps() - 1;
      } else if (util < config_.governor_down) {
        opp = std::max(0, opp - 1);
      }
      context_opp_[ctx] = opp;
      if (ctx == current_context_) {
        device_->SetOppIndex(opp);
      }
    }
    wall = 0;
    ctx_busy_[ctx] = 0;
  }
  gov_event_ = sim_->ScheduleAfter(config_.governor_period, [this] { OnGovernorTick(); });
}

void AccelDriver::ArmCommandWatchdog(uint64_t cmd_id) {
  // Raw slab event instead of a heap-allocated Watchdog object: the handle
  // rides in the in-flight record and the whole arm/complete cycle stays
  // allocation-free.
  Pending& p = in_flight_.at(cmd_id);
  const DurationNs timeout =
      config_.command_timeout_base +
      static_cast<DurationNs>(static_cast<double>(p.cmd.nominal_work) *
                              config_.command_timeout_work_factor);
  p.watchdog =
      sim_->ScheduleAfter(timeout, [this, cmd_id] { OnCommandTimeout(cmd_id); });
}

void AccelDriver::OnCommandTimeout(uint64_t cmd_id) {
  if (in_flight_.count(cmd_id) == 0) {
    return;  // completed concurrently with the expiry; stale
  }
  ++stats_.watchdog_fires;
  ResetAndRequeue();
  Pump();
}

void AccelDriver::ResetAndRequeue() {
  std::vector<AccelDevice::AbortedCommand> aborted = device_->Reset();
  ++stats_.device_resets;
  RecordRecovery();
  // Every in-flight command was aborted; their watchdogs go with them. (For
  // the expired watchdog that got us here, Cancel is a stale-handle no-op:
  // its event already left the simulator queue.)
  for (auto& [cmd_id, pending] : in_flight_) {
    sim_->Cancel(pending.watchdog);
    pending.watchdog = kInvalidEventId;
  }
  // Push front in reverse so the requeued commands re-dispatch in their
  // original order, ahead of anything submitted since.
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

void AccelDriver::OnDrainTimeout() {
  ++stats_.watchdog_fires;
  // Unwind the balloon before clearing the hardware: ResetAndRequeue can
  // re-enter Pump (a failed command wakes its submitter, which may submit
  // again synchronously), and the reentrant pump must see a settled domain.
  AppQueue& sq = QueueFor(balloon_owner());
  const bool owned = balloon_phase() == BalloonPhase::kDrainOwner;
  if (owned && config_.virtualize_freq) {
    SwitchOppContext(0);
  }
  // Bills only the service actually rendered — nothing for a kDrainOthers
  // abort, where ownership never began and no balloon-in was signalled.
  const DurationNs served = BalloonAbort();
  if (owned && config_.bill_balloon) {
    sq.vruntime += static_cast<double>(served) * device_->slots();
  }
  owner_idle_since_ = -1;
  if (device_->in_flight() > 0) {
    // The drain was stuck behind wedged work; clear it now rather than wait
    // for the per-command watchdogs to come around.
    ResetAndRequeue();
  }
  Pump();
}

void AccelDriver::FailCommand(const Pending& p) {
  ++stats_.commands_failed;
  // The submitter still gets a completion (an error status, in a real
  // driver) so it unblocks and can react to the loss.
  if (p.task != nullptr) {
    ++p.task->pending_accel_completions;
    kernel_->DeliverAccelCompletion(p.task);
  }
}

template <class Ar>
void AccelDriver::Serialize(Ar& ar) {
  if (!ar.Section("accel_driver")) {
    return;
  }
  SerializeDomain(ar);
  // TaskRef writes the task id as u64; this driver's format calls it an i64,
  // which is the same eight bytes for every valid (positive) id.
  auto pending = [&](Pending& p) {
    p.cmd.Serialize(ar);
    ar.TaskRef(p.task, *kernel_,
               "accel driver command references unknown task in snapshot");
    ar.I64(p.submit_time);
    ar.U32(p.retries);
  };
  ar.Map(queues_, 8, [&](AppId& app, AppQueue& q) {
    ar.I64(app);
    ar.Seq(q.q, 8, pending);
    ar.F64(q.vruntime);
    ar.Bool(q.sandboxed);
    ar.I64(q.box);
    ar.U32(q.opp_context);
    ar.U64(q.completed);
    ar.I64(q.last_seen);
  });
  // In-flight commands in id order; each carries its hang watchdog.
  ar.Map(in_flight_, 8, [&](uint64_t& cmd_id, Pending& p) {
    pending(p);
    cmd_id = p.cmd.id;
    ar.Event(p.watchdog, [this, cmd_id](TimeNs when) {
      in_flight_.at(cmd_id).watchdog =
          sim_->ScheduleAt(when, [this, cmd_id] { OnCommandTimeout(cmd_id); });
    });
  });
  ar.U64(next_cmd_id_);
  ar.I64(owner_idle_since_);
  ar.Map(context_opp_, 8, [&](int& ctx, int& opp) {
    ar.U32(ctx);
    ar.U32(opp);
  });
  ar.U32(next_context_);
  ar.U32(current_context_);
  ar.I64(busy_since_);
  ar.I64(last_ctx_mark_);
  auto context_time = [&](int& ctx, DurationNs& ns) {
    ar.U32(ctx);
    ar.I64(ns);
  };
  ar.Map(ctx_busy_, 12, context_time);
  ar.Map(ctx_wall_, 12, context_time);
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
  ar.Event(gov_event_, [this](TimeNs when) {
    gov_event_ = sim_->ScheduleAt(when, [this] { OnGovernorTick(); });
  });
  ar.PendingEvents(pump_events_, 1, [&](EventId& e) {
    ar.Event(e, [this](TimeNs when) { SchedulePumpAt(when); });
  });
}

template void AccelDriver::Serialize(SnapshotWriter&);
template void AccelDriver::Serialize(SnapshotReader&);

uint64_t AccelDriver::CompletedFor(AppId app) const {
  auto it = queues_.find(app);
  return it == queues_.end() ? 0 : it->second.completed;
}

}  // namespace psbox
