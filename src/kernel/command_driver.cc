#include "src/kernel/command_driver.h"

#include "src/base/check.h"
#include "src/kernel/accel_driver.h"
#include "src/kernel/storage_driver.h"

namespace psbox {

// Apps seen within this window count as competitors of a sandboxed app.
constexpr DurationNs kCommandRecency = 50 * kMillisecond;
// How long a held device stays idle before the pump retries.
constexpr DurationNs kCommandHold = 1 * kMillisecond;

template <class Device, class Command, class VState>
CommandDriver<Device, Command, VState>::CommandDriver(
    Simulator* sim, HwComponent kind, Device* device, Kernel* kernel,
    const CommandDriverConfig& config, uint8_t event_kinds, uint64_t handles)
    : ResourceDomain(sim, kind, config.drain_timeout, event_kinds,
                     handles | 1u << kCommandTimeout),
      device_(device),
      kernel_(kernel),
      queue_(sim, std::string(HwComponentName(kind)) + " queue",
             kCommandRecency, static_cast<double>(config.switch_lead),
             kCommandHold, [this] { Pump(); }),
      limits_(config) {
  device_->set_on_complete([this](const auto& c) {
    OnComplete(c.cmd, c.dispatch_time, c.end_time);
  });
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::Submit(Task* task, Command cmd) {
  cmd.id = next_cmd_id_++;
  cmd.app = task->app();
  ++stats_.submitted;
  Lane& l = queue_[cmd.app];
  l.q.push_back(Pending{cmd, task, sim_->Now()});
  l.last_seen = sim_->Now();
  Pump();
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::Pump() {
  while (Step()) {
  }
  TrackBusy();
}

template <class Device, class Command, class VState>
bool CommandDriver<Device, Command, VState>::Step() {
  switch (balloon_phase()) {
    case BalloonPhase::kIdle: {  // phase 5 / normal fair dispatch
      if (!device_->CanDispatch()) {
        return false;
      }
      const typename Queue::Pick pick = queue_.Next();
      switch (pick.verdict) {
        case Queue::Verdict::kIdle:
          return false;
        case Queue::Verdict::kHold:
          // Idle on purpose; retry once the competition catches up.
          queue_.Hold();
          return false;
        case Queue::Verdict::kBalloon:
          // Phase 1 — drain others: buffer everything until the device is
          // quiescent, then the balloon owns it.
          BalloonRequest(pick.app, queue_[pick.app].box);
          return true;
        case Queue::Verdict::kDispatch:
          DispatchFrom(pick.app);
          return true;
      }
      return false;
    }
    case BalloonPhase::kDrainOthers:
      if (!device_->Quiescent()) {
        return false;  // the last completion (or quiescence) pumps again
      }
      EnterBalloon(queue_[balloon_owner()]);
      BalloonServe();
      return true;
    case BalloonPhase::kServe:
      return ServeStep();
    case BalloonPhase::kDrainOwner: {
      if (!device_->Quiescent()) {
        return false;
      }
      // Balloon-out: bill the whole device for the whole balloon to the
      // sandboxed app (drain stalls and idle slots included).
      Lane& owner = queue_[balloon_owner()];
      owner.served += static_cast<double>(sim_->Now() - balloon_start()) *
                      device_->slots();
      LeaveBalloon(owner);
      BalloonFinish();
      owner_idle_since_ = -1;
      return true;  // phase 5: flush others in queueing order
    }
  }
  return false;
}

template <class Device, class Command, class VState>
bool CommandDriver<Device, Command, VState>::ServeStep() {
  const TimeNs now = sim_->Now();
  Lane& owner = queue_[balloon_owner()];
  const AppId contender = queue_.Best(balloon_owner());
  const bool grant_over = now - balloon_start() >= limits_.min_grant;
  // Only executing commands keep the owner busy. Lingering device activity
  // (a storage flush tail) does not hold the balloon: the owner drain waits
  // it out inside the window.
  const bool owner_idle = owner.q.empty() && device_->in_flight() == 0;
  if (owner_idle) {
    if (owner_idle_since_ < 0) {
      owner_idle_since_ = now;
      queue_.PumpAt(now + limits_.idle_release);
    }
  } else {
    owner_idle_since_ = -1;
  }
  const bool idle_expired =
      owner_idle && now - owner_idle_since_ >= limits_.idle_release;
  // The owner's accrued-so-far billing for this balloon counts toward the
  // lead check — otherwise a single long balloon (whose billing only lands
  // at balloon end) could hold the device forever.
  const double accrued =
      static_cast<double>(now - balloon_start()) * device_->slots();
  const bool lead_exceeded =
      contender != kNoApp &&
      owner.served + accrued - queue_[contender].served >
          static_cast<double>(limits_.switch_lead);
  if ((contender != kNoApp && grant_over && (owner_idle || lead_exceeded)) ||
      idle_expired) {
    owner_idle_since_ = -1;
    BalloonRelease();  // phase 4: drain the owner
    return true;
  }
  if (!device_->CanDispatch() || owner.q.empty()) {
    // Nothing to do now. If a contender is waiting for the grant to expire,
    // make sure we come back then.
    if (contender != kNoApp && !grant_over) {
      queue_.PumpAt(std::max(balloon_start() + limits_.min_grant, now));
    }
    return false;
  }
  // Phases 2-3 — flush & serve the sandboxed app.
  DispatchFrom(balloon_owner());
  return true;
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::DispatchFrom(AppId app) {
  Lane& l = queue_[app];
  const Pending p = l.q.front();
  l.q.pop_front();
  const DurationNs lat = sim_->Now() - p.submit_time;
  stats_.total_dispatch_latency += lat;
  stats_.max_dispatch_latency = std::max(stats_.max_dispatch_latency, lat);
  device_->Dispatch(p.cmd);
  // The watchdog's handle rides in the in-flight record.
  Pending& held = in_flight_[p.cmd.id] = p;
  held.watchdog = sim_->ScheduleAfter(CommandTimeout(p.cmd), target_,
                                      kCommandTimeout, p.cmd.id);
  TrackBusy();
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::OnComplete(const Command& cmd,
                                                        TimeNs dispatch_time,
                                                        TimeNs end_time) {
  auto it = in_flight_.find(cmd.id);
  PSBOX_CHECK(it != in_flight_.end());
  const Pending p = it->second;
  in_flight_.erase(it);
  sim_->Cancel(p.watchdog);
  ++stats_.completed;
  Lane& l = queue_[cmd.app];
  ++l.extra.completed;
  l.last_seen = sim_->Now();
  if (cmd.app != balloon_owner()) {
    // Normal billing: the span the command occupied the device, as visible
    // to the CPU side (dispatch to completion interrupt).
    l.served += static_cast<double>(end_time - dispatch_time);
  }
  if (ledger_ != nullptr) {
    ledger_->Add(kind(), cmd.app, dispatch_time, end_time);
  }
  if (p.task != nullptr) {
    Deliver(p.task);
  }
  Pump();
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::SetSandboxed(AppId app,
                                                          PsboxId box) {
  Lane& l = queue_[app];
  l.sandboxed = true;
  l.box = box;
  Pump();
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::ClearSandboxed(AppId app) {
  queue_[app].sandboxed = false;
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

template <class Device, class Command, class VState>
bool CommandDriver<Device, Command, VState>::Retirable(AppId app,
                                                       TimeNs cutoff) const {
  if (!ResourceDomain::Retirable(app, cutoff) || !queue_.Quiet(app, cutoff)) {
    return false;
  }
  for (const auto& [cmd_id, p] : in_flight_) {
    if (p.cmd.app == app) {
      return false;
    }
  }
  return true;
}

template <class Device, class Command, class VState>
uint64_t CommandDriver<Device, Command, VState>::CompletedFor(AppId app) const {
  const Lane* l = queue_.Find(app);
  return l == nullptr ? 0 : l->extra.completed;
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::OnEvent(uint8_t kind, uint64_t a,
                                                     uint64_t b) {
  if (kind == kCommandTimeout) {
    OnCommandTimeout(a);
  } else {
    ResourceDomain::OnEvent(kind, a, b);
  }
}

template <class Device, class Command, class VState>
std::string CommandDriver<Device, Command, VState>::CheckEvent(
    uint8_t kind, uint64_t a, uint64_t b) const {
  if (kind != kCommandTimeout) {
    return ResourceDomain::CheckEvent(kind, a, b);
  }
  return in_flight_.count(a) == 0
             ? "names command " + std::to_string(a) + ", which is not in flight"
             : std::string();
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::OnCommandTimeout(uint64_t cmd_id) {
  if (in_flight_.count(cmd_id) == 0) {
    return;  // completed concurrently with the expiry; stale
  }
  ++stats_.watchdog_fires;
  ResetAndRequeue();
  Pump();
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::ResetAndRequeue() {
  const auto aborted = device_->Reset();
  ++stats_.device_resets;
  RecordRecovery();
  // Every in-flight command was aborted; their watchdogs go with them. (For
  // the expired watchdog that got us here, Cancel is a stale-handle no-op:
  // its event already left the simulator queue.)
  for (auto& [cmd_id, p] : in_flight_) {
    sim_->Cancel(p.watchdog);
    p.watchdog = kInvalidEventId;
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
    if (p.retries > limits_.max_command_retries) {
      FailCommand(p);
      continue;
    }
    ++stats_.command_retries;
    queue_[p.cmd.app].q.push_front(p);
  }
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::OnDrainTimeout() {
  ++stats_.watchdog_fires;
  // Unwind the balloon before clearing the hardware: ResetAndRequeue can
  // re-enter Pump (a failed command wakes its submitter, which may submit
  // again synchronously), and the reentrant pump must see a settled domain.
  Lane& owner = queue_[balloon_owner()];
  const bool owned = balloon_phase() == BalloonPhase::kDrainOwner;
  if (owned) {
    LeaveBalloon(owner);
  }
  // Bills only the service actually rendered — nothing for a kDrainOthers
  // abort, where ownership never began and no balloon-in was signalled.
  const DurationNs served = BalloonAbort();
  if (owned) {
    owner.served += static_cast<double>(served) * device_->slots();
  }
  owner_idle_since_ = -1;
  if (DrainStuck()) {
    // Clear the stuck work now rather than wait for the per-command
    // watchdogs to come around.
    ResetAndRequeue();
  }
  Pump();
}

template <class Device, class Command, class VState>
void CommandDriver<Device, Command, VState>::FailCommand(const Pending& p) {
  ++stats_.commands_failed;
  // The submitter still gets a completion (an error status, in a real
  // driver) so it unblocks and can react to the loss.
  if (p.task != nullptr) {
    Deliver(p.task);
  }
}

template class CommandDriver<AccelDevice, AccelCommand, AccelPowerState>;
template class CommandDriver<StorageDevice, StorageCommand, StoragePowerState>;

}  // namespace psbox
