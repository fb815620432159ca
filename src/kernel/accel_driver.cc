#include "src/kernel/accel_driver.h"

#include <string>

#include "src/kernel/cpufreq_governor.h"
#include "src/kernel/kernel.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

AccelDriver::AccelDriver(Simulator* sim, AccelDevice* device, HwComponent kind,
                         Kernel* kernel, AccelDriverConfig config)
    : CommandDriver(sim, kind, device, kernel, config, kAccelEventKinds,
                    1u << kGovernorTick),
      config_(config) {
  global_state_.opp = device_->opp_index();
  last_mark_ = sim_->Now();
  sim_->ScheduleAfter(config_.governor_period, target_, kGovernorTick);
}

void AccelDriver::OnEvent(uint8_t kind, uint64_t a, uint64_t b) {
  if (kind == kGovernorTick) {
    OnGovernorTick();
  } else {
    CommandDriver::OnEvent(kind, a, b);
  }
}

void AccelDriver::MarkRunningTime() {
  const TimeNs now = sim_->Now();
  AccelPowerState& s = StateOf(running_);
  if (busy_since_ >= 0) {
    s.busy += now - busy_since_;
    busy_since_ = now;
  }
  s.wall += now - last_mark_;
  last_mark_ = now;
}

void AccelDriver::TrackBusy() {
  if (device_->in_flight() > 0 && busy_since_ < 0) {
    busy_since_ = sim_->Now();
  } else if (device_->in_flight() == 0 && busy_since_ >= 0) {
    StateOf(running_).busy += sim_->Now() - busy_since_;
    busy_since_ = -1;
  }
}

void AccelDriver::Deliver(Task* task) {
  kernel_->DeliverCompletion(task, task->pending_accel_completions,
                             task->awaited_accel_completions);
}

DurationNs AccelDriver::CommandTimeout(const AccelCommand& cmd) const {
  return config_.command_timeout_base +
         static_cast<DurationNs>(static_cast<double>(cmd.nominal_work) *
                                 config_.command_timeout_work_factor);
}

bool AccelDriver::Retirable(AppId app, TimeNs cutoff) const {
  if (!CommandDriver::Retirable(app, cutoff)) {
    return false;
  }
  const Lane* l = queue_.Find(app);
  return l == nullptr || (app != running_ && l->extra.vstate.busy == 0 &&
                          l->extra.vstate.wall == 0);
}

void AccelDriver::SwitchTo(AppId app) {
  if (app == running_) {
    return;
  }
  MarkRunningTime();
  StateOf(running_).opp = device_->opp_index();
  running_ = app;
  device_->SetOppIndex(StateOf(app).opp);
}

void AccelDriver::OnGovernorTick() {
  MarkRunningTime();
  // Update every principal that ran the device long enough this window,
  // judging each by the utilisation measured while it was in charge.
  const auto judge = [&](AppId app, AccelPowerState& s) {
    if (s.wall >= 2 * kMillisecond) {
      const bool running = app == running_;
      s.opp = OndemandNextOpp(
          running ? device_->opp_index() : s.opp,
          static_cast<double>(s.busy) / static_cast<double>(s.wall),
          config_.governor_up, config_.governor_down, device_->num_opps());
      if (running) {
        device_->SetOppIndex(s.opp);
      }
    }
    s.wall = 0;
    s.busy = 0;
  };
  judge(kNoApp, global_state_);
  for (auto& [app, l] : queue_.lanes()) {
    judge(app, l.extra.vstate);
  }
  sim_->ScheduleAfter(config_.governor_period, target_, kGovernorTick);
}

template <class Ar>
void AccelDriver::Serialize(Ar& ar) {
  const auto state = [&] {
    global_state_.Serialize(ar);
    ar.I64(running_);
    ar.I64(busy_since_);
    ar.I64(last_mark_);
    if constexpr (Ar::kLoading) {
      // Every OPP a balloon edge or a tick would apply must be one the
      // device has, and the running principal must have one.
      const auto fail = [&](const std::string& what) {
        if (ar.ok()) {
          ar.Fail(std::string(name()) + " driver " + what + " in snapshot");
        }
      };
      const auto check_opp = [&](int opp, const std::string& whose) {
        if (opp < 0 || opp >= device_->num_opps()) {
          fail(whose + " OPP index " + std::to_string(opp) + " out of range");
        }
      };
      check_opp(global_state_.opp, "global");
      for (const auto& [app, l] : queue_.lanes()) {
        check_opp(l.extra.vstate.opp, "app " + std::to_string(app));
      }
      if (running_ != kNoApp && queue_.Find(running_) == nullptr) {
        fail("runs app " + std::to_string(running_) + ", which has no OPP,");
      }
    }
  };
  SerializeCommands(ar, "accel_driver", state);
}

template void AccelDriver::Serialize(SnapshotWriter&);
template void AccelDriver::Serialize(SnapshotReader&);

}  // namespace psbox
