#include "src/kernel/accel_driver.h"

#include <algorithm>
#include <string>

#include "src/base/check.h"
#include "src/kernel/kernel.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

AccelDriver::AccelDriver(Simulator* sim, AccelDevice* device, HwComponent kind,
                         Kernel* kernel, AccelDriverConfig config)
    : CommandDriver(sim, kind, device, kernel, config), config_(config) {
  context_opp_[0] = device_->opp_index();
  last_ctx_mark_ = sim_->Now();
  gov_event_ = sim_->ScheduleAfter(config_.governor_period, [this] { OnGovernorTick(); });
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

void AccelDriver::TrackBusy() {
  if (device_->in_flight() > 0 && busy_since_ < 0) {
    busy_since_ = sim_->Now();
  } else if (device_->in_flight() == 0 && busy_since_ >= 0) {
    ctx_busy_[current_context_] += sim_->Now() - busy_since_;
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

void AccelDriver::SetSandboxed(AppId app, PsboxId box) {
  int& ctx = queue_[app].extra.vstate.id;
  if (ctx < 0) {
    ctx = CreateOppContext();
  }
  CommandDriver::SetSandboxed(app, box);
}

bool AccelDriver::Retirable(AppId app, TimeNs cutoff) const {
  if (!CommandDriver::Retirable(app, cutoff)) {
    return false;
  }
  const Lane* l = queue_.Find(app);
  const int ctx = l == nullptr ? -1 : l->extra.vstate.id;
  if (ctx < 0) {
    return true;
  }
  const auto unconsumed = [ctx](const std::unordered_map<int, DurationNs>& m) {
    auto t = m.find(ctx);
    return t != m.end() && t->second != 0;
  };
  return ctx != current_context_ && !unconsumed(ctx_wall_) &&
         !unconsumed(ctx_busy_);
}

void AccelDriver::RetireApp(AppId app) {
  const Lane* l = queue_.Find(app);
  if (l != nullptr && l->extra.vstate.id >= 0) {
    context_opp_.erase(l->extra.vstate.id);
    ctx_busy_.erase(l->extra.vstate.id);
    ctx_wall_.erase(l->extra.vstate.id);
  }
  CommandDriver::RetireApp(app);
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

template <class Ar>
void AccelDriver::Serialize(Ar& ar) {
  const auto contexts = [&] {
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
    if constexpr (Ar::kLoading) {
      // Every context a lane names, the current one and the global context
      // 0 must exist (balloon edges switch to them), and every OPP a
      // context would restore must be one the device has.
      const auto fail = [&](const std::string& what) {
        if (ar.ok()) {
          ar.Fail(std::string(name()) + " driver " + what + " in snapshot");
        }
      };
      for (const auto& [app, l] : queue_.lanes()) {
        if (l.extra.vstate.id != -1 && context_opp_.count(l.extra.vstate.id) == 0) {
          fail("app " + std::to_string(app) + " names unknown frequency context " +
               std::to_string(l.extra.vstate.id));
        }
      }
      for (const int ctx : {0, current_context_}) {
        if (context_opp_.count(ctx) == 0) {
          fail("has no frequency context " + std::to_string(ctx));
        }
      }
      for (const auto& [ctx, opp] : context_opp_) {
        if (opp < 0 || opp >= device_->num_opps()) {
          fail("frequency context " + std::to_string(ctx) + " OPP index " +
               std::to_string(opp) + " out of range");
        }
      }
    }
  };
  SerializeCommands(ar, "accel_driver", contexts, [&] {
    ar.Event(gov_event_, [this](TimeNs when) {
      gov_event_ = sim_->ScheduleAt(when, [this] { OnGovernorTick(); });
    });
  });
}

template void AccelDriver::Serialize(SnapshotWriter&);
template void AccelDriver::Serialize(SnapshotReader&);

}  // namespace psbox
