#include "src/hw/accel_device.h"

#include <algorithm>
#include <cmath>

#include "src/base/check.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

AccelDevice::AccelDevice(Simulator* sim, PowerRail* rail, AccelConfig config)
    : sim_(sim),
      target_(sim->AddTarget(this, {config.name + " device", 1, 1})),
      rail_(rail),
      config_(std::move(config)),
      opp_index_(static_cast<int>(config_.opps.size()) - 1) {
  PSBOX_CHECK_GT(config_.slots, 0);
  PSBOX_CHECK(!config_.opps.empty());
  UpdateRail();
}

double AccelDevice::SpeedFactor() const {
  return config_.opps[static_cast<size_t>(opp_index_)].freq_mhz /
         config_.opps.back().freq_mhz;
}

double AccelDevice::PowerScale() const {
  const CpuOpp& opp = config_.opps[static_cast<size_t>(opp_index_)];
  const CpuOpp& top = config_.opps.back();
  return (opp.freq_mhz * opp.volts * opp.volts) /
         (top.freq_mhz * top.volts * top.volts);
}

double AccelDevice::ExecutionRate() const {
  const int k = static_cast<int>(in_flight_.size());
  if (k == 0) {
    return 0.0;
  }
  const double contention = 1.0 + config_.contention_slowdown * (k - 1);
  return SpeedFactor() / contention;
}

void AccelDevice::AdvanceProgress() {
  const TimeNs now = sim_->Now();
  const double rate = ExecutionRate();
  const double elapsed = static_cast<double>(now - last_progress_time_);
  if (rate > 0.0 && elapsed > 0.0) {
    for (Exec& e : in_flight_) {
      if (e.hung) {
        continue;  // a wedged command makes no progress
      }
      e.remaining_work = std::max(0.0, e.remaining_work - elapsed * rate);
    }
  }
  last_progress_time_ = now;
}

void AccelDevice::RescheduleCompletion() {
  if (completion_event_ != kInvalidEventId) {
    sim_->Cancel(completion_event_);
    completion_event_ = kInvalidEventId;
  }
  if (in_flight_.empty()) {
    return;
  }
  const double rate = ExecutionRate();
  PSBOX_CHECK_GT(rate, 0.0);
  // Only live commands can complete; a fully-hung device schedules nothing
  // (it is wedged until the driver's watchdog resets it).
  bool any_live = false;
  double min_remaining = 0.0;
  for (const Exec& e : in_flight_) {
    if (e.hung) {
      continue;
    }
    min_remaining = any_live ? std::min(min_remaining, e.remaining_work)
                             : e.remaining_work;
    any_live = true;
  }
  if (!any_live) {
    return;
  }
  const auto delay = static_cast<DurationNs>(std::ceil(min_remaining / rate));
  completion_event_ =
      sim_->ScheduleAfter(std::max<DurationNs>(delay, 0), target_, 0);
}

void AccelDevice::Dispatch(const AccelCommand& cmd) {
  PSBOX_CHECK(CanDispatch());
  PSBOX_CHECK_GT(cmd.nominal_work, 0);
  AdvanceProgress();
  Exec exec{cmd, sim_->Now(), sim_->Now(), static_cast<double>(cmd.nominal_work),
            /*hung=*/false};
  if (faults_ != nullptr) {
    exec.hung = faults_->ShouldHangCommand(config_.name);
    if (exec.hung) {
      ++hung_commands_;
    } else {
      exec.remaining_work *= faults_->CommandLatencyFactor(config_.name);
    }
  }
  in_flight_.push_back(exec);
  RescheduleCompletion();
  UpdateRail();
}

void AccelDevice::OnEvent(uint8_t /*kind*/, uint64_t /*a*/, uint64_t /*b*/) {
  completion_event_ = kInvalidEventId;
  AdvanceProgress();
  // Collect all commands that finished at this instant (remaining ~ 0).
  std::vector<Exec> done;
  auto it = in_flight_.begin();
  while (it != in_flight_.end()) {
    if (!it->hung && it->remaining_work <= 0.5) {  // sub-ns rounding residue
      done.push_back(*it);
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  RescheduleCompletion();
  UpdateRail();
  for (const Exec& e : done) {
    if (on_complete_) {
      AccelCompletion completion{e.cmd, e.dispatch_time, e.start_time, sim_->Now()};
      on_complete_(completion);
    }
  }
}

std::vector<uint64_t> AccelDevice::ExecutingIds() const {
  std::vector<uint64_t> ids;
  for (const Exec& e : in_flight_) {
    ids.push_back(e.cmd.id);
  }
  return ids;
}

std::vector<AccelDevice::AbortedCommand> AccelDevice::Reset() {
  AdvanceProgress();
  if (completion_event_ != kInvalidEventId) {
    sim_->Cancel(completion_event_);
    completion_event_ = kInvalidEventId;
  }
  std::vector<AbortedCommand> aborted;
  aborted.reserve(in_flight_.size());
  for (const Exec& e : in_flight_) {
    aborted.push_back(AbortedCommand{e.cmd, e.hung});
  }
  in_flight_.clear();
  ++resets_;
  UpdateRail();
  return aborted;
}

void AccelDevice::SetOppIndex(int opp) {
  PSBOX_CHECK_GE(opp, 0);
  PSBOX_CHECK_LT(opp, num_opps());
  if (opp == opp_index_) {
    return;
  }
  AdvanceProgress();
  opp_index_ = opp;
  RescheduleCompletion();
  UpdateRail();
}

std::vector<AppId> AccelDevice::ActiveApps() const {
  std::vector<AppId> apps;
  for (const Exec& e : in_flight_) {
    if (std::find(apps.begin(), apps.end(), e.cmd.app) == apps.end()) {
      apps.push_back(e.cmd.app);
    }
  }
  return apps;
}

Watts AccelDevice::ModelPower() const {
  const int k = static_cast<int>(in_flight_.size());
  if (k == 0) {
    return config_.idle_power;
  }
  double sum = 0.0;
  for (const Exec& e : in_flight_) {
    sum += e.cmd.active_power;
  }
  // Blurry-request-boundary entanglement: overlapping commands draw less than
  // the sum of their solo powers, and the rail cannot tell them apart.
  const double interference = 1.0 - config_.power_interference * (k - 1);
  return config_.idle_power + sum * interference * PowerScale();
}

template <class Ar>
void AccelDevice::Serialize(Ar& ar) {
  ar.Seq(in_flight_, 8, [&](Exec& e) {
    e.cmd.Serialize(ar);
    ar.I64(e.dispatch_time);
    ar.I64(e.start_time);
    ar.F64(e.remaining_work);
    ar.Bool(e.hung);
  });
  ar.I64(last_progress_time_);
  ar.U32(opp_index_);
  ar.U64(resets_);
  ar.U64(hung_commands_);
  if constexpr (Ar::kLoading) {
    if (ar.ok() && (opp_index_ < 0 || opp_index_ >= num_opps())) {
      ar.Fail("accel opp index out of range in snapshot");
    }
    completion_event_ = sim_->FindPending(target_, 0, 0);
  }
}

template void AccelDevice::Serialize(SnapshotWriter&);
template void AccelDevice::Serialize(SnapshotReader&);

void AccelDevice::UpdateRail() { rail_->SetPower(ModelPower()); }

AccelConfig MakeGpuConfig() {
  AccelConfig cfg;
  cfg.name = "gpu";
  cfg.slots = 2;  // pipelined command overlap (Fig 3b)
  cfg.opps = {{192, 0.95}, {304, 1.05}, {384, 1.15}};
  cfg.idle_power = 0.12;
  cfg.contention_slowdown = 0.25;
  cfg.power_interference = 0.18;
  return cfg;
}

AccelConfig MakeDspConfig() {
  AccelConfig cfg;
  cfg.name = "dsp";
  cfg.slots = 4;  // spatial concurrency across C66x cores
  cfg.opps = {{370, 0.95}, {500, 1.00}, {600, 1.10}, {750, 1.15}};
  cfg.idle_power = 0.10;
  cfg.contention_slowdown = 0.18;
  cfg.power_interference = 0.22;
  return cfg;
}

}  // namespace psbox
