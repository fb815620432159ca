#include "src/kernel/cpufreq_governor.h"

#include <algorithm>
#include <string>

#include "src/base/check.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

int OndemandNextOpp(int opp, double util, double up, double down, int num_opps) {
  if (util > up) {
    return num_opps - 1;  // ondemand: jump to max under load
  }
  if (util < down) {
    return std::max(0, opp - 1);  // decay one step at a time (lingering state)
  }
  return opp;
}

CpufreqGovernor::CpufreqGovernor(Simulator* sim, CpuScheduler* sched, CpuDevice* cpu,
                                 GovernorConfig config)
    : sim_(sim), sched_(sched), cpu_(cpu), config_(config) {}

void CpufreqGovernor::Start() {
  sample_event_ = sim_->ScheduleAfter(config_.sample_period, [this] { OnSample(); });
}

void CpufreqGovernor::OnSample() {
  sample_event_ = kInvalidEventId;
  const CpuScheduler::UtilizationSample sample = sched_->ConsumeUtilization();
  const auto next = [&](int opp, double util) {
    return OndemandNextOpp(opp, util, config_.up_threshold,
                           config_.down_threshold, cpu_->num_opps());
  };
  // The running principal's stored OPP follows the hardware.
  OppOf(running_) = cpu_->opp_index();
  // The global context: driven by the utilisation outside any balloon.
  global_opp_ = next(global_opp_, sample.global);
  // Each box: driven by the utilisation inside its balloons.
  for (const auto& [box, util] : sample.per_box) {
    auto it = box_opp_.find(box);
    if (it != box_opp_.end()) {
      it->second = next(it->second, util);
    }
  }
  ApplyOpp(OppOf(running_));
  sample_event_ = sim_->ScheduleAfter(config_.sample_period, [this] { OnSample(); });
}

void CpufreqGovernor::ApplyOpp(int opp) {
  if (sched_->SetOpp(opp)) {
    return;
  }
  // Hardware transition failure: the cluster is still at the old OPP. Retry
  // once shortly; the next sample re-reads the hardware and self-heals even
  // if the retry fails too.
  ++transition_retries_;
  if (retry_event_ == kInvalidEventId) {
    ArmRetryAt(sim_->Now() + config_.transition_retry_delay);
  }
}

void CpufreqGovernor::ArmRetryAt(TimeNs when) {
  retry_event_ = sim_->ScheduleAt(when, [this] {
    retry_event_ = kInvalidEventId;
    sched_->SetOpp(OppOf(running_));
  });
}

void CpufreqGovernor::BindBox(PsboxId box) { box_opp_.emplace(box, 0); }

void CpufreqGovernor::UnbindBox(PsboxId box) {
  PSBOX_CHECK_NE(box, running_);
  box_opp_.erase(box);
}

void CpufreqGovernor::Switch(PsboxId box) {
  if (box == running_ || (box != kNoPsbox && box_opp_.count(box) == 0)) {
    return;
  }
  OppOf(running_) = cpu_->opp_index();
  running_ = box;
  // A failed transition at a balloon edge retries immediately: the switch
  // must not leak the previous occupant's OPP into the sandbox for a whole
  // sample period.
  const int opp = OppOf(box);
  if (!sched_->SetOpp(opp)) {
    ++transition_retries_;
    sched_->SetOpp(opp);
  }
}

template <class Ar>
void CpufreqGovernor::Serialize(Ar& ar) {
  if (!ar.Section("governor")) {
    return;
  }
  const char* boxes =
      "CPU governor boxes do not match the scheduler's groups in snapshot";
  ar.U32(global_opp_);
  ar.Fixed(box_opp_, 12, boxes, [&](auto& entry) {
    ar.Expect(entry.first, boxes);
    ar.U32(entry.second);
  });
  ar.I64(running_);
  ar.U64(transition_retries_);
  if constexpr (Ar::kLoading) {
    // Every OPP a balloon edge or a sample would apply must be one the
    // cluster has, and the running principal must have one.
    const auto check_opp = [&](int opp, const std::string& whose) {
      if (ar.ok() && (opp < 0 || opp >= cpu_->num_opps())) {
        ar.Fail("CPU governor " + whose + " OPP index " + std::to_string(opp) +
                " out of range in snapshot");
      }
    };
    check_opp(global_opp_, "global");
    for (const auto& [box, opp] : box_opp_) {
      check_opp(opp, "box " + std::to_string(box));
    }
    if (ar.ok() && running_ != kNoPsbox && box_opp_.count(running_) == 0) {
      ar.Fail("CPU governor runs box " + std::to_string(running_) +
              ", which has no OPP, in snapshot");
    }
  }
  ar.Event(sample_event_, [this](TimeNs when) {
    sample_event_ = sim_->ScheduleAt(when, [this] { OnSample(); });
  });
  ar.Event(retry_event_, [this](TimeNs when) { ArmRetryAt(when); });
}

template void CpufreqGovernor::Serialize(SnapshotWriter&);
template void CpufreqGovernor::Serialize(SnapshotReader&);

}  // namespace psbox
