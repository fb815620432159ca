#include "src/kernel/cpufreq_governor.h"

#include <algorithm>
#include <map>

#include "src/base/check.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

CpufreqGovernor::CpufreqGovernor(Simulator* sim, CpuScheduler* sched, CpuDevice* cpu,
                                 GovernorConfig config)
    : sim_(sim), sched_(sched), cpu_(cpu), config_(config) {
  context_opp_[kGlobalContext] = 0;
}

void CpufreqGovernor::Start() {
  sample_event_ = sim_->ScheduleAfter(config_.sample_period, [this] { OnSample(); });
}

int CpufreqGovernor::NextOpp(int opp, double util) const {
  if (util > config_.up_threshold) {
    return cpu_->num_opps() - 1;  // ondemand: jump to max under load
  }
  if (util < config_.down_threshold) {
    return std::max(0, opp - 1);  // decay one step at a time (lingering state)
  }
  return opp;
}

void CpufreqGovernor::OnSample() {
  sample_event_ = kInvalidEventId;
  const CpuScheduler::UtilizationSample sample = sched_->ConsumeUtilization();
  // The currently-applied context's stored OPP follows the hardware.
  context_opp_[current_context_] = cpu_->opp_index();

  // Global context: driven by the utilisation outside any balloon.
  context_opp_[kGlobalContext] =
      NextOpp(context_opp_[kGlobalContext], sample.global);

  // Each sandbox context: driven by the utilisation inside its balloons.
  for (const auto& [box, util] : sample.per_box) {
    auto it = context_of_box_.find(box);
    if (it == context_of_box_.end()) {
      continue;
    }
    context_opp_[it->second] = NextOpp(context_opp_[it->second], util);
  }

  ApplyOpp(context_opp_[current_context_]);
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
  if (retry_event_ != kInvalidEventId) {
    return;
  }
  retry_event_ = sim_->ScheduleAfter(config_.transition_retry_delay, [this] {
    retry_event_ = kInvalidEventId;
    sched_->SetOpp(context_opp_[current_context_]);
  });
}

int CpufreqGovernor::ContextForBox(PsboxId box) {
  auto it = context_of_box_.find(box);
  if (it != context_of_box_.end()) {
    return it->second;
  }
  const int ctx = next_context_++;
  context_opp_[ctx] = 0;
  context_of_box_[box] = ctx;
  return ctx;
}

void CpufreqGovernor::ReleaseBoxContext(PsboxId box) {
  auto it = context_of_box_.find(box);
  if (it == context_of_box_.end()) {
    return;
  }
  PSBOX_CHECK_NE(it->second, current_context_);
  context_opp_.erase(it->second);
  context_of_box_.erase(it);
}

template <class Ar>
void CpufreqGovernor::Serialize(Ar& ar) {
  if (!ar.Section("governor")) {
    return;
  }
  ar.Map(context_opp_, 8, [&](int& ctx, int& opp) {
    ar.U32(ctx);
    ar.U32(opp);
  });
  ar.Map(context_of_box_, 12, [&](PsboxId& box, int& ctx) {
    ar.I64(box);
    ar.U32(ctx);
  });
  ar.U32(next_context_);
  ar.U32(current_context_);
  ar.U64(transition_retries_);
  ar.Event(sample_event_, [this](TimeNs when) {
    sample_event_ = sim_->ScheduleAt(when, [this] { OnSample(); });
  });
  ar.Event(retry_event_, [this](TimeNs when) {
    retry_event_ = sim_->ScheduleAt(when, [this] {
      retry_event_ = kInvalidEventId;
      sched_->SetOpp(context_opp_[current_context_]);
    });
  });
}

template void CpufreqGovernor::Serialize(SnapshotWriter&);
template void CpufreqGovernor::Serialize(SnapshotReader&);

void CpufreqGovernor::SwitchContext(int ctx) {
  PSBOX_CHECK(context_opp_.count(ctx) > 0);
  if (ctx == current_context_) {
    return;
  }
  context_opp_[current_context_] = cpu_->opp_index();
  current_context_ = ctx;
  // A failed transition at a balloon edge retries immediately: the context
  // switch must not leak the previous occupant's OPP into the sandbox for a
  // whole sample period.
  if (!sched_->SetOpp(context_opp_[ctx])) {
    ++transition_retries_;
    sched_->SetOpp(context_opp_[ctx]);
  }
}

}  // namespace psbox
