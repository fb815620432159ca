// Ondemand-style cpufreq governor with per-psbox operating points.
//
// Baseline behaviour follows Linux ondemand: sample utilisation on a fixed
// period, jump to the top OPP under load, step down gradually when idle.
// The gradual decay is what leaves *lingering power state* behind a busy
// workload (Fig 3c).
//
// psbox extension (§4.1 power state virtualisation): the governor keeps the
// operating point of every principal — the global (unsandboxed) context and
// each psbox — and which of them runs the hardware. At a CPU balloon edge
// the scheduler calls Switch: the hardware OPP is saved into the principal
// leaving and the entering one's is applied, so a sandboxed app neither
// observes other apps' DVFS residue nor leaves its own behind. Each
// principal's OPP is driven by the utilisation measured while it owned the
// hardware (inside the sandbox's balloons for a psbox, outside any balloon
// for the global context).

#ifndef SRC_KERNEL_CPUFREQ_GOVERNOR_H_
#define SRC_KERNEL_CPUFREQ_GOVERNOR_H_

#include <map>

#include "src/kernel/cpu_scheduler.h"

namespace psbox {

struct GovernorConfig {
  DurationNs sample_period = 20 * kMillisecond;
  double up_threshold = 0.70;
  double down_threshold = 0.30;
  // When a hardware frequency transition fails (fault injection), retry once
  // this far into the sample period; the next regular sample self-heals
  // anyway since it re-reads the hardware OPP.
  DurationNs transition_retry_delay = 5 * kMillisecond;
};

// The ondemand rule every governor applies to a principal once per period:
// above |up| utilisation jump to the top OPP, below |down| step down one OPP
// (the gradual decay is the lingering power state), in between hold.
int OndemandNextOpp(int opp, double util, double up, double down, int num_opps);

class CpufreqGovernor {
 public:
  CpufreqGovernor(Simulator* sim, CpuScheduler* sched, CpuDevice* cpu,
                  GovernorConfig config);

  // Arms the periodic sampling; call once after construction.
  void Start();

  // Gives |box| an operating point, initially the lowest OPP.
  void BindBox(PsboxId box);
  // Frees a retired box's operating point; the box must not be running.
  void UnbindBox(PsboxId box);
  // The principal whose operating point the hardware runs (kNoPsbox: the
  // global context).
  PsboxId running() const { return running_; }

  // Saves the hardware OPP into the running principal and applies |box|'s
  // (kNoPsbox: the global context's). A box with no operating point is
  // skipped.
  void Switch(PsboxId box);

  const GovernorConfig& config() const { return config_; }
  // Frequency transitions that failed at the hardware and were retried.
  uint64_t transition_retries() const { return transition_retries_; }

  // Snapshot support: every principal's OPP, the running one, and the
  // sample/retry timers. Requires the live boxes to have been bound again
  // (CpuScheduler::BindBox) before the call.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  void OnSample();
  int& OppOf(PsboxId box) {
    return box == kNoPsbox ? global_opp_ : box_opp_.at(box);
  }
  // Applies |opp|; on hardware failure schedules a one-shot retry.
  void ApplyOpp(int opp);
  void ArmRetryAt(TimeNs when);

  Simulator* sim_;
  CpuScheduler* sched_;
  CpuDevice* cpu_;
  GovernorConfig config_;
  int global_opp_ = 0;
  std::map<PsboxId, int> box_opp_;
  PsboxId running_ = kNoPsbox;
  uint64_t transition_retries_ = 0;
  EventId sample_event_ = kInvalidEventId;
  EventId retry_event_ = kInvalidEventId;
};

}  // namespace psbox

#endif  // SRC_KERNEL_CPUFREQ_GOVERNOR_H_
