// Ondemand-style cpufreq governor with per-psbox power-state contexts.
//
// Baseline behaviour follows Linux ondemand: sample utilisation on a fixed
// period, jump to the top OPP under load, step down gradually when idle.
// The gradual decay is what leaves *lingering power state* behind a busy
// workload (Fig 3c).
//
// psbox extension (§4.1 power state virtualisation): the governor keeps one
// frequency context per psbox plus the global context. At a CPU balloon edge
// the kernel switches contexts — the hardware OPP is saved into the outgoing
// context and restored from the incoming one, so a sandboxed app neither
// observes other apps' DVFS residue nor leaves its own behind. Each
// context's OPP is driven by the utilisation measured while that context
// owned the hardware (inside the sandbox's balloons for psbox contexts,
// outside any balloon for the global one).

#ifndef SRC_KERNEL_CPUFREQ_GOVERNOR_H_
#define SRC_KERNEL_CPUFREQ_GOVERNOR_H_

#include <unordered_map>

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

class CpufreqGovernor {
 public:
  // Context 0 is the global (unsandboxed) context.
  static constexpr int kGlobalContext = 0;

  CpufreqGovernor(Simulator* sim, CpuScheduler* sched, CpuDevice* cpu,
                  GovernorConfig config);

  // Arms the periodic sampling; call once after construction.
  void Start();

  // Creates (or returns) the frequency context virtualising power state for
  // |box| (initially at the lowest OPP).
  int ContextForBox(PsboxId box);
  // Frees a retired box's context; it must not be the current one.
  void ReleaseBoxContext(PsboxId box);

  // Saves the hardware OPP into the current context and applies |ctx|'s.
  void SwitchContext(int ctx);
  int current_context() const { return current_context_; }

  const GovernorConfig& config() const { return config_; }
  // Frequency transitions that failed at the hardware and were retried.
  uint64_t transition_retries() const { return transition_retries_; }

  // Snapshot support: context table, box bindings, and the sample/retry
  // timers.
  template <class Ar>
  void Serialize(Ar& ar);

 private:
  void OnSample();
  int NextOpp(int opp, double util) const;
  // Applies |opp|; on hardware failure schedules a one-shot retry.
  void ApplyOpp(int opp);

  Simulator* sim_;
  CpuScheduler* sched_;
  CpuDevice* cpu_;
  GovernorConfig config_;
  std::unordered_map<int, int> context_opp_;
  std::unordered_map<PsboxId, int> context_of_box_;
  int next_context_ = 1;
  int current_context_ = kGlobalContext;
  uint64_t transition_retries_ = 0;
  EventId sample_event_ = kInvalidEventId;
  EventId retry_event_ = kInvalidEventId;
};

}  // namespace psbox

#endif  // SRC_KERNEL_CPUFREQ_GOVERNOR_H_
