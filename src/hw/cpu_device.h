// Multicore CPU model with a shared power rail and cluster-wide DVFS.
//
// Modelled after the dual Cortex-A15 cluster of the paper's AM57EVM: all
// cores share one voltage rail, so rail power can only be metered as a whole
// (§2.3 "spatial concurrency in hardware"). The power model deliberately
// reproduces the paper's three entanglement causes:
//
//   * spatial concurrency — per-core dynamic power is discounted when several
//     cores are active (shared uncore / rail interaction), so two instances
//     draw less than 2x one instance (Fig 3a);
//   * lingering power state — the operating point (frequency/voltage) is set
//     by a governor and persists across workloads (Fig 3c);
//   * a shared "uncore" block that powers on whenever any core is active and
//     is unattributable to a single core.

#ifndef SRC_HW_CPU_DEVICE_H_
#define SRC_HW_CPU_DEVICE_H_

#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/hw/power_rail.h"
#include "src/sim/fault_injector.h"

namespace psbox {

// One operating performance point of the cluster.
struct CpuOpp {
  double freq_mhz;
  double volts;
};

struct CpuConfig {
  int num_cores = 2;
  std::vector<CpuOpp> opps = {
      {600, 0.95}, {800, 1.00}, {1000, 1.06}, {1200, 1.15}, {1500, 1.25}};
  // Rail floor with all cores in WFI.
  Watts idle_power = 0.30;
  // Shared uncore (interconnect, L2 control) while any core is active.
  Watts uncore_active_power = 0.30;
  // Dynamic power coefficient: P_dyn = k * f_ghz * v^2 per core at
  // intensity 1.0.
  double dyn_coeff = 0.95;
  // Active leakage per core, proportional to voltage.
  double leak_coeff = 0.08;
  // Multiplicative discount applied to summed per-core power when k cores are
  // active: factor = 1 - share_discount * (k - 1) / max(1, cores - 1).
  double share_discount = 0.10;
};

class CpuDevice {
 public:
  CpuDevice(Simulator* sim, PowerRail* rail, CpuConfig config);

  int num_cores() const { return config_.num_cores; }
  int num_opps() const { return static_cast<int>(config_.opps.size()); }

  // Marks |core| as running work of |app| at the given |intensity| (relative
  // switching activity, ~0.5 for memory-bound up to ~1.3 for vector-heavy),
  // or idle when |active| is false. Updates the rail.
  void SetCoreState(CoreId core, bool active, double intensity, AppId app);

  // Cluster-wide operating point (index into the OPP table). The lingering
  // power state a psbox must virtualise. Returns false when the transition
  // failed (regulator timeout fault): the cluster stays at the previous OPP
  // and the governor is expected to retry.
  bool SetOppIndex(int opp);
  int opp_index() const { return opp_index_; }

  // Optional fault hook; null (the default) means transitions never fail.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  uint64_t failed_transitions() const { return failed_transitions_; }
  const CpuOpp& current_opp() const { return config_.opps[static_cast<size_t>(opp_index_)]; }

  // Relative performance of the current OPP vs the fastest one, in (0, 1].
  // A compute burst of nominal duration d takes d / SpeedFactor().
  double SpeedFactor() const;

  bool CoreActive(CoreId core) const;
  AppId CoreApp(CoreId core) const;
  int ActiveCoreCount() const;

  // Instantaneous rail power implied by the current state; exposed for tests.
  Watts ModelPower() const;

  const CpuConfig& config() const { return config_; }
  PowerRail* rail() { return rail_; }

  // Snapshot support: per-core activity, the lingering OPP index, and the
  // failed-transition counter (the OPP table itself is configuration).
  template <class Ar>
  void Serialize(Ar& ar) {
    ar.Fixed(cores_, 3, "cpu core count mismatch between snapshot and config",
             [&](CoreState& c) {
               ar.Bool(c.active);
               ar.F64(c.intensity);
               ar.I64(c.app);
             });
    ar.U32(opp_index_);
    if constexpr (Ar::kLoading) {
      if (ar.ok() && (opp_index_ < 0 || opp_index_ >= num_opps())) {
        ar.Fail("cpu opp index out of range in snapshot");
      }
    }
    ar.U64(failed_transitions_);
  }

 private:
  struct CoreState {
    bool active = false;
    double intensity = 0.0;
    AppId app = kNoApp;
  };

  void UpdateRail();

  Simulator* sim_;
  PowerRail* rail_;
  CpuConfig config_;
  std::vector<CoreState> cores_;
  int opp_index_ = 0;
  FaultInjector* faults_ = nullptr;
  uint64_t failed_transitions_ = 0;
};

}  // namespace psbox

#endif  // SRC_HW_CPU_DEVICE_H_
