#include "src/hw/cpu_device.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/sim/simulator.h"

namespace psbox {

CpuDevice::CpuDevice(Simulator* sim, PowerRail* rail, CpuConfig config)
    : sim_(sim), rail_(rail), config_(std::move(config)) {
  PSBOX_CHECK_GT(config_.num_cores, 0);
  PSBOX_CHECK(!config_.opps.empty());
  cores_.resize(static_cast<size_t>(config_.num_cores));
  UpdateRail();
}

void CpuDevice::SetCoreState(CoreId core, bool active, double intensity, AppId app) {
  PSBOX_CHECK_GE(core, 0);
  PSBOX_CHECK_LT(core, config_.num_cores);
  auto& state = cores_[static_cast<size_t>(core)];
  state.active = active;
  state.intensity = active ? intensity : 0.0;
  state.app = active ? app : kNoApp;
  UpdateRail();
}

bool CpuDevice::SetOppIndex(int opp) {
  PSBOX_CHECK_GE(opp, 0);
  PSBOX_CHECK_LT(opp, num_opps());
  if (opp == opp_index_) {
    return true;  // no transition attempted
  }
  if (faults_ != nullptr && faults_->ShouldFailFreqTransition("cpu")) {
    // Regulator timeout: the cluster keeps running at the old OPP.
    ++failed_transitions_;
    return false;
  }
  opp_index_ = opp;
  UpdateRail();
  return true;
}

double CpuDevice::SpeedFactor() const {
  return current_opp().freq_mhz / config_.opps.back().freq_mhz;
}

bool CpuDevice::CoreActive(CoreId core) const {
  return cores_[static_cast<size_t>(core)].active;
}

AppId CpuDevice::CoreApp(CoreId core) const {
  return cores_[static_cast<size_t>(core)].app;
}

int CpuDevice::ActiveCoreCount() const {
  int n = 0;
  for (const auto& c : cores_) {
    if (c.active) {
      ++n;
    }
  }
  return n;
}

Watts CpuDevice::ModelPower() const {
  const CpuOpp& opp = current_opp();
  const double f_ghz = opp.freq_mhz / 1000.0;
  const double v2 = opp.volts * opp.volts;

  double core_sum = 0.0;
  int active = 0;
  for (const auto& c : cores_) {
    if (!c.active) {
      continue;
    }
    ++active;
    core_sum += config_.dyn_coeff * c.intensity * f_ghz * v2 +
                config_.leak_coeff * opp.volts;
  }
  if (active == 0) {
    return config_.idle_power;
  }
  // Spatial-concurrency entanglement: concurrently active cores contend on
  // shared resources, lowering combined switching activity below the sum of
  // solo runs. This is what defeats "double the one-instance power" (Fig 3a).
  const double denom = std::max(1, config_.num_cores - 1);
  const double share =
      1.0 - config_.share_discount * static_cast<double>(active - 1) / denom;
  return config_.idle_power + config_.uncore_active_power + core_sum * share;
}

void CpuDevice::UpdateRail() { rail_->SetPower(ModelPower()); }

}  // namespace psbox
