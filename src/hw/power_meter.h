// In-situ power meter (DAQ model).
//
// Models the paper's measurement rig: an MCCDAQ USB1608G sampling four
// distinct power rails at up to 100 kHz, clock-synchronised with the target
// CPU so every sample is timestamped on the shared simulated clock (§5).
// Samples carry Gaussian measurement noise; exact (noise-free) energy queries
// are also provided for ground truth in tests.

#ifndef SRC_HW_POWER_METER_H_
#define SRC_HW_POWER_METER_H_

#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/hw/power_rail.h"
#include "src/sim/fault_injector.h"

namespace psbox {

struct PowerSample {
  TimeNs timestamp;
  Watts watts;
  // True when the value was synthesised by model-based estimation (the DAQ
  // was inside a dropout window) rather than measured.
  bool estimated = false;
};

struct PowerMeterConfig {
  DurationNs sample_period = 10 * kMicrosecond;  // 100 kHz
  Watts noise_stddev = 0.004;                    // ~4 mW per-sample noise
};

class PowerMeter {
 public:
  PowerMeter(Rng rng, PowerMeterConfig config);

  // Timestamped samples of |rail| over [t0, t1) at the configured rate.
  // Samples falling inside a meter-dropout fault window are omitted — the
  // DAQ simply has a gap there, as a glitching USB meter would.
  std::vector<PowerSample> SampleRail(const PowerRail& rail, TimeNs t0, TimeNs t1);

  // Optional fault hook; null (the default) means a glitch-free meter.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }
  uint64_t samples_dropped() const { return samples_dropped_; }

  // Noise-free energy over [t0, t1) (the DAQ integrates far above the
  // sampling rate; treated as exact).
  Joules MeasureEnergy(const PowerRail& rail, TimeNs t0, TimeNs t1) const;

  // Trapezoid-free summation of sampled power; what an app computing energy
  // from samples would get.
  static Joules EnergyFromSamples(const std::vector<PowerSample>& samples,
                                  DurationNs sample_period);

  const PowerMeterConfig& config() const { return config_; }

  // Snapshot support: the noise RNG stream position and the dropout counter.
  template <class Ar>
  void Serialize(Ar& ar) {
    rng_.Serialize(ar);
    ar.U64(samples_dropped_);
  }

 private:
  Rng rng_;
  PowerMeterConfig config_;
  FaultInjector* faults_ = nullptr;
  uint64_t samples_dropped_ = 0;
};

}  // namespace psbox

#endif  // SRC_HW_POWER_METER_H_
