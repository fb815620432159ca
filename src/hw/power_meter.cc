#include "src/hw/power_meter.h"

#include <algorithm>

#include "src/base/check.h"

namespace psbox {

PowerMeter::PowerMeter(Rng rng, PowerMeterConfig config)
    : rng_(rng), config_(config) {
  PSBOX_CHECK_GT(config_.sample_period, 0);
}

std::vector<PowerSample> PowerMeter::SampleRail(const PowerRail& rail, TimeNs t0,
                                                TimeNs t1) {
  std::vector<PowerSample> samples;
  if (t1 <= t0) {
    return samples;
  }
  samples.reserve(static_cast<size_t>((t1 - t0) / config_.sample_period) + 1);
  for (TimeNs t = t0; t < t1; t += config_.sample_period) {
    if (faults_ != nullptr && faults_->MeterDroppedAt(t)) {
      ++samples_dropped_;
      continue;
    }
    const Watts truth = rail.PowerAt(t);
    const Watts noisy =
        std::max(0.0, truth + rng_.Gaussian(0.0, config_.noise_stddev));
    samples.push_back({t, noisy});
  }
  return samples;
}

Joules PowerMeter::MeasureEnergy(const PowerRail& rail, TimeNs t0, TimeNs t1) const {
  return rail.EnergyOver(t0, t1);
}

Joules PowerMeter::EnergyFromSamples(const std::vector<PowerSample>& samples,
                                     DurationNs sample_period) {
  Joules total = 0.0;
  for (const PowerSample& s : samples) {
    total += s.watts * ToSeconds(sample_period);
  }
  return total;
}

}  // namespace psbox
