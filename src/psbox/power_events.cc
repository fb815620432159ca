#include "src/psbox/power_events.h"

#include <algorithm>

#include "src/base/check.h"

namespace psbox {

PowerEventMonitor::PowerEventMonitor(Kernel* kernel, PsboxManager* manager, int box,
                                     DurationNs eval_period)
    : kernel_(kernel),
      // Its listeners are callbacks a snapshot cannot hold.
      target_(kernel->sim().AddTarget(this,
                                      {"power event monitor", 1, 0, false})),
      manager_(manager),
      box_(box),
      eval_period_(eval_period),
      cursor_(kernel->Now()) {
  PSBOX_CHECK_GT(eval_period_, 0);
  kernel_->sim().ScheduleAfter(eval_period_, target_, 0);
}

int PowerEventMonitor::Register(const PowerEventSpec& spec, Callback callback) {
  Listener listener;
  listener.id = next_id_++;
  listener.spec = spec;
  listener.callback = std::move(callback);
  listeners_.push_back(std::move(listener));
  return listeners_.back().id;
}

void PowerEventMonitor::Unregister(int id) {
  listeners_.erase(std::remove_if(listeners_.begin(), listeners_.end(),
                                  [id](const Listener& l) { return l.id == id; }),
                   listeners_.end());
}

void PowerEventMonitor::Stop() { stopped_ = true; }

void PowerEventMonitor::OnEvent(uint8_t /*kind*/, uint64_t /*a*/,
                                uint64_t /*b*/) {
  if (stopped_) {
    return;
  }
  const TimeNs now = kernel_->Now();
  const PowerMeterConfig& meter = kernel_->board().config().meter;
  // Pull the new samples since the last evaluation from the virtual power
  // meter (the monitor evaluates on the OS/sensor-hub side, so it reads the
  // sandbox's meter through the manager rather than through psbox_sample()).
  const std::vector<PowerSample> samples = manager_->ObservedSamples(
      box_, cursor_, now, meter.sample_period, 0.0, nullptr);
  cursor_ = now;
  samples_processed_ += samples.size();

  double window_mean = 0.0;
  for (const PowerSample& s : samples) {
    window_mean += s.watts;
  }
  if (!samples.empty()) {
    window_mean /= static_cast<double>(samples.size());
  }
  for (Listener& listener : listeners_) {
    Feed(listener, samples, window_mean, now);
  }
  kernel_->sim().ScheduleAfter(eval_period_, target_, 0);
}

void PowerEventMonitor::Feed(Listener& listener,
                             const std::vector<PowerSample>& samples,
                             double window_mean, TimeNs window_end) {
  const PowerEventSpec& spec = listener.spec;
  auto fire = [&](TimeNs when, double value) {
    ++events_fired_;
    if (listener.callback) {
      listener.callback(PowerEvent{spec.kind, when, value});
    }
  };
  switch (spec.kind) {
    case PowerEventKind::kHighPower: {
      for (const PowerSample& s : samples) {
        if (s.watts >= spec.threshold) {
          if (listener.above_since < 0) {
            listener.above_since = s.timestamp;
          }
          if (!listener.excursion_reported &&
              s.timestamp - listener.above_since >= spec.min_duration) {
            listener.excursion_reported = true;
            fire(s.timestamp, s.watts);
          }
        } else {
          listener.above_since = -1;
          listener.excursion_reported = false;
        }
      }
      break;
    }
    case PowerEventKind::kFrequentSpikes: {
      for (const PowerSample& s : samples) {
        const bool above = s.watts >= spec.threshold;
        if (above && !listener.was_above) {
          listener.spike_times.push_back(s.timestamp);
          while (!listener.spike_times.empty() &&
                 s.timestamp - listener.spike_times.front() > spec.window) {
            listener.spike_times.pop_front();
          }
          if (static_cast<int>(listener.spike_times.size()) >= spec.spike_count) {
            fire(s.timestamp, static_cast<double>(listener.spike_times.size()));
            listener.spike_times.clear();
          }
        }
        listener.was_above = above;
      }
      break;
    }
    case PowerEventKind::kRisingTrend: {
      if (samples.empty()) {
        break;
      }
      if (listener.last_mean >= 0.0 && window_mean > listener.last_mean * 1.01) {
        ++listener.rises;
        if (listener.rises >= spec.rising_windows) {
          fire(window_end, window_mean);
          listener.rises = 0;
        }
      } else {
        listener.rises = 0;
      }
      listener.last_mean = window_mean;
      break;
    }
  }
}

}  // namespace psbox
