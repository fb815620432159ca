// App-defined power events (§8.2 "Software support").
//
// The paper proposes wrapping the psbox native interface under mature sensor
// APIs: apps subscribe to a "power" sensor and register callbacks for events
// like "high power", "frequent power spikes" or "power keeps increasing",
// with the predicates continuously evaluated over power samples by the OS or
// a sensor hub. PowerEventMonitor implements that layer over a psbox's
// virtual power meter: it periodically drains new samples and runs streaming
// predicate evaluators, firing callbacks as events are detected.

#ifndef SRC_PSBOX_POWER_EVENTS_H_
#define SRC_PSBOX_POWER_EVENTS_H_

#include <deque>
#include <functional>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/psbox/psbox_manager.h"

namespace psbox {

enum class PowerEventKind : uint8_t {
  // Power stayed above |threshold| for at least |min_duration|.
  kHighPower,
  // At least |spike_count| upward crossings of |threshold| within |window|.
  kFrequentSpikes,
  // Mean power rose across |rising_windows| consecutive evaluation periods.
  kRisingTrend,
};

struct PowerEventSpec {
  PowerEventKind kind = PowerEventKind::kHighPower;
  Watts threshold = 0.5;
  DurationNs min_duration = 10 * kMillisecond;  // kHighPower
  int spike_count = 3;                          // kFrequentSpikes
  DurationNs window = 100 * kMillisecond;       // kFrequentSpikes
  int rising_windows = 3;                       // kRisingTrend
};

struct PowerEvent {
  PowerEventKind kind;
  TimeNs when;
  // The triggering observation: sustained/mean power, or spike count.
  double value;
};

class PowerEventMonitor : public EventTarget {
 public:
  using Callback = std::function<void(const PowerEvent&)>;

  // Evaluates predicates over |box|'s virtual power meter every
  // |eval_period| (the sensor-hub processing cadence).
  PowerEventMonitor(Kernel* kernel, PsboxManager* manager, int box,
                    DurationNs eval_period = 20 * kMillisecond);
  PowerEventMonitor(const PowerEventMonitor&) = delete;
  PowerEventMonitor& operator=(const PowerEventMonitor&) = delete;

  // Registers a predicate; returns a listener id for Unregister.
  int Register(const PowerEventSpec& spec, Callback callback);
  void Unregister(int id);

  // Stops the periodic evaluation entirely.
  void Stop();

  uint64_t events_fired() const { return events_fired_; }
  uint64_t samples_processed() const { return samples_processed_; }

  // The periodic evaluation.
  void OnEvent(uint8_t kind, uint64_t a, uint64_t b) override;

 private:
  struct Listener {
    int id;
    PowerEventSpec spec;
    Callback callback;
    // kHighPower streaming state.
    TimeNs above_since = -1;
    bool excursion_reported = false;
    // kFrequentSpikes state.
    bool was_above = false;
    std::deque<TimeNs> spike_times;
    // kRisingTrend state.
    double last_mean = -1.0;
    int rises = 0;
  };

  void Feed(Listener& listener, const std::vector<PowerSample>& samples,
            double window_mean, TimeNs window_end);

  Kernel* kernel_;
  TargetId target_;
  PsboxManager* manager_;
  int box_;
  DurationNs eval_period_;
  TimeNs cursor_;
  std::vector<Listener> listeners_;
  int next_id_ = 1;
  bool stopped_ = false;
  uint64_t events_fired_ = 0;
  uint64_t samples_processed_ = 0;
};

}  // namespace psbox

#endif  // SRC_PSBOX_POWER_EVENTS_H_
