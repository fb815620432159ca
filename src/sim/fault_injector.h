// Seeded, deterministic fault injection.
//
// A FaultPlan declares what may go wrong during a run: probabilistic faults
// (an accelerator command hangs, a WiFi TX frame is lost on the air, a CPU
// frequency transition fails) and scheduled fault windows (WiFi link flaps,
// power-meter sample dropouts). The FaultInjector turns the plan into
// per-component decision hooks that the hardware models consult.
//
// Determinism: every probabilistic decision draws from a private RNG stream
// derived from the plan seed and the *scope* name (e.g. "gpu", "dsp",
// "wifi", "cpu"), so two runs with the same plan make bit-identical
// decisions, and adding a fault consumer in one component never perturbs the
// decisions seen by another. Scheduled windows are pure functions of time.
//
// The injector is passive — it never schedules events itself. Components ask
// at their own decision points (dispatch, frame completion, OPP transition,
// sample generation), which keeps the event order of a faultless run
// untouched: a default FaultPlan injects nothing.

#ifndef SRC_SIM_FAULT_INJECTOR_H_
#define SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"

namespace psbox {

// A half-open window [begin, end) of simulated time during which a scheduled
// fault is active.
struct FaultWindow {
  TimeNs begin = 0;
  TimeNs end = 0;
};

struct FaultPlan {
  uint64_t seed = 0xFA17;

  // --- Accelerator command faults (scoped per device: "gpu", "dsp") -------
  // Probability that a dispatched command wedges the engine: it occupies its
  // slot and never completes until the driver resets the device.
  double accel_hang_prob = 0.0;
  // Probability that a dispatched command suffers a latency spike (thermal
  // throttle / memory stall): its work is stretched by accel_latency_factor.
  double accel_latency_prob = 0.0;
  double accel_latency_factor = 4.0;

  // --- WiFi faults --------------------------------------------------------
  // Probability that a TX frame is corrupted on the air (consumes airtime,
  // never ACKed; the driver must retransmit).
  double wifi_tx_loss_prob = 0.0;
  // Link-flap windows: every TX frame completing inside one is lost.
  std::vector<FaultWindow> wifi_link_down;

  // --- Power-meter faults -------------------------------------------------
  // Sample-dropout windows: the DAQ returns no samples and rail readings are
  // unavailable; virtual meters must fall back to model-based estimation.
  std::vector<FaultWindow> meter_dropout;

  // --- CPU DVFS faults ----------------------------------------------------
  // Probability that an OPP transition fails (regulator timeout): the
  // hardware stays at the previous operating point and reports failure.
  double freq_fail_prob = 0.0;

  // --- Storage faults (scope "storage") -----------------------------------
  // Probability that a dispatched flash command wedges the channel: it holds
  // the bus busy (and the rail hot) and never completes until the driver
  // resets the controller.
  double storage_hang_prob = 0.0;

  // --- Snapshot faults (scope "snapshot") ---------------------------------
  // Probability that a checkpoint or evacuation snapshot suffers a torn
  // write (power cut mid-flush): the written bytes are truncated at an
  // arbitrary point and the CRC no longer matches. Consumers must reject the
  // snapshot and fall back (e.g. crash evacuation degrades to a drain).
  double snapshot_corrupt_prob = 0.0;

  // True when the plan can inject anything at all.
  bool Any() const {
    return accel_hang_prob > 0.0 || accel_latency_prob > 0.0 ||
           wifi_tx_loss_prob > 0.0 || !wifi_link_down.empty() ||
           !meter_dropout.empty() || freq_fail_prob > 0.0 ||
           storage_hang_prob > 0.0 || snapshot_corrupt_prob > 0.0;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- probabilistic decision hooks (consume the scope's RNG stream) ------
  bool ShouldHangCommand(const std::string& scope);
  // Returns the work multiplier for a freshly dispatched command; 1.0 means
  // no spike.
  double CommandLatencyFactor(const std::string& scope);
  bool ShouldDropTxFrame(TimeNs now);
  bool ShouldFailFreqTransition(const std::string& scope);
  bool ShouldHangStorageCommand();
  bool ShouldCorruptSnapshot();

  // --- scheduled-window queries (pure functions of time) ------------------
  bool LinkUpAt(TimeNs t) const;
  bool MeterDroppedAt(TimeNs t) const;
  // Total overlap of meter-dropout windows with [t0, t1).
  DurationNs MeterDroppedWithin(TimeNs t0, TimeNs t1) const;
  // Normalised (sorted, merged) dropout windows, for interval subtraction.
  const std::vector<FaultWindow>& meter_dropouts() const { return meter_dropout_; }

  struct Stats {
    uint64_t accel_hangs = 0;
    uint64_t accel_latency_spikes = 0;
    uint64_t wifi_frames_dropped = 0;
    uint64_t freq_transition_fails = 0;
    uint64_t storage_hangs = 0;
    uint64_t snapshots_corrupted = 0;
    uint64_t Total() const {
      return accel_hangs + accel_latency_spikes + wifi_frames_dropped +
             freq_transition_fails + storage_hangs + snapshots_corrupted;
    }
  };
  const Stats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }

  // Snapshot support: persists/overwrites the per-scope RNG stream states
  // and the fault counters (the plan itself is configuration, not state).
  template <class Ar>
  void Serialize(Ar& ar) {
    if (!ar.Section("faults")) {
      return;
    }
    ar.Map(streams_, 1, [&](std::string& scope, Rng& rng) {
      ar.Str(scope);
      rng.Serialize(ar);
    });
    ar.U64(stats_.accel_hangs);
    ar.U64(stats_.accel_latency_spikes);
    ar.U64(stats_.wifi_frames_dropped);
    ar.U64(stats_.freq_transition_fails);
    ar.U64(stats_.storage_hangs);
    ar.U64(stats_.snapshots_corrupted);
  }

 private:
  // Independent deterministic stream for |scope|, derived from the plan seed
  // and the scope name (not from call order).
  Rng& StreamFor(const std::string& scope);

  FaultPlan plan_;
  std::vector<FaultWindow> wifi_link_down_;
  std::vector<FaultWindow> meter_dropout_;
  std::map<std::string, Rng> streams_;
  Stats stats_;
};

}  // namespace psbox

#endif  // SRC_SIM_FAULT_INJECTOR_H_
