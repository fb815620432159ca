#include "src/sim/fault_injector.h"

#include <algorithm>

#include "src/base/check.h"

namespace psbox {
namespace {

// FNV-1a over the scope name: per-scope stream seeds depend only on the plan
// seed and the name, never on first-use order.
uint64_t HashScope(const std::string& scope) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : scope) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<FaultWindow> Normalize(std::vector<FaultWindow> windows) {
  std::vector<FaultWindow> valid;
  for (const FaultWindow& w : windows) {
    if (w.end > w.begin) {
      valid.push_back(w);
    }
  }
  std::sort(valid.begin(), valid.end(),
            [](const FaultWindow& a, const FaultWindow& b) { return a.begin < b.begin; });
  std::vector<FaultWindow> merged;
  for (const FaultWindow& w : valid) {
    if (!merged.empty() && w.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, w.end);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

bool Covers(const std::vector<FaultWindow>& windows, TimeNs t) {
  for (const FaultWindow& w : windows) {
    if (t >= w.end) {
      continue;
    }
    return t >= w.begin;
  }
  return false;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      wifi_link_down_(Normalize(plan_.wifi_link_down)),
      meter_dropout_(Normalize(plan_.meter_dropout)) {
  PSBOX_CHECK_GE(plan_.accel_hang_prob, 0.0);
  PSBOX_CHECK_GE(plan_.accel_latency_prob, 0.0);
  PSBOX_CHECK_GE(plan_.wifi_tx_loss_prob, 0.0);
  PSBOX_CHECK_GE(plan_.freq_fail_prob, 0.0);
  PSBOX_CHECK_GE(plan_.accel_latency_factor, 1.0);
  PSBOX_CHECK_GE(plan_.storage_hang_prob, 0.0);
}

Rng& FaultInjector::StreamFor(const std::string& scope) {
  auto it = streams_.find(scope);
  if (it == streams_.end()) {
    it = streams_.emplace(scope, Rng(plan_.seed ^ HashScope(scope))).first;
  }
  return it->second;
}

bool FaultInjector::ShouldHangCommand(const std::string& scope) {
  if (plan_.accel_hang_prob <= 0.0) {
    return false;
  }
  if (!StreamFor(scope).Bernoulli(plan_.accel_hang_prob)) {
    return false;
  }
  ++stats_.accel_hangs;
  return true;
}

double FaultInjector::CommandLatencyFactor(const std::string& scope) {
  if (plan_.accel_latency_prob <= 0.0) {
    return 1.0;
  }
  if (!StreamFor(scope + "/latency").Bernoulli(plan_.accel_latency_prob)) {
    return 1.0;
  }
  ++stats_.accel_latency_spikes;
  return plan_.accel_latency_factor;
}

bool FaultInjector::ShouldDropTxFrame(TimeNs now) {
  if (!LinkUpAt(now)) {
    ++stats_.wifi_frames_dropped;
    return true;
  }
  if (plan_.wifi_tx_loss_prob <= 0.0) {
    return false;
  }
  if (!StreamFor("wifi").Bernoulli(plan_.wifi_tx_loss_prob)) {
    return false;
  }
  ++stats_.wifi_frames_dropped;
  return true;
}

bool FaultInjector::ShouldFailFreqTransition(const std::string& scope) {
  if (plan_.freq_fail_prob <= 0.0) {
    return false;
  }
  if (!StreamFor(scope + "/freq").Bernoulli(plan_.freq_fail_prob)) {
    return false;
  }
  ++stats_.freq_transition_fails;
  return true;
}

bool FaultInjector::ShouldHangStorageCommand() {
  if (plan_.storage_hang_prob <= 0.0) {
    return false;
  }
  if (!StreamFor("storage").Bernoulli(plan_.storage_hang_prob)) {
    return false;
  }
  ++stats_.storage_hangs;
  return true;
}

bool FaultInjector::ShouldCorruptSnapshot() {
  if (plan_.snapshot_corrupt_prob <= 0.0) {
    return false;
  }
  if (!StreamFor("snapshot").Bernoulli(plan_.snapshot_corrupt_prob)) {
    return false;
  }
  ++stats_.snapshots_corrupted;
  return true;
}

bool FaultInjector::LinkUpAt(TimeNs t) const { return !Covers(wifi_link_down_, t); }

bool FaultInjector::MeterDroppedAt(TimeNs t) const { return Covers(meter_dropout_, t); }

DurationNs FaultInjector::MeterDroppedWithin(TimeNs t0, TimeNs t1) const {
  DurationNs covered = 0;
  for (const FaultWindow& w : meter_dropout_) {
    const TimeNs b = std::max(w.begin, t0);
    const TimeNs e = std::min(w.end, t1);
    if (e > b) {
      covered += e - b;
    }
  }
  return covered;
}

}  // namespace psbox
