// Per-app hardware usage ledger.
//
// The kernel logs which app occupied which hardware and when — the raw
// input of the *prior-approach* accounting mechanisms (accounting/) that the
// paper compares psbox against (§6.1). Usage is tracked at the lowest
// software level and at fine granularity, deliberately giving the baseline
// its best shot (the paper tracks at 10 µs, 10x finer than prior work).
// Records may overlap in time (in-flight accelerator commands of different
// apps), which is exactly the entanglement accounting cannot undo.

#ifndef SRC_KERNEL_USAGE_LEDGER_H_
#define SRC_KERNEL_USAGE_LEDGER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/time.h"
#include "src/base/types.h"

namespace psbox {

struct UsageRecord {
  AppId app;
  TimeNs begin;
  TimeNs end;
  // Relative capacity of the component occupied (e.g. 1 core of N); the
  // splitter weighs shares by usage_time x weight.
  double weight;
};

class UsageLedger {
 public:
  void Add(HwComponent hw, AppId app, TimeNs begin, TimeNs end, double weight = 1.0);

  const std::vector<UsageRecord>& records(HwComponent hw) const {
    return records_[static_cast<size_t>(hw)];
  }

  // Drops records that ended at or before |horizon| (telemetry retention;
  // the accounting baselines then only resolve windows past the horizon).
  // Returns the number of records dropped.
  size_t TrimBefore(TimeNs horizon);
  // Records dropped by TrimBefore over the ledger's lifetime.
  uint64_t trimmed_records() const { return trimmed_records_; }

  void Clear();

  // Snapshot support: persists every retained record per component.
  template <class Ar>
  void Serialize(Ar& ar) {
    if (!ar.Section("ledger")) {
      return;
    }
    for (auto& v : records_) {
      ar.Seq(v, 32, [&](UsageRecord& rec) {
        ar.I64(rec.app);
        ar.I64(rec.begin);
        ar.I64(rec.end);
        ar.F64(rec.weight);
      });
    }
    ar.U64(trimmed_records_);
  }

 private:
  std::array<std::vector<UsageRecord>, kNumHwComponents> records_;
  uint64_t trimmed_records_ = 0;
};

}  // namespace psbox

#endif  // SRC_KERNEL_USAGE_LEDGER_H_
