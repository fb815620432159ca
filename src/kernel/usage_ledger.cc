#include "src/kernel/usage_ledger.h"

#include <algorithm>

#include "src/base/check.h"

namespace psbox {

void UsageLedger::Add(HwComponent hw, AppId app, TimeNs begin, TimeNs end,
                      double weight) {
  if (end <= begin) {
    return;
  }
  PSBOX_CHECK_GE(weight, 0.0);
  records_[static_cast<size_t>(hw)].push_back({app, begin, end, weight});
}

size_t UsageLedger::TrimBefore(TimeNs horizon) {
  size_t dropped = 0;
  for (auto& v : records_) {
    // Records land in completion order, but overlapping in-flight commands
    // make the end times only roughly sorted — filter rather than slice.
    auto it = std::remove_if(v.begin(), v.end(), [horizon](const UsageRecord& r) {
      return r.end <= horizon;
    });
    dropped += static_cast<size_t>(v.end() - it);
    v.erase(it, v.end());
  }
  trimmed_records_ += dropped;
  return dropped;
}

void UsageLedger::Clear() {
  for (auto& v : records_) {
    v.clear();
  }
}

}  // namespace psbox
