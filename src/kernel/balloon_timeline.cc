#include "src/kernel/balloon_timeline.h"

#include <fstream>

#include "src/base/csv.h"
#include "src/kernel/kernel.h"

namespace psbox {

void WriteBalloonTimelineCsv(const ResourceDomain& domain, std::ostream& out) {
  CsvWriter csv(out);
  csv.WriteHeader({"time_ms", "edge", "app", "psbox"});
  for (const BalloonEdge& edge : domain.timeline()) {
    csv.WriteRow({FormatDouble(ToMillis(edge.when), 4),
                  BalloonEdgeKindName(edge.kind), std::to_string(edge.app),
                  std::to_string(edge.box)});
  }
}

int ExportBalloonTimelines(Kernel& kernel, const std::string& dir,
                           const std::string& prefix) {
  int written = 0;
  for (size_t i = 0; i < kNumHwComponents; ++i) {
    const HwComponent hw = static_cast<HwComponent>(i);
    const ResourceDomain& domain = kernel.domain(hw);
    if (domain.timeline().empty()) {
      continue;  // never ballooned (idle, or the display or GPS)
    }
    std::ofstream out(dir + "/" + prefix + "balloons_" +
                      HwComponentName(hw) + ".csv");
    if (!out) {
      continue;  // unwritable directory; callers report the path they passed
    }
    WriteBalloonTimelineCsv(domain, out);
    ++written;
  }
  return written;
}

}  // namespace psbox
