// Balloon timeline export: every ResourceDomain records the edges of its
// five-phase protocol (request → serve → release → finish, plus the cancel
// and abort exits) as it runs; this helper dumps one CSV per domain so that
// balloon lifecycles can be laid next to the rail traces that explain them.
//
// Format (one file per domain, <dir>/<prefix>balloons_<domain>.csv):
//   time_ms,edge,app,psbox
// Edges appear in simulation order; a lifecycle is the run of rows sharing
// one psbox id between a request and its finish/cancel/abort.

#ifndef SRC_KERNEL_BALLOON_TIMELINE_H_
#define SRC_KERNEL_BALLOON_TIMELINE_H_

#include <ostream>
#include <string>

#include "src/kernel/resource_domain.h"

namespace psbox {

class Kernel;

// Writes one domain's recorded edges as CSV rows to |out|.
void WriteBalloonTimelineCsv(const ResourceDomain& domain, std::ostream& out);

// Writes <prefix>balloons_<domain>.csv under |dir| for every registered
// domain that recorded at least one edge (the display and GPS never do).
// Returns the number of files written. |prefix| is typically empty or a
// board tag like "board0_" so fleet shards do not collide.
int ExportBalloonTimelines(Kernel& kernel, const std::string& dir,
                           const std::string& prefix = "");

}  // namespace psbox

#endif  // SRC_KERNEL_BALLOON_TIMELINE_H_
