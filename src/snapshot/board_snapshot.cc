#include "src/snapshot/board_snapshot.h"

#include <string>
#include <vector>

#include "src/base/step_trace.h"
#include "src/hw/board.h"
#include "src/kernel/kernel.h"
#include "src/psbox/psbox_manager.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

namespace {

// A restored step trace must ascend strictly and end at or before the
// shard clock: the next StepTrace::Set would abort on a step behind it.
void CheckStepTrace(SnapshotReader& r, const StepTrace& trace, TimeNs now,
                    const std::string& what) {
  const std::vector<StepTrace::Step>& steps = trace.steps();
  for (size_t i = 1; i < steps.size() && r.ok(); ++i) {
    if (steps[i].time <= steps[i - 1].time) {
      r.Fail("snapshot " + what + " step trace times do not strictly ascend");
    }
  }
  if (r.ok() && !steps.empty() && steps.back().time > now) {
    r.Fail("snapshot " + what + " step trace ends at " +
           std::to_string(steps.back().time) + ", after the shard clock " +
           std::to_string(now));
  }
}

// The shard's step traces: the seven rails, each core's schedule trace and
// the GPS operating trace.
void CheckStepTraces(SnapshotReader& r, Board& board, Kernel& kernel,
                     TimeNs now) {
  for (size_t c = 0; c < kNumHwComponents; ++c) {
    const auto hw = static_cast<HwComponent>(c);
    CheckStepTrace(r, board.RailFor(hw).trace(), now,
                   std::string(HwComponentName(hw)) + " rail");
  }
  for (int core = 0; core < kernel.scheduler().num_cores(); ++core) {
    CheckStepTrace(r, kernel.scheduler().ScheduleTrace(core), now,
                   "core " + std::to_string(core) + " schedule");
  }
  CheckStepTrace(r, board.gps().operating_trace(), now, "GPS operating");
}

// The engine goes first: the objects after it take their timer handles
// back from its restored records.
template <class Ar>
void SerializeShard(Ar& ar, Board& board, Kernel& kernel,
                    PsboxManager& manager) {
  if (!ar.Section("shard")) {
    return;
  }
  board.sim().Serialize(ar);
  board.Serialize(ar);
  manager.Serialize(ar);  // restore replays CreateBox, so groups exist below
  kernel.Serialize(ar);
}

}  // namespace

bool SaveBoardShard(Board& board, Kernel& kernel, PsboxManager& manager,
                    SnapshotWriter* w, std::string* error) {
  const std::string target = board.sim().UncheckpointablePending();
  if (!target.empty()) {
    if (error != nullptr) {
      *error = "snapshot refused: an event of target '" + target +
               "' is pending, and a snapshot cannot carry it";
    }
    return false;
  }
  SerializeShard(*w, board, kernel, manager);
  return true;
}

bool RestoreBoardShard(SnapshotReader& r, Board& board, Kernel& kernel,
                       PsboxManager& manager,
                       const std::function<void()>& replay_setup,
                       std::string* error) {
  kernel.BeginRestore();
  if (replay_setup) {
    replay_setup();
  }
  SerializeShard(r, board, kernel, manager);
  if (r.ok()) {
    const std::string bad = board.sim().CheckEventArgs();
    if (!bad.empty()) {
      r.Fail(bad);
    }
  }
  if (r.ok()) {
    CheckStepTraces(r, board, kernel, board.sim().Now());
  }
  kernel.EndRestore();
  if (!r.ok()) {
    if (error != nullptr) {
      *error = r.error();
    }
    return false;
  }
  return true;
}

}  // namespace psbox
