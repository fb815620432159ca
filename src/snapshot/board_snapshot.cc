#include "src/snapshot/board_snapshot.h"

#include <string>
#include <vector>

#include "src/base/step_trace.h"
#include "src/hw/board.h"
#include "src/kernel/kernel.h"
#include "src/psbox/psbox_manager.h"
#include "src/snapshot/event_rearmer.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

namespace {

// The engine clock a shard resumes from.
struct ShardClock {
  TimeNs now = 0;
  uint64_t total_fired = 0;
  uint64_t next_seq = 1;
};

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

template <class Ar>
void SerializeShard(Ar& ar, ShardClock& clock, Board& board, Kernel& kernel,
                    PsboxManager& manager) {
  if (!ar.Section("shard")) {
    return;
  }
  ar.I64(clock.now);
  ar.U64(clock.total_fired);
  ar.U64(clock.next_seq);
  board.Serialize(ar);
  manager.Serialize(ar);  // restore replays CreateBox, so groups exist below
  kernel.Serialize(ar);
}

}  // namespace

bool SaveBoardShard(Board& board, Kernel& kernel, PsboxManager& manager,
                    SnapshotWriter* w, std::string* error) {
  w->ResetClaimedEvents();
  ShardClock clock{board.sim().Now(), board.sim().total_fired(),
                   board.sim().next_seq()};
  w->set_sim(&board.sim());
  SerializeShard(*w, clock, board, kernel, manager);
  w->set_sim(nullptr);
  // Pending-event census: every event the engine still holds must have been
  // claimed by exactly one subsystem serialiser above, or the restored run
  // would silently lose (or invent) work. A mismatch means the shard is not
  // at a quiescent point, or a subsystem grew an untracked timer.
  if (w->claimed_events() != board.sim().pending_events()) {
    if (error != nullptr) {
      *error = "snapshot refused: " +
               std::to_string(board.sim().pending_events()) +
               " events pending but " + std::to_string(w->claimed_events()) +
               " claimed by serialisers (shard not quiescent or a timer is "
               "untracked)";
    }
    return false;
  }
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
  EventRearmer rearmer;
  ShardClock clock;
  r.set_rearmer(&rearmer);
  SerializeShard(r, clock, board, kernel, manager);
  r.set_rearmer(nullptr);
  if (r.ok() && clock.now < 0) {
    r.Fail("snapshot shard clock is negative");
  }
  std::string rearm_error;
  if (r.ok() && !rearmer.Check(clock.now, clock.next_seq, &rearm_error)) {
    r.Fail(rearm_error);
  }
  if (r.ok()) {
    CheckStepTraces(r, board, kernel, clock.now);
  }
  if (!r.ok()) {
    kernel.EndRestore();
    if (error != nullptr) {
      *error = r.error();
    }
    return false;
  }
  board.sim().ResetForRestore(clock.now, clock.total_fired);
  // Re-arm pending events under their original seqs, then land the counter
  // on the checkpointed value: the engine's whole sequence space — not just
  // relative order — survives the restore, so later snapshots of a restored
  // world are byte-identical to the uninterrupted run's.
  rearmer.Replay(board.sim());
  board.sim().SetNextSeqForRestore(clock.next_seq);
  kernel.EndRestore();
  return true;
}

}  // namespace psbox
