#include "src/snapshot/board_snapshot.h"

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
  if (r.ok() && !rearmer.AllAtOrAfter(clock.now)) {
    r.Fail("snapshot has a pending event before the shard clock");
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
