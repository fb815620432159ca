// Whole-shard checkpoint orchestration.
//
// A board shard — the Board devices and rails, the Kernel and all its
// subsystems, and the PsboxManager — serialises into one snapshot stream at
// a quiescent point (between RunUntil calls, when no 0-delay work is in
// flight). The event engine's closures are opaque, so pending events travel
// as typed (when, seq) descriptors that each owning subsystem re-arms
// through its normal scheduling path on restore; EventRearmer replays the
// re-arms in original insertion order, making the restored run bit-identical
// to the uninterrupted one.
//
// Restore targets FRESHLY constructed objects built from the identical
// configuration: the caller re-creates the snapshot's live apps and their
// tasks (under Kernel::BeginRestore, so nothing is scheduled; a fleet does
// it from the per-app recipes of its checkpoint, each under its recorded
// ids), then RestoreBoardShard overwrites all mutable state, checks it
// against the shard clock, resets the engine clock and replays the pending
// events. On any failure the reader carries a descriptive error and the
// half-built objects must be discarded — never swap them into live use.

#ifndef SRC_SNAPSHOT_BOARD_SNAPSHOT_H_
#define SRC_SNAPSHOT_BOARD_SNAPSHOT_H_

#include <functional>
#include <string>

namespace psbox {

class Board;
class Kernel;
class PsboxManager;
class SnapshotReader;
class SnapshotWriter;

// Serialises the shard (sim clock, board, psbox manager, kernel) into |w|.
// Must be called at a quiescent point; refuses (returns false with a
// descriptive |error|) when some pending event went unclaimed by the
// subsystem serialisers — snapshotting then would silently drop work.
bool SaveBoardShard(Board& board, Kernel& kernel, PsboxManager& manager,
                    SnapshotWriter* w, std::string* error);

// Restores a shard saved by SaveBoardShard into freshly built objects.
// |replay_setup| runs under restore mode and must re-create exactly the
// snapshot's live apps with their tasks, under the same ids (in creation
// order, or placed with Kernel::RestoreIdsAt); the kernel load fails on any
// app one side has and the other lacks. Sandboxes are replayed from the
// snapshot itself. Every restored step trace must ascend strictly and end
// at or before the shard clock. Returns false with a descriptive |error| on
// any validation failure, in which case the target objects are in an
// unspecified state and must be thrown away.
bool RestoreBoardShard(SnapshotReader& r, Board& board, Kernel& kernel,
                       PsboxManager& manager,
                       const std::function<void()>& replay_setup,
                       std::string* error);

}  // namespace psbox

#endif  // SRC_SNAPSHOT_BOARD_SNAPSHOT_H_
