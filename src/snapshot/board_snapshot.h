// Whole-shard checkpoint orchestration.
//
// A board shard — the event engine, the Board devices and rails, the Kernel
// and all its subsystems, and the PsboxManager — serialises into one
// snapshot stream between RunUntil calls. Pending events are records the
// engine understands (a target, a kind and two arguments), so the engine's
// section carries them whole with their (time, seq); its load puts them
// back under their original seqs, and every object that keeps a handle to
// one of its timers takes the handle back from the restored record, making
// the restored run bit-identical to the uninterrupted one.
//
// Restore targets FRESHLY constructed objects built from the identical
// configuration, which registers the same event targets under the same
// indices: the caller re-creates the snapshot's live apps and their tasks
// (under Kernel::BeginRestore, so nothing is scheduled; a fleet does it from
// the per-app recipes of its checkpoint, each under its recorded ids), then
// RestoreBoardShard replaces the engine's clock and records, overwrites all
// mutable state and checks it against the shard clock and the records'
// arguments against what was restored. On any failure the reader carries a
// descriptive error and the half-built objects must be discarded — never
// swap them into live use.

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

// Serialises the shard (engine, board, psbox manager, kernel) into |w|
// between RunUntil calls. Refuses (returns false with a descriptive
// |error|, writing nothing) while a record that a snapshot cannot carry is
// pending (an ad-hoc callback of CallbackTarget, a PowerEventMonitor's
// evaluation), naming its target.
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
