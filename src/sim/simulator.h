// Discrete-event simulation core.
//
// A Simulator owns the simulated clock and the pending-event queue. A
// pending event is a record the engine understands: a target (one object
// registered with the engine that schedules work — a device, a kernel
// subsystem, the psbox manager), a kind byte the target defines, and two
// 64-bit arguments that name a core, task, box, app, frame or command. The
// simulator fires records in exact (time, insertion-order) order through
// the target's one OnEvent switch, so runs are deterministic down to the
// bit.
//
// The queue is an indexed binary min-heap of (time, seq, slot) entries, so
// its memory follows the events pending now. Records live in a flat slot
// array addressed by generation-tagged EventIds, and a flat per-slot array
// holds each pending event's heap position, which makes Cancel an O(log n)
// removal that leaves no residue and Reschedule an in-place re-key and
// sift.
//
// Because a record is data, a checkpoint carries it whole: the engine
// writes its pending records with their (time, seq) in one snapshot section
// and its load puts them back under their original seqs (DESIGN §10-§11).

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"

namespace psbox {

// Handle to a pending event: (slot+1) in the high 32 bits, the slot's odd
// generation in the low 32. The +1 bias keeps small raw integers (and 0 ==
// kInvalidEventId) from aliasing slot 0.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

// Index of a registered event target within its engine.
using TargetId = uint32_t;

// An object that receives event records. It registers once with its
// board's engine, at construction, so a board built from the same
// configuration registers the same targets under the same indices — which
// is how a restored record finds its target.
class EventTarget {
 public:
  // Runs a record of this target; |kind| is below its registered count.
  virtual void OnEvent(uint8_t kind, uint64_t a, uint64_t b) = 0;
  // Restore's argument check, run once every snapshot section has loaded:
  // empty when the arguments of a restored record name what exists (a core,
  // task, box, app, frame or command), otherwise why not. A kind takes no
  // arguments unless its target's override says otherwise, and both must
  // then be 0: a target that keeps one handle per kind takes it back from
  // the record whose first argument is 0.
  virtual std::string CheckEvent(uint8_t /*kind*/, uint64_t a,
                                 uint64_t b) const {
    return a == 0 && b == 0 ? std::string()
                            : "names " + std::to_string(a) + " and " +
                                  std::to_string(b) +
                                  ", but takes no arguments";
  }

 protected:
  EventTarget() = default;
  // The engine holds the target's address.
  EventTarget(const EventTarget&) = delete;
  EventTarget& operator=(const EventTarget&) = delete;
  ~EventTarget() = default;
};

class Simulator {
 public:
  // Engine-internals counters, exposed for tests and benches.
  struct EngineStats {
    uint64_t cancelled = 0;
    uint64_t rescheduled = 0;
  };

  // How a target's records are checked and checkpointed.
  struct TargetInfo {
    std::string name;  // names the target in errors
    uint8_t kinds = 1;  // its kinds run from 0 to kinds - 1
    // Bit k set: the target keeps a handle to its kind-k records (a tick, a
    // watchdog), so at most one may pend per first argument.
    uint64_t handles = 0;
    // False for a target whose records a snapshot cannot carry (the ad-hoc
    // callbacks of CallbackTarget, a PowerEventMonitor's evaluations);
    // SaveBoardShard refuses while one pends.
    bool checkpointable = true;
  };

  // A board registers about 20 targets: building one allocates the target
  // tables once.
  Simulator() {
    targets_.reserve(32);
    infos_.reserve(32);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Registers |target| under the next index; it must outlive every record
  // it has pending.
  TargetId AddTarget(EventTarget* target, TargetInfo info);

  // Schedules record (|target|, |kind|, |a|, |b|) to fire at absolute
  // simulated time |when| (>= Now()).
  EventId ScheduleAt(TimeNs when, TargetId target, uint8_t kind,
                     uint64_t a = 0, uint64_t b = 0) {
    PSBOX_CHECK_GE(when, now_);
    PSBOX_DCHECK(target < targets_.size() && kind < infos_[target].kinds);
    const uint32_t slot = Alloc(Record{a, b, target, kind});
    Push(when, next_seq_++, slot);
    return MakeEventId(slot, slots_[slot].generation);
  }

  // Schedules the record to fire |delay| after Now().
  EventId ScheduleAfter(DurationNs delay, TargetId target, uint8_t kind,
                        uint64_t a = 0, uint64_t b = 0) {
    PSBOX_CHECK_GE(delay, 0);
    return ScheduleAt(now_ + delay, target, kind, a, b);
  }

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a no-op; returns whether anything was cancelled.
  bool Cancel(EventId id);

  // Moves a pending event to fire at |when| (>= Now()) instead, keeping its
  // record in place — the re-arm path for watchdog pets and timer
  // extensions. Returns the event's new id (the old one is retired), or
  // kInvalidEventId if |id| was no longer pending. Consumes one insertion
  // sequence number, exactly like Cancel + ScheduleAt, so firing order is
  // identical to the cancel-and-recreate idiom.
  EventId Reschedule(EventId id, TimeNs when);

  // Runs events until the queue drains or the clock would pass |deadline|.
  // Events scheduled exactly at |deadline| do run. Returns the number of
  // events fired.
  size_t RunUntil(TimeNs deadline);

  // Runs until the queue is empty.
  size_t RunToCompletion();

  // True if an event with |id| is still pending. O(1): the slot's current
  // generation matches iff this exact handle is still live. A firing event
  // is no longer pending when its target runs.
  bool IsPending(EventId id) const {
    const uint32_t slot = SlotOf(id);
    return slot < slots_.size() && slots_[slot].generation == GenOf(id) &&
           (GenOf(id) & 1u) == 1u;
  }

  // The pending record of |target| with |kind| and first argument |a|, or
  // kInvalidEventId when none pends. A scan of the pending records (a board
  // holds about 16): for restore's handle rebinding and the checks that
  // ask whether a timer still names a task, box or app.
  EventId FindPending(TargetId target, uint8_t kind, uint64_t a) const;
  // Cancels every pending record of (|target|, |kind|, |a|).
  void CancelPending(TargetId target, uint8_t kind, uint64_t a);

  // Insertion-sequence counter: the seq the next schedule consumes.
  uint64_t next_seq() const { return next_seq_; }
  size_t pending_events() const { return heap_.size(); }
  uint64_t total_fired() const { return total_fired_; }
  const EngineStats& stats() const { return stats_; }

  // --- checkpoint/restore -------------------------------------------------
  // The engine's snapshot section: the clock, the fired count, the next seq
  // and every pending record with its (time, seq), in seq order. The load
  // replaces whatever is pending with the saved records under their
  // original seqs, so the restored engine's whole sequence space — and so
  // every later snapshot's bytes — equals the uninterrupted run's. It
  // refuses a record before the clock, a seq of 0, repeated or at or above
  // the next seq, an unregistered target or one that cannot be
  // checkpointed, a kind past the target's count and a second record behind
  // one handle.
  template <class Ar>
  void Serialize(Ar& ar);
  // After every other section has loaded: empty when each pending record's
  // target accepts its arguments (EventTarget::CheckEvent), otherwise the
  // first refusal, naming the target and the kind.
  std::string CheckEventArgs() const;
  // Empty, or the name of a target that cannot be checkpointed and has a
  // record pending.
  std::string UncheckpointablePending() const;

 private:
  struct Record {
    uint64_t a;
    uint64_t b;
    TargetId target;
    uint8_t kind;
  };
  struct Slot {
    Record record;
    // Odd while the slot holds a pending record; bumped on allocate and on
    // release, so any stale (slot, generation) handle compares unequal.
    uint32_t generation = 0;
    uint32_t next_free = 0;  // while free
  };
  // Heap entries carry the whole ordering key, so sifting never touches the
  // records; |slot| leads back to the record and the heap position.
  struct Entry {
    TimeNs when;
    uint64_t seq;  // tie-break: FIFO among same-time events
    uint32_t slot;
  };
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  static bool Before(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  static EventId MakeEventId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(slot) + 1) << 32 | gen;
  }
  static uint32_t SlotOf(EventId id) {
    return static_cast<uint32_t>((id >> 32) - 1);  // wraps to huge for id < 2^32
  }
  static uint32_t GenOf(EventId id) { return static_cast<uint32_t>(id); }

  // Takes a slot off the free list (or grows the array) for |record|; its
  // generation turns odd.
  uint32_t Alloc(const Record& record);
  // Ends the slot's pending record and returns the slot to the free list.
  void Release(uint32_t slot);
  // Queues |slot| under the key (when, seq).
  void Push(TimeNs when, uint64_t seq, uint32_t slot);
  // Puts |e| at heap index |i|, whose previous entry it replaces, and sifts
  // it up or down to where its key belongs.
  void Place(size_t i, const Entry& e);
  void SiftUp(size_t i, const Entry& e);
  void SiftDown(size_t i, const Entry& e);
  // Removes the entry at heap index |i|.
  void RemoveAt(size_t i);
  // Writes |e| at heap index |i| and records that index for its slot.
  void Put(size_t i, const Entry& e) {
    heap_[i] = e;
    heap_index_[e.slot] = static_cast<uint32_t>(i);
  }
  // Fires every event at or before |deadline| in (time, seq) order.
  size_t FireThrough(TimeNs deadline);
  // "target 'name' kind K", for errors.
  std::string Describe(const Record& r) const;

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t total_fired_ = 0;
  EngineStats stats_;

  // By target index: the target, and how its records are checked.
  std::vector<EventTarget*> targets_;
  std::vector<TargetInfo> infos_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  std::vector<Entry> heap_;
  // Per slot: the heap index of its entry while the slot is pending.
  std::vector<uint32_t> heap_index_;
};

}  // namespace psbox

#endif  // SRC_SIM_SIMULATOR_H_
