// Discrete-event simulation core.
//
// A Simulator owns the simulated clock and the pending-event queue. All
// hardware and kernel models are callback-driven: they schedule events, and
// the simulator fires them in exact (time, insertion-order) order so that
// runs are deterministic down to the bit.
//
// The queue is an indexed binary min-heap of (time, seq, slot) entries, so
// its memory follows the events pending now. Closures live in an EventSlab
// (see event_slab.h): small-buffer slots addressed by generation-tagged
// EventIds. A flat per-slot array holds each pending event's heap position,
// which makes Cancel an O(log n) removal that leaves no residue, Reschedule
// an in-place re-key and sift, and PendingInfo a direct read of the entry.
// A fired closure runs in its own slot (slab chunks never move), which is
// recycled once the callback returns.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/time.h"
#include "src/sim/event_slab.h"

namespace psbox {

// Handle to a pending event: (slot+1) in the high 32 bits, the slot's odd
// generation in the low 32. The +1 bias keeps small raw integers (and 0 ==
// kInvalidEventId) from aliasing slot 0.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  // Engine-internals counters, exposed for tests and benches.
  struct EngineStats {
    uint64_t cancelled = 0;
    uint64_t rescheduled = 0;
    uint64_t closure_heap_allocs = 0;  // closures too big for inline slots
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules |fn| to run at absolute simulated time |when| (>= Now()).
  template <typename Fn>
  EventId ScheduleAt(TimeNs when, Fn&& fn) {
    PSBOX_CHECK_GE(when, now_);
    const uint32_t slot = slab_.Alloc();
    if (!slab_[slot].closure.Emplace(std::forward<Fn>(fn))) {
      ++stats_.closure_heap_allocs;
    }
    Push(when, slot);
    return MakeEventId(slot, slab_[slot].generation);
  }

  // Schedules |fn| to run |delay| after Now().
  template <typename Fn>
  EventId ScheduleAfter(DurationNs delay, Fn&& fn) {
    PSBOX_CHECK_GE(delay, 0);
    return ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a no-op; returns whether anything was cancelled.
  bool Cancel(EventId id);

  // Moves a pending event to fire at |when| (>= Now()) instead, keeping its
  // closure in place — the allocation-free re-arm path for watchdog pets and
  // timer extensions. Returns the event's new id (the old one is retired),
  // or kInvalidEventId if |id| was no longer pending. Consumes one insertion
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
  // generation matches iff this exact handle is still live.
  bool IsPending(EventId id) const {
    const uint32_t slot = SlotOf(id);
    return slot < slab_.size() && slab_[slot].generation == GenOf(id) &&
           (GenOf(id) & 1u) == 1u;
  }

  // Ordering key of a pending event: its firing time and the insertion
  // sequence number that breaks same-time ties. Checkpointing persists this
  // so restore can replay re-arms in the original firing order.
  struct PendingEventInfo {
    TimeNs when = 0;
    uint64_t seq = 0;
  };
  PendingEventInfo PendingInfo(EventId id) const {
    PSBOX_CHECK(IsPending(id));
    const Entry& e = heap_[heap_index_[SlotOf(id)]];
    return PendingEventInfo{e.when, e.seq};
  }

  // Snapshot-restore support: discards every pending event and resets the
  // clock and sequence space so the restored subsystems can re-arm their
  // pending work from scratch. Only valid at a quiescent point (between
  // RunUntil calls); the caller is responsible for re-arming in original
  // seq order so that same-time ties break as in the uninterrupted run.
  void ResetForRestore(TimeNs now, uint64_t total_fired);

  // Insertion-sequence counter, exposed for checkpointing: persisting it and
  // re-arming every pending event under its original seq (see
  // SetNextSeqForRestore) makes a restored engine's sequence space — and
  // hence every later snapshot's bytes — identical to the uninterrupted
  // run's.
  uint64_t next_seq() const { return next_seq_; }
  // Restore-only: forces the seq the next ScheduleAt will consume. Called by
  // EventRearmer::Replay before each re-arm, and once more afterwards to
  // land the counter on the checkpointed value.
  void SetNextSeqForRestore(uint64_t seq) { next_seq_ = seq; }

  size_t pending_events() const { return heap_.size(); }
  uint64_t total_fired() const { return total_fired_; }
  const EngineStats& stats() const { return stats_; }

 private:
  // Heap entries carry the whole ordering key, so sifting never touches the
  // slab; |slot| leads back to the closure and the heap position.
  struct Entry {
    TimeNs when;
    uint64_t seq;  // tie-break: FIFO among same-time events
    uint32_t slot;
  };
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

  // Queues |slot| under the key (when, next_seq_++).
  void Push(TimeNs when, uint32_t slot);
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

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t total_fired_ = 0;
  EngineStats stats_;

  EventSlab slab_;
  std::vector<Entry> heap_;
  // Per slab slot: the heap index of its entry while the slot is pending.
  std::vector<uint32_t> heap_index_;
};

}  // namespace psbox

#endif  // SRC_SIM_SIMULATOR_H_
