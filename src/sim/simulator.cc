#include "src/sim/simulator.h"

#include <limits>

namespace psbox {

void Simulator::Push(TimeNs when, uint32_t slot) {
  if (slot >= heap_index_.size()) {
    heap_index_.resize(slab_.size());
  }
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Entry{when, next_seq_++, slot});
}

void Simulator::Place(size_t i, const Entry& e) {
  if (i > 0 && Before(e, heap_[(i - 1) / 2])) {
    SiftUp(i, e);
  } else {
    SiftDown(i, e);
  }
}

void Simulator::SiftUp(size_t i, const Entry& e) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(e, heap_[parent])) {
      break;
    }
    Put(i, heap_[parent]);
    i = parent;
  }
  Put(i, e);
}

void Simulator::SiftDown(size_t i, const Entry& e) {
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!Before(heap_[child], e)) {
      break;
    }
    Put(i, heap_[child]);
    i = child;
  }
  Put(i, e);
}

void Simulator::RemoveAt(size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    Place(i, last);
  }
}

bool Simulator::Cancel(EventId id) {
  if (!IsPending(id)) {
    return false;
  }
  const uint32_t slot = SlotOf(id);
  RemoveAt(heap_index_[slot]);
  // Freeing destroys the closure, releasing its captures eagerly.
  slab_.Free(slot);
  ++stats_.cancelled;
  return true;
}

EventId Simulator::Reschedule(EventId id, TimeNs when) {
  PSBOX_CHECK_GE(when, now_);
  if (!IsPending(id)) {
    return kInvalidEventId;
  }
  const uint32_t slot = SlotOf(id);
  EventSlab::Slot& s = slab_[slot];
  // Retire the old handle without freeing the slot: bumping by 2 keeps the
  // generation odd (still pending). The closure never moves; the entry is
  // re-keyed where it sits.
  s.generation += 2;
  ++stats_.rescheduled;
  Place(heap_index_[slot], Entry{when, next_seq_++, slot});
  return MakeEventId(slot, s.generation);
}

size_t Simulator::FireThrough(TimeNs deadline) {
  size_t fired = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    const Entry top = heap_.front();
    RemoveAt(0);
    PSBOX_DCHECK(top.when >= now_);
    now_ = top.when;
    ++total_fired_;
    ++fired;
    // The event stops being pending before its callback runs, but the
    // closure runs where it is: the slot is off the free list, so schedules
    // made by the callback land elsewhere, and is recycled afterwards.
    slab_.Retire(top.slot);
    slab_[top.slot].closure.Invoke();
    slab_.Recycle(top.slot);
  }
  return fired;
}

size_t Simulator::RunUntil(TimeNs deadline) {
  const size_t fired = FireThrough(deadline);
  if (now_ < deadline) {
    now_ = deadline;
  }
  return fired;
}

size_t Simulator::RunToCompletion() {
  return FireThrough(std::numeric_limits<TimeNs>::max());
}

void Simulator::ResetForRestore(TimeNs now, uint64_t total_fired) {
  // Free every pending slot (destroying captured state) so the restored
  // subsystems start from an empty queue. Slot generations keep advancing,
  // which is all stale EventIds held by those subsystems need.
  for (const Entry& e : heap_) {
    slab_.Free(e.slot);
  }
  heap_.clear();
  next_seq_ = 1;
  now_ = now;
  total_fired_ = total_fired;
}

}  // namespace psbox
