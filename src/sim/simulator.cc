#include "src/sim/simulator.h"

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>

#include "src/snapshot/snapshot_io.h"

namespace psbox {

TargetId Simulator::AddTarget(EventTarget* target, TargetInfo info) {
  PSBOX_CHECK(target != nullptr);
  PSBOX_CHECK_LE(info.kinds, 64);  // |handles| has a bit per kind
  targets_.push_back(target);
  infos_.push_back(std::move(info));
  return static_cast<TargetId>(targets_.size() - 1);
}

uint32_t Simulator::Alloc(const Record& record) {
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    heap_index_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.record = record;
  ++s.generation;  // even -> odd: pending
  return slot;
}

void Simulator::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;  // odd -> even: every handle to it goes stale
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::Push(TimeNs when, uint64_t seq, uint32_t slot) {
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Entry{when, seq, slot});
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
  Release(slot);
  ++stats_.cancelled;
  return true;
}

EventId Simulator::Reschedule(EventId id, TimeNs when) {
  PSBOX_CHECK_GE(when, now_);
  if (!IsPending(id)) {
    return kInvalidEventId;
  }
  const uint32_t slot = SlotOf(id);
  Slot& s = slots_[slot];
  // Retire the old handle without freeing the slot: bumping by 2 keeps the
  // generation odd (still pending). The record stays where it is; only its
  // entry is re-keyed.
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
    // The record is copied out and its slot released before the target
    // runs, so the event is no longer pending and the target may schedule
    // into the freed slot.
    const Record r = slots_[top.slot].record;
    Release(top.slot);
    targets_[r.target]->OnEvent(r.kind, r.a, r.b);
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

EventId Simulator::FindPending(TargetId target, uint8_t kind,
                               uint64_t a) const {
  for (const Entry& e : heap_) {
    const Slot& s = slots_[e.slot];
    if (s.record.target == target && s.record.kind == kind &&
        s.record.a == a) {
      return MakeEventId(e.slot, s.generation);
    }
  }
  return kInvalidEventId;
}

void Simulator::CancelPending(TargetId target, uint8_t kind, uint64_t a) {
  for (EventId id; (id = FindPending(target, kind, a)) != kInvalidEventId;) {
    Cancel(id);
  }
}

std::string Simulator::Describe(const Record& r) const {
  return "target '" + infos_[r.target].name + "' kind " +
         std::to_string(r.kind);
}

std::string Simulator::CheckEventArgs() const {
  for (const Entry& e : heap_) {
    const Record& r = slots_[e.slot].record;
    const std::string bad =
        targets_[r.target]->CheckEvent(r.kind, r.a, r.b);
    if (!bad.empty()) {
      return "snapshot pending event of " + Describe(r) + ": " + bad;
    }
  }
  return {};
}

std::string Simulator::UncheckpointablePending() const {
  for (const Entry& e : heap_) {
    const TargetInfo& t = infos_[slots_[e.slot].record.target];
    if (!t.checkpointable) {
      return t.name;
    }
  }
  return {};
}

template <class Ar>
void Simulator::Serialize(Ar& ar) {
  if (!ar.Section("engine")) {
    return;
  }
  struct Saved {
    Record record{};
    TimeNs when = 0;
    uint64_t seq = 0;
  };
  TimeNs now = now_;
  uint64_t fired = total_fired_;
  uint64_t next_seq = next_seq_;
  ar.I64(now);
  ar.U64(fired);
  ar.U64(next_seq);
  std::vector<Saved> saved;
  const auto by_seq = [](const Saved& x, const Saved& y) {
    return x.seq < y.seq;
  };
  if constexpr (!Ar::kLoading) {
    saved.reserve(heap_.size());
    for (const Entry& e : heap_) {
      saved.push_back(Saved{slots_[e.slot].record, e.when, e.seq});
    }
    std::sort(saved.begin(), saved.end(), by_seq);
  }
  ar.Seq(saved, 37, [&](Saved& s) {
    ar.U32(s.record.target);
    ar.U8(s.record.kind);
    ar.U64(s.record.a);
    ar.U64(s.record.b);
    ar.I64(s.when);
    ar.U64(s.seq);
  });
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) {
      return;
    }
    if (now < 0) {
      ar.Fail("snapshot engine clock is negative");
      return;
    }
    // The records must form one total (time, seq) order with the engine's
    // later schedules: each at or after the clock, under a distinct seq in
    // [1, next_seq), for a registered, checkpointable target and one of its
    // kinds. A handle names one record; a second behind it would fire its
    // target twice.
    std::sort(saved.begin(), saved.end(), by_seq);
    std::set<std::tuple<TargetId, uint8_t, uint64_t>> handles;
    for (size_t i = 0; i < saved.size(); ++i) {
      const Saved& s = saved[i];
      const std::string seq = std::to_string(s.seq);
      if (s.record.target >= targets_.size()) {
        ar.Fail("snapshot has a pending event (seq " + seq +
                ") for target " + std::to_string(s.record.target) +
                ", but the board registers only " +
                std::to_string(targets_.size()));
      } else if (!infos_[s.record.target].checkpointable) {
        ar.Fail("snapshot has a pending event (seq " + seq + ") of " +
                Describe(s.record) + ", which a snapshot cannot carry");
      } else if (s.record.kind >= infos_[s.record.target].kinds) {
        ar.Fail("snapshot has a pending event (seq " + seq + ") of " +
                Describe(s.record) + ", past the target's " +
                std::to_string(infos_[s.record.target].kinds) +
                " kinds");
      } else if (s.when < now) {
        ar.Fail("snapshot has a pending event of " + Describe(s.record) +
                " before the shard clock");
      } else if (s.seq == 0) {
        ar.Fail("snapshot has a pending event of " + Describe(s.record) +
                " with seq 0");
      } else if (i > 0 && s.seq == saved[i - 1].seq) {
        ar.Fail("snapshot has two pending events with seq " + seq);
      } else if (s.seq >= next_seq) {
        ar.Fail("pending event of " + Describe(s.record) + " has seq " + seq +
                ", not below the shard's next seq " +
                std::to_string(next_seq));
      } else if (((infos_[s.record.target].handles >> s.record.kind) &
                  1u) != 0 &&
                 !handles.emplace(s.record.target, s.record.kind, s.record.a)
                      .second) {
        ar.Fail("snapshot has two pending events of " + Describe(s.record) +
                " for argument " + std::to_string(s.record.a));
      } else {
        continue;
      }
      return;
    }
    // Replace whatever the freshly built board scheduled with the saved
    // records, each under its original seq.
    for (const Entry& e : heap_) {
      Release(e.slot);
    }
    heap_.clear();
    now_ = now;
    total_fired_ = fired;
    next_seq_ = next_seq;
    for (const Saved& s : saved) {
      Push(s.when, s.seq, Alloc(s.record));
    }
  }
}

template void Simulator::Serialize(SnapshotWriter&);
template void Simulator::Serialize(SnapshotReader&);

}  // namespace psbox
