// Pending-event reification for snapshot restore.
//
// The event engine's closures are opaque, so a snapshot cannot persist them
// directly. Instead, every subsystem that owns a pending event serialises a
// typed descriptor — its firing time and original insertion sequence number
// — through the archives' Event() op, whose reader side registers a re-arm
// callback with the EventRearmer the reader carries.
// After all subsystems have restored their plain state (and the engine has
// been ResetForRestore'd to an empty queue), EventRearmer::Replay() invokes
// the re-arm callbacks in ascending original-seq order. Fresh sequence
// numbers are handed out in call order, so both cross-time ordering and
// same-time FIFO ties come out exactly as in the uninterrupted run.

#ifndef SRC_SNAPSHOT_EVENT_REARMER_H_
#define SRC_SNAPSHOT_EVENT_REARMER_H_

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/snapshot/snapshot_io.h"

namespace psbox {

class EventRearmer {
 public:
  void Defer(uint64_t seq, TimeNs when, std::function<void()> rearm) {
    items_.push_back(Item{seq, when, std::move(rearm)});
  }

  // Whether the deferred events can re-arm into an engine whose clock is
  // |now| and whose next seq is |next_seq|; when not, |error| says why. The
  // engine cannot schedule into the past, so each must fire at or after
  // |now|. Their seqs must be distinct and in [1, next_seq), or they and the
  // engine's later schedules would not form one total (time, seq) order.
  // Sorts the events into the seq order Replay uses.
  bool Check(TimeNs now, uint64_t next_seq, std::string* error) {
    std::sort(items_.begin(), items_.end(),
              [](const Item& a, const Item& b) { return a.seq < b.seq; });
    for (size_t i = 0; i < items_.size(); ++i) {
      const Item& item = items_[i];
      if (item.when < now) {
        *error = "snapshot has a pending event before the shard clock";
      } else if (item.seq == 0) {
        *error = "snapshot has a pending event with seq 0";
      } else if (i > 0 && item.seq == items_[i - 1].seq) {
        *error = "snapshot has two pending events with seq " +
                 std::to_string(item.seq);
      } else if (item.seq >= next_seq) {
        *error = "pending event seq " + std::to_string(item.seq) +
                 " is not below the shard's next seq " +
                 std::to_string(next_seq);
      } else {
        continue;
      }
      return false;
    }
    return true;
  }

  // Invokes every deferred re-arm in ascending original-seq order, forcing
  // each re-armed event onto its original insertion sequence number so the
  // restored engine's ordering state is bit-identical to the uninterrupted
  // run's. Call exactly once, after Check and Simulator::ResetForRestore.
  void Replay(Simulator& sim) {
    PSBOX_DCHECK(std::is_sorted(
        items_.begin(), items_.end(),
        [](const Item& a, const Item& b) { return a.seq < b.seq; }));
    for (Item& item : items_) {
      sim.SetNextSeqForRestore(item.seq);
      item.fn();
      // Every saved event descriptor re-arms exactly one engine event; more
      // would silently shift later seqs off their checkpointed values.
      PSBOX_CHECK_EQ(sim.next_seq(), item.seq + 1);
    }
    items_.clear();
  }

 private:
  struct Item {
    uint64_t seq;
    TimeNs when;
    std::function<void()> fn;
  };
  std::vector<Item> items_;
};

// Entry of a tracked-timer list: the event id itself, an entry's |event|
// field, or the second of a (key, event) pair.
inline EventId PendingEventOf(EventId e) { return e; }
template <typename T>
EventId PendingEventOf(const T& entry) {
  return entry.event;
}
template <typename K>
EventId PendingEventOf(const std::pair<K, EventId>& entry) {
  return entry.second;
}

template <typename F>
bool SnapshotWriter::Event(const uint64_t& id, F&& /*rearm*/) {
  PSBOX_CHECK(sim_ != nullptr);
  const bool present = sim_->IsPending(id);
  Bool(present);
  if (present) {
    const Simulator::PendingEventInfo info = sim_->PendingInfo(id);
    I64(info.when);
    U64(info.seq);
    ClaimEvent();
  }
  return present;
}

template <typename F>
bool SnapshotReader::Event(uint64_t& id, F&& rearm) {
  PSBOX_CHECK(rearmer_ != nullptr);
  id = kInvalidEventId;
  if (!Bool()) {
    return false;
  }
  const TimeNs when = I64();
  const uint64_t seq = U64();
  if (!ok_) {
    return false;
  }
  rearmer_->Defer(seq, when,
                  [when, rearm = std::forward<F>(rearm)]() mutable {
                    rearm(when);
                  });
  return true;
}

template <typename L, typename F>
void SnapshotWriter::PendingEvents(L& list, size_t /*min_element_size*/,
                                   F&& body) {
  PSBOX_CHECK(sim_ != nullptr);
  uint64_t live = 0;
  for (const auto& entry : list) {
    live += sim_->IsPending(PendingEventOf(entry)) ? 1 : 0;
  }
  U64(live);
  for (auto& entry : list) {
    if (sim_->IsPending(PendingEventOf(entry))) {
      body(entry);
    }
  }
}

template <typename L, typename F>
void SnapshotReader::PendingEvents(L& list, size_t min_element_size,
                                   F&& body) {
  list.clear();
  const size_t n = ReadCount(min_element_size);
  for (size_t i = 0; i < n && ok_; ++i) {
    typename L::value_type entry{};
    body(entry);
  }
}

}  // namespace psbox

#endif  // SRC_SNAPSHOT_EVENT_REARMER_H_
