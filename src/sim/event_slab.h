// Slab storage for pending-event closures.
//
// The event engine stores one ClosureSlot per pending event in a chunked
// slab. Three properties matter on the re-arm-heavy paths (watchdog pets,
// scheduler tick/completion timers, retransmit backoff):
//
//   * small-buffer optimisation — a callable of up to kInlineCapacity bytes
//     is constructed straight into the slot, so the schedule/cancel cycle
//     performs no heap allocation. Larger captures fall back to a single
//     owned heap object (counted, so benches can assert the fast path stays
//     allocation-free).
//   * generation tags — every slot carries a generation counter that is odd
//     while the slot holds a pending event and bumped when the event fires or
//     is cancelled, so a stale EventId is recognised in O(1).
//   * stable addresses — slots live in fixed-size chunks that never move, so
//     a closure can run in its own slot while the callback schedules more
//     events into the slab.
//
// Cancelling destroys the closure eagerly (captured objects are released
// immediately) and pushes the slot onto a free list; steady-state re-arm
// traffic recycles a handful of slots.

#ifndef SRC_SIM_EVENT_SLAB_H_
#define SRC_SIM_EVENT_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/check.h"

namespace psbox {

// Type-erased nullary callable with small-buffer optimisation that exposes
// whether storage went inline.
class ClosureSlot {
 public:
  static constexpr size_t kInlineCapacity = 48;

  ClosureSlot() = default;
  ~ClosureSlot() { Destroy(); }
  ClosureSlot(const ClosureSlot&) = delete;
  ClosureSlot& operator=(const ClosureSlot&) = delete;

  // Captures |fn|; returns true when it was stored inline (no allocation).
  template <typename Fn>
  bool Emplace(Fn&& fn) {
    PSBOX_DCHECK(!engaged());
    using D = std::decay_t<Fn>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "event closures must be callable as void()");
    if constexpr (sizeof(D) <= kInlineCapacity &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<Fn>(fn));
      invoke_ = &InvokeInline<D>;
      destroy_ = &DestroyInline<D>;
      return true;
    } else {
      D* heap = new D(std::forward<Fn>(fn));
      std::memcpy(buf_, &heap, sizeof(heap));
      invoke_ = &InvokeHeap<D>;
      destroy_ = &DestroyHeap<D>;
      return false;
    }
  }

  void Invoke() {
    PSBOX_DCHECK(engaged());
    invoke_(buf_);
  }

  void Destroy() {
    if (engaged()) {
      destroy_(buf_);
      invoke_ = nullptr;
      destroy_ = nullptr;
    }
  }

  bool engaged() const { return invoke_ != nullptr; }

 private:
  template <typename D>
  static void InvokeInline(void* buf) {
    (*std::launder(reinterpret_cast<D*>(buf)))();
  }
  template <typename D>
  static void DestroyInline(void* buf) {
    std::launder(reinterpret_cast<D*>(buf))->~D();
  }
  template <typename D>
  static void InvokeHeap(void* buf) {
    D* p;
    std::memcpy(&p, buf, sizeof(p));
    (*p)();
  }
  template <typename D>
  static void DestroyHeap(void* buf) {
    D* p;
    std::memcpy(&p, buf, sizeof(p));
    delete p;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

// Chunked slab of event slots with a free list. Chunks are never moved or
// released, so slot indices and addresses stay valid for the slab's lifetime;
// capacity is the high-water mark of concurrently pending (or firing) events.
class EventSlab {
 public:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Slot {
    ClosureSlot closure;
    // Odd while the slot holds a pending event; bumped on allocate and on
    // retire, so any stale (slot, generation) reference compares unequal.
    uint32_t generation = 0;
    uint32_t next_free = kNil;
  };

  // Allocates a slot and returns its index; the slot's generation is odd.
  uint32_t Alloc() {
    uint32_t index;
    if (free_head_ != kNil) {
      index = free_head_;
      free_head_ = (*this)[index].next_free;
    } else {
      index = static_cast<uint32_t>(size_);
      const size_t chunk = size_ >> kChunkShift;
      if (chunk == chunks_.size()) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
      ++size_;
    }
    Slot& s = (*this)[index];
    ++s.generation;  // even -> odd: pending
    PSBOX_DCHECK((s.generation & 1u) == 1u);
    return index;
  }

  // Ends the slot's pending event (odd -> even) but keeps its closure, so a
  // firing event can run in place and see itself as no longer pending.
  void Retire(uint32_t index) {
    Slot& s = (*this)[index];
    PSBOX_DCHECK((s.generation & 1u) == 1u);
    ++s.generation;
  }

  // Destroys a retired slot's closure and recycles the slot.
  void Recycle(uint32_t index) {
    Slot& s = (*this)[index];
    PSBOX_DCHECK((s.generation & 1u) == 0u);
    s.closure.Destroy();
    s.next_free = free_head_;
    free_head_ = index;
  }

  // Retires and recycles a pending slot (its closure never runs).
  void Free(uint32_t index) {
    Retire(index);
    Recycle(index);
  }

  Slot& operator[](uint32_t index) {
    PSBOX_DCHECK(index < size_);
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  const Slot& operator[](uint32_t index) const {
    PSBOX_DCHECK(index < size_);
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  // Slots ever allocated (the concurrently-pending high-water mark).
  size_t size() const { return size_; }

 private:
  // 32 slots (2.5 KB) per chunk: a board of the benchmark fleets peaks at
  // about 26-42 pending events, so one or two chunks hold them.
  static constexpr size_t kChunkShift = 5;
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  size_t size_ = 0;
  uint32_t free_head_ = kNil;
};

}  // namespace psbox

#endif  // SRC_SIM_EVENT_SLAB_H_
