// Pending-event set for the discrete-event simulator.
//
// Events live in a slab of pooled slots (free-list recycled, so the
// steady-state schedule/fire path performs no heap allocation) and are
// ordered by a cache-friendly 4-ary min-heap on (time, insertion sequence),
// which keeps same-instant events FIFO and runs deterministic.
//
// Cancellation is O(1) amortized: an EventHandle names its slot by
// (index, generation); cancel bumps the slot's generation and releases
// the callback's captures immediately. The dead heap entry is dropped
// lazily — either when it surfaces at the top, or by a bulk compaction
// (triggered once tombstones outnumber live entries) that rebuilds the
// heap in O(n), keeping the heap proportional to the live set even under
// cancel-heavy workloads that never drain. The queue keeps an exact live
// count, so size()/empty() never over-report buried tombstones.
//
// Lifetime: handles point back into their queue, so the Simulator (which
// owns the queue) must outlive any component holding handles — the
// universal structure of this codebase (components hold Simulator&).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace hostcc::sim {

// Inline capture capacity for scheduled callbacks. The datapath passes
// packets as 8-byte net::PacketRef handles, so its largest steady-state
// lambdas are a handful of words (NIC DMA chunk completion: this + ref +
// bytes + placement + flag ≈ 32 bytes; CPU work completion ≈ 32 bytes);
// 64 covers them with headroom while keeping the event slab dense —
// slot size dropped ~2.5x versus the 208-byte era of by-value Packet
// captures. A static check in event_queue_test.cc pins the assumption.
inline constexpr std::size_t kEventInlineBytes = 64;
using EventFn = InlineCallback<kEventInlineBytes>;

class EventQueue;

// Handle to a scheduled event; allows cancellation. Copies share the
// (slot, generation) identity: cancelling through one copy makes every
// copy report !pending(), and a handle that outlives its event (fired,
// cancelled, or the slot recycled for a newer event) is inert — cancel()
// on a stale generation is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event is still pending (not fired, not cancelled).
  bool pending() const;

  // Cancels the event if still pending. Safe to call repeatedly.
  void cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;

  // Handles hold back-pointers into this queue; it is not movable.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  EventHandle push(Time when, EventFn fn) {
    const std::uint32_t idx = acquire_slot();
    Slot& s = slots_[idx];
    s.fn = std::move(fn);
    s.armed = true;
    heap_.push_back(HeapEntry{when, next_seq_++, idx, s.generation});
    sift_up(heap_.size() - 1);
    ++live_;
    return EventHandle{this, idx, s.generation};
  }

  bool empty() const { return live_ == 0; }

  // Exact number of pending (non-cancelled, non-fired) events.
  std::size_t size() const { return live_; }

  Time next_time() {
    drop_dead_tops();
    return heap_.empty() ? Time::max() : heap_.front().when;
  }

  // Insertion sequence of the earliest live event. Only meaningful right
  // after next_time() returned a finite value (tombstones dropped, heap
  // non-empty); the simulator uses it to order periodic-lane ticks against
  // heap events exactly as if the ticks had been pushed.
  std::uint64_t top_seq() const {
    assert(!heap_.empty());
    return heap_.front().seq;
  }

  // Claims the next insertion sequence number without pushing an event.
  // Periodic lanes draw their tick ordering from the same counter the heap
  // uses, which makes the lane/heap merge order identical to the order a
  // pushed tick event would have had.
  std::uint64_t take_seq() { return next_seq_++; }

  // Claims the next `n` sequence numbers at once; returns the first.
  std::uint64_t take_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  // Pops the earliest live event and invokes it in one step, skipping the
  // move-out/destroy round trip of pop(). Caller must have established via
  // next_time() that a live event is at the top. The slot is released
  // before the callback runs (the callable itself is moved to the stack
  // first), so events pushed from inside the callback may reuse it.
  void pop_top_and_run() {
    assert(!heap_.empty());
    const HeapEntry top = heap_.front();
    Slot& s = slots_[top.slot];
    assert(s.armed && s.generation == top.generation);
    s.armed = false;
    ++s.generation;
    pop_heap_top();
    release_slot(top.slot);
    --live_;
    slots_[top.slot].fn.consume();
  }

  // Removes and returns the earliest live event. Requires !empty().
  std::pair<Time, EventFn> pop() {
    assert(live_ > 0 && "pop() with no live events (all remaining were cancelled)");
    for (;;) {
      assert(!heap_.empty() && "live count positive but heap exhausted");
      const HeapEntry top = heap_.front();
      Slot& s = slots_[top.slot];
      if (!s.armed || s.generation != top.generation) {
        // Cancelled: its captures were already released; recycle the slot.
        pop_heap_top();
        release_slot(top.slot);
        continue;
      }
      s.armed = false;
      ++s.generation;  // handles now report !pending(); self-cancel is a no-op
      EventFn fn = std::move(s.fn);
      pop_heap_top();
      release_slot(top.slot);
      --live_;
      return {top.when, std::move(fn)};
    }
  }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  // Below this heap size, tombstones are too few to matter; skipping
  // compaction keeps tiny queues branch-cheap.
  static constexpr std::size_t kCompactMinHeap = 64;

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNil;
    bool armed = false;  // scheduled and neither fired nor cancelled
  };

  // 24 bytes; the 4-ary layout keeps a parent's children on one cache line
  // pair and halves the tree depth vs. a binary heap.
  struct HeapEntry {
    Time when;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  bool handle_pending(std::uint32_t idx, std::uint32_t gen) const {
    return idx < slots_.size() && slots_[idx].armed && slots_[idx].generation == gen;
  }

  void handle_cancel(std::uint32_t idx, std::uint32_t gen) {
    if (idx >= slots_.size()) return;
    Slot& s = slots_[idx];
    if (!s.armed || s.generation != gen) return;  // stale handle: no-op
    s.armed = false;
    ++s.generation;
    s.fn.reset();  // release captures now; the heap entry dies lazily
    --live_;
    // Amortized-O(1) tombstone control: once dead entries outnumber live
    // ones, rebuild the heap from the survivors. At least heap/2 cancels
    // funded this O(heap) pass. Pop order is unaffected — (when, seq) is
    // a strict total order, so any valid heap yields the same extraction
    // sequence.
    if (heap_.size() >= kCompactMinHeap && live_ < heap_.size() / 2) compact();
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      free_head_ = slots_[idx].next_free;
      slots_[idx].next_free = kNil;
      return idx;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t idx) {
    slots_[idx].next_free = free_head_;
    free_head_ = idx;
  }

  void drop_dead_tops() {
    while (!heap_.empty()) {
      const HeapEntry& top = heap_.front();
      const Slot& s = slots_[top.slot];
      if (s.armed && s.generation == top.generation) return;
      const std::uint32_t idx = top.slot;
      pop_heap_top();
      release_slot(idx);
    }
  }

  // Drops every tombstone (recycling its slot) and re-heapifies the
  // survivors bottom-up (Floyd, O(n)).
  void compact() {
    std::size_t w = 0;
    for (std::size_t r = 0; r < heap_.size(); ++r) {
      const HeapEntry& e = heap_[r];
      const Slot& s = slots_[e.slot];
      if (s.armed && s.generation == e.generation) {
        heap_[w++] = e;
      } else {
        release_slot(e.slot);
      }
    }
    heap_.resize(w);
    if (w > 1) {
      for (std::size_t i = (w - 2) / 4 + 1; i-- > 0;) sift_down(i);
    }
  }

  void pop_heap_top() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  void sift_up(std::size_t i) {
    const HeapEntry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const HeapEntry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::vector<HeapEntry> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->handle_pending(slot_, generation_);
}

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->handle_cancel(slot_, generation_);
}

}  // namespace hostcc::sim
