// Cache-friendly per-LP event scheduling for the conservative engine.
//
// EventSched replaces the former std::priority_queue<Event>: a 4-ary
// min-heap of compact 24-byte (time, seq, slot) keys over a slab arena of
// event payloads. Sift operations move only the small keys, the payloads
// never move, and freed arena slots are recycled, so a steady-state run
// performs no allocator traffic at all after warm-up. min_time() is a
// single load, which turns Engine::next_event_floor() into a plain scan of
// per-LP fields instead of a walk over priority-queue tops.
//
// Pop order is the strict total order (time, seq) — seq is unique within
// an LP — so execution order is independent of the heap's internal shape
// and of which executor (sequential or threaded) drives the LP. That
// property is what lets the engine swap heap layouts without perturbing
// the bit-exact event trace.
//
// Outbox replaces the former flat cross-LP send vector with per-(src,dst)
// buffers: sends are appended to their destination's bucket in send order.
// Every merge delivers, for each destination, the source LPs in id order
// and each bucket in send order — the sequential loop walks sources and
// their non-empty buckets, the parallel executors walk destinations — so
// the seq values assigned at delivery, and therefore the event trace, are
// the same under every executor, while the per-destination grouping lets
// worker threads claim destinations and merge them concurrently. A dense
// per-destination index makes add() and find() O(1), and a list of this
// window's non-empty buckets makes batches(), clear() and iteration cost
// O(non-empty buckets) rather than O(destinations ever used).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pdes/event.hpp"
#include "util/check.hpp"

namespace massf {

class EventSched {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest pending event; kSimTimeMax when empty.
  SimTime min_time() const {
    return heap_.empty() ? kSimTimeMax : heap_[0].time;
  }

  /// Deepest the heap has been over the scheduler's lifetime.
  std::size_t peak_size() const { return peak_; }
  /// Payload slots ever allocated (arena high-water mark).
  std::size_t arena_slots() const { return arena_.size(); }

  void reserve(std::size_t n) {
    heap_.reserve(n);
    arena_.reserve(n);
    free_.reserve(n);
  }

  /// Inserts an event (seq must already be assigned by the engine).
  void push(const Event& ev) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.push_back(ev);
    } else {
      slot = free_.back();
      free_.pop_back();
      arena_[slot] = ev;
    }
    heap_.push_back(Key{ev.time, ev.seq, slot});
    sift_up(heap_.size() - 1);
    peak_ = std::max(peak_, heap_.size());
  }

  /// Earliest event by (time, seq). The reference is invalidated by the
  /// next push or pop — copy before handling.
  const Event& top() const {
    MASSF_DCHECK(!heap_.empty());
    return arena_[heap_[0].slot];
  }

  void pop() {
    MASSF_DCHECK(!heap_.empty());
    free_.push_back(heap_[0].slot);
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      sift_down(0);
    }
  }

  /// Pending events in (time, seq) order — the scheduler's canonical
  /// content, independent of the heap's internal shape and of the arena
  /// slot assignment. Checkpoints store this list; re-pushing it in order
  /// reconstructs a scheduler with identical pop behavior.
  std::vector<Event> sorted_events() const {
    std::vector<Key> keys = heap_;
    std::sort(keys.begin(), keys.end(), before);
    std::vector<Event> out;
    out.reserve(keys.size());
    for (const Key& k : keys) out.push_back(arena_[k.slot]);
    return out;
  }

  /// Drops all pending events and the arena (checkpoint restore repopulates
  /// via push). peak_ is deliberately kept: it remains a lifetime metric.
  void clear() {
    heap_.clear();
    arena_.clear();
    free_.clear();
  }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const Key& x, const Key& y) {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  void sift_down(std::size_t i) {
    const Key k = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], k)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = k;
  }

  std::vector<Key> heap_;
  std::vector<Event> arena_;          // stable payload slots
  std::vector<std::uint32_t> free_;   // recycled arena slots
  std::size_t peak_ = 0;
};

class Outbox {
 public:
  /// Buffers a cross-LP send (ev.lp is the destination) in send order
  /// within its destination's bucket.
  void add(const Event& ev) {
    MASSF_DCHECK(ev.lp >= 0);
    ++total_;
    const auto d = static_cast<std::size_t>(ev.lp);
    if (d >= index_.size()) index_.resize(d + 1, kNoBucket);
    std::uint32_t b = index_[d];
    if (b == kNoBucket) {
      b = static_cast<std::uint32_t>(buckets_.size());
      index_[d] = b;
      buckets_.emplace_back();
      buckets_.back().dst = ev.lp;
    }
    Bucket& bucket = buckets_[b];
    if (bucket.events.empty()) live_.push_back(b);
    bucket.events.push_back(ev);
  }

  /// The buffered sends for `dst` in send order, or nullptr if none.
  const std::vector<Event>* find(LpId dst) const {
    const auto d = static_cast<std::size_t>(dst);
    if (d >= index_.size() || index_[d] == kNoBucket) return nullptr;
    const Bucket& b = buckets_[index_[d]];
    return b.events.empty() ? nullptr : &b.events;
  }

  /// Destinations with at least one buffered send, sorted by LP id. The
  /// sharded executor walks this to frame per-(src,dst) ring batches in
  /// the same deterministic order the merge drains them.
  std::vector<LpId> dsts() const {
    std::vector<LpId> out;
    out.reserve(live_.size());
    for (const std::uint32_t b : live_) out.push_back(buckets_[b].dst);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Calls fn(dst, events) for every non-empty bucket, in the order the
  /// buckets first received a send this window. Each destination's seqs
  /// depend only on the order of its own events, so callers delivering
  /// one source at a time need no sorted destination order.
  template <class Fn>
  void for_each_batch(Fn&& fn) const {
    for (const std::uint32_t b : live_) fn(buckets_[b].dst, buckets_[b].events);
  }

  /// Buffered events this window (all destinations).
  std::size_t total() const { return total_; }

  /// Non-empty (src,dst) buffers this window.
  std::size_t batches() const { return live_.size(); }

  /// Empties the buckets but keeps their capacity (and the bucket list
  /// and index themselves) for the next window.
  void clear() {
    for (const std::uint32_t b : live_) buckets_[b].events.clear();
    live_.clear();
    total_ = 0;
  }

 private:
  static constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};
  struct Bucket {
    LpId dst = kInvalidLp;
    std::vector<Event> events;
  };
  std::vector<Bucket> buckets_;       // in order of first use, ever
  std::vector<std::uint32_t> index_;  // dst -> bucket, kNoBucket if unused
  std::vector<std::uint32_t> live_;   // non-empty buckets this window
  std::size_t total_ = 0;
};

}  // namespace massf
