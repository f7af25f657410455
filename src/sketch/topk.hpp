// Top-K heavy-key store ("TopKeys" in the paper's figures).
//
// Sketches only answer point queries; to report heavy hitters you must
// also remember *which* keys are heavy.  The classic companion structure
// is a min-heap of the K largest estimates plus a membership hash map
// (paper Bottleneck 3).  NitroSketch reduces its cost by consulting it
// only on sampled updates.
//
// Layout: stable entries + a heap of ids + a position table so heap sifts
// move 32-bit ids without re-hashing keys.  Untracked mice that cannot
// displace the current minimum are rejected after a single hash-map probe;
// tracked keys are always refreshed, in either direction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/flow_key.hpp"

namespace nitro::sketch {

class TopKHeap {
 public:
  struct Entry {
    FlowKey key;
    std::int64_t estimate = 0;
  };

  /// `admission_margin` is the churn-guard hysteresis (DESIGN.md §16): an
  /// untracked key must beat the full heap's minimum by more than the
  /// margin to evict it.  0 keeps the classic displace-on-any-improvement
  /// behavior; a positive margin makes a churn storm of one-hit flows —
  /// whose sketch estimates hover just above the minimum on collision
  /// noise — unable to grind real heavy hitters out of the heap.
  explicit TopKHeap(std::size_t capacity, std::int64_t admission_margin = 0)
      : capacity_(capacity), margin_(admission_margin) {
    entries_.reserve(capacity);
    heap_.reserve(capacity);
    pos_.reserve(capacity);
    index_.reserve(capacity * 2);
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return entries_.size(); }
  std::int64_t admission_margin() const noexcept { return margin_; }

  /// Evictions of a tracked key by an untracked one since construction or
  /// clear().  The heap-churn velocity signal: a fresh per-epoch heap that
  /// evicts orders of magnitude more than the benign baseline is under a
  /// churn storm.
  std::uint64_t evictions() const noexcept { return evictions_; }

  /// Untracked keys that beat the minimum but not the admission margin.
  std::uint64_t margin_rejects() const noexcept { return margin_rejects_; }

  /// Offer a (key, fresh-estimate) pair.  If the key is tracked its
  /// estimate is refreshed; otherwise it displaces the current minimum
  /// when larger by more than the admission margin.  O(log K) worst case,
  /// O(1) for rejected mice.
  void offer(const FlowKey& key, std::int64_t estimate) {
    auto it = index_.find(key);
    // Reject only *untracked* keys at or below the full heap's admission
    // bar: they cannot (or, within the hysteresis margin, may not)
    // displace anything.  Tracked keys must fall through so a lower fresh
    // estimate still refreshes the stored one downward (the branch below
    // sifts in both directions).
    if (it == index_.end() && entries_.size() == capacity_) {
      if (estimate <= min_estimate()) return;
      if (estimate <= min_estimate() + margin_) {
        ++margin_rejects_;
        return;
      }
    }
    if (it != index_.end()) {
      const std::uint32_t id = it->second;
      if (estimate > entries_[id].estimate) {
        entries_[id].estimate = estimate;
        sift_down(pos_[id]);
      } else if (estimate < entries_[id].estimate) {
        entries_[id].estimate = estimate;
        sift_up(pos_[id]);
      }
      return;
    }
    if (entries_.size() < capacity_) {
      const auto id = static_cast<std::uint32_t>(entries_.size());
      entries_.push_back({key, estimate});
      heap_.push_back(id);
      pos_.push_back(static_cast<std::uint32_t>(heap_.size() - 1));
      index_.emplace(key, id);
      sift_up(heap_.size() - 1);
      return;
    }
    if (capacity_ == 0) return;
    ++evictions_;
    const std::uint32_t id = heap_[0];
    index_.erase(entries_[id].key);
    entries_[id] = {key, estimate};
    index_.emplace(key, id);
    sift_down(0);
  }

  bool contains(const FlowKey& key) const { return index_.count(key) != 0; }

  /// Union-merge: offer every entry tracked by `other`, keeping this heap's
  /// capacity.  With the default identity re-estimator the other heap's
  /// stored estimates are taken as-is; shard merges pass a callable that
  /// re-queries each key against the merged counters (a per-shard estimate
  /// undercounts a key whose packets were split across shards).
  template <typename Reestimate>
  void merge(const TopKHeap& other, Reestimate&& estimate_of) {
    merge(std::span<const Entry>(other.entries_), estimate_of);
  }

  /// merge() of bare entries, offered in the given order (a heap image
  /// decoded from a snapshot, which a loaded heap would store in that
  /// same order).
  template <typename Reestimate>
  void merge(std::span<const Entry> entries, Reestimate&& estimate_of) {
    for (const auto& e : entries) offer(e.key, estimate_of(e.key, e.estimate));
  }

  void merge(const TopKHeap& other) {
    merge(other, [](const FlowKey&, std::int64_t est) { return est; });
  }

  /// Re-estimate every tracked key in place; nothing is admitted or
  /// evicted.  Entries are visited in storage order, not sorted: an
  /// update only moves its entry within the heap array, and everything
  /// observable (the minimum, entries_sorted(), the slot an eviction
  /// reuses) depends on the (estimate, key) order alone, so the visiting
  /// order cannot change the outcome.
  template <typename Estimate>
  void refresh(Estimate&& estimate_of) {
    for (std::uint32_t id = 0; id < entries_.size(); ++id) {
      const std::int64_t estimate = estimate_of(entries_[id].key);
      if (estimate > entries_[id].estimate) {
        entries_[id].estimate = estimate;
        sift_down(pos_[id]);
      } else if (estimate < entries_[id].estimate) {
        entries_[id].estimate = estimate;
        sift_up(pos_[id]);
      }
    }
  }

  std::int64_t min_estimate() const noexcept {
    return heap_.empty() ? 0 : entries_[heap_[0]].estimate;
  }

  /// All tracked entries, largest first.  Ties break on the key so the
  /// order — and therefore any serialization built from it — is canonical:
  /// two heaps holding the same (key, estimate) set produce identical
  /// bytes regardless of insertion history.
  std::vector<Entry> entries_sorted() const {
    std::vector<Entry> out = entries_;
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.estimate != b.estimate) return a.estimate > b.estimate;
      return a.key < b.key;
    });
    return out;
  }

  void clear() {
    entries_.clear();
    heap_.clear();
    pos_.clear();
    index_.clear();
    evictions_ = 0;
    margin_rejects_ = 0;
  }

  /// Approximate resident memory, for the Figure 13b comparison.
  std::size_t memory_bytes() const noexcept {
    return entries_.capacity() * sizeof(Entry) +
           heap_.capacity() * sizeof(std::uint32_t) * 2 +
           index_.size() * (sizeof(FlowKey) + sizeof(std::uint32_t) + 16);
  }

 private:
  /// Strict total order: estimate, ties broken on the key.  The tie-break
  /// matters for reproducibility — it makes the heap minimum (and hence
  /// *which* tracked key an eviction removes) a function of the tracked
  /// (key, estimate) set alone, never of the internal array layout.  A
  /// heap rebuilt from a checkpoint in canonical order then evolves
  /// bit-identically to the live heap it was saved from.
  bool id_less(std::uint32_t a, std::uint32_t b) const {
    if (entries_[a].estimate != entries_[b].estimate) {
      return entries_[a].estimate < entries_[b].estimate;
    }
    return entries_[a].key < entries_[b].key;
  }

  void place(std::size_t heap_idx, std::uint32_t id) {
    heap_[heap_idx] = id;
    pos_[id] = static_cast<std::uint32_t>(heap_idx);
  }

  void sift_up(std::size_t i) {
    const std::uint32_t id = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!id_less(id, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, id);
  }

  void sift_down(std::size_t i) {
    const std::uint32_t id = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && id_less(heap_[child + 1], heap_[child])) ++child;
      if (!id_less(heap_[child], id)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, id);
  }

  std::size_t capacity_;
  std::int64_t margin_ = 0;          // churn-guard admission hysteresis
  std::uint64_t evictions_ = 0;      // untracked-displaces-tracked events
  std::uint64_t margin_rejects_ = 0;
  std::vector<Entry> entries_;       // stable entry storage
  std::vector<std::uint32_t> heap_;  // min-heap of entry ids, (estimate, key) order
  std::vector<std::uint32_t> pos_;   // entry id -> heap index
  std::unordered_map<FlowKey, std::uint32_t> index_;  // key -> entry id
};

}  // namespace nitro::sketch
