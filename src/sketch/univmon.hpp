// UnivMon (Liu et al., SIGCOMM 2016) — universal sketching.
//
// L levels of Count Sketch; level j sees the substream of keys sampled
// into levels 1..j (level j keeps ~2^-j of the flow space).  Following
// the reference implementation, the level of a key is derived from ONE
// pairwise-independent hash — the number of trailing one bits — which is
// distributionally identical to j independent one-bit hashes but costs a
// single hash per packet.  Each level tracks its heavy hitters in a
// TopKHeap.
// Any G-sum Σ g(f_x) (entropy, distinct count, L2, ...) is estimated with
// the recursive estimator
//   Y_{L-1} = Σ_{x ∈ HH_{L-1}} g(f̂_x)
//   Y_j     = 2·Y_{j+1} + Σ_{x ∈ HH_j} g(f̂_x)·(1 − 2·sampled_{j+1}(x))
// This is the paper's flagship "general" sketch: one structure serving
// heavy hitters, change detection, entropy and cardinality.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/tabulation.hpp"
#include "sketch/count_sketch.hpp"
#include "sketch/topk.hpp"

namespace nitro::sketch {

struct UnivMonConfig {
  std::uint32_t levels = 16;
  std::uint32_t depth = 5;
  /// Width of the level-0 Count Sketch.  Deeper levels shrink by
  /// `width_decay` down to `min_width` — matching the paper's §7 setup
  /// (4MB, 2MB, 1MB, 500KB for the first sketches, 250KB for the rest).
  std::uint32_t top_width = 10000;
  double width_decay = 0.5;
  std::uint32_t min_width = 512;
  std::uint32_t heap_capacity = 1000;
  /// TopKHeap churn-guard hysteresis (counts): an untracked key must beat
  /// a full heap's minimum by more than this to evict a tracked one.
  /// 0 = guard off (classic behavior).  Does not affect mergeability —
  /// only seeds and shapes must match.
  std::int64_t heap_margin = 0;

  std::uint32_t width_at(std::uint32_t level) const {
    double w = top_width;
    for (std::uint32_t j = 0; j < level; ++j) w = std::max<double>(w * width_decay, min_width);
    return static_cast<std::uint32_t>(w);
  }
};

/// A UnivMon image in sparse form: per level, its non-zero counters in
/// (row, col) order and its heavy-key entries in encoded order, plus the
/// stream total and the seed the image was hashed with.  The collector
/// decodes each epoch into one of these (control::decode_univmon) and
/// merges it straight into its accumulators, with no temporary sketch.
struct SparseUnivMon {
  struct Level {
    std::vector<MatrixCell> cells;
    std::vector<TopKHeap::Entry> heap;
  };
  std::uint64_t seed = 0;
  std::int64_t total = 0;
  std::vector<Level> levels;
};

class UnivMon {
 public:
  UnivMon(const UnivMonConfig& cfg, std::uint64_t seed);

  /// Feeds one packet of `count` units.  Touches levels 0..level_of(x).
  void update(const FlowKey& key, std::int64_t count = 1);

  /// Point frequency estimate (level-0 Count Sketch).
  std::int64_t query(const FlowKey& key) const { return levels_[0].cs.query(key); }

  /// Deepest level this key belongs to: trailing ones of the level hash,
  /// capped at levels-1.  Membership is prefix-closed by construction.
  std::uint32_t level_of(const FlowKey& key) const { return level_of_digest(flow_digest(key)); }

  /// level_of() for a key already digested with flow_digest(): a seeded
  /// finalizer over the digest, so a packet's one digest serves its level
  /// and every row of every level it touches.
  std::uint32_t level_of_digest(std::uint64_t digest) const noexcept {
    const std::uint64_t h = mix64(digest ^ level_seed_);
    const auto z = static_cast<std::uint32_t>(std::countr_one(h));
    const auto deepest = static_cast<std::uint32_t>(levels_.size()) - 1;
    return z < deepest ? z : deepest;
  }

  /// Level membership: is `key` sampled into levels 0..j?
  bool sampled_to_level(const FlowKey& key, std::uint32_t j) const {
    return level_of(key) >= j;
  }

  /// Recursive G-sum estimator over the per-level heavy hitters.
  double estimate_gsum(const std::function<double(double)>& g) const;

  /// Entropy of the flow-size distribution (bits):
  ///   H = log2(m) - (1/m) Σ f_x log2 f_x, via the g(f)=f·log2(f) G-sum.
  double estimate_entropy() const;

  /// Number of distinct flows, via the g(f)=1 G-sum.
  double estimate_distinct() const;

  /// k-th frequency moment F_k = Σ f_x^k, via the g(f)=f^k G-sum
  /// (F_0 = distinct count, F_1 = stream length, F_2 = self-join size).
  double estimate_moment(double k) const;

  /// L2 norm of the frequency vector (level-0 AMS estimate).
  double estimate_l2() const { return levels_[0].cs.l2_estimate(); }

  /// Heavy hitters with estimate >= threshold (from the level-0 heap).
  std::vector<TopKHeap::Entry> heavy_hitters(std::int64_t threshold) const;

  std::int64_t total() const noexcept { return total_; }
  std::uint64_t seed() const noexcept { return seed_; }
  const UnivMonConfig& config() const noexcept { return cfg_; }
  std::uint32_t num_levels() const noexcept { return static_cast<std::uint32_t>(levels_.size()); }
  const CountSketch& level_sketch(std::uint32_t j) const { return levels_[j].cs; }
  const TopKHeap& level_heap(std::uint32_t j) const { return levels_[j].heap; }

  // --- Raw per-level hooks -------------------------------------------------
  // Used by NitroUnivMon, which replaces each level's vanilla update with a
  // sampled one (the paper's "replace each Count Sketch instance in UnivMon
  // with NitroSketch", §8) while reusing this class's estimators.

  /// Does `key` pass the promotion hash *into* level j (j >= 1)?
  bool level_passes(std::uint32_t j, const FlowKey& key) const {
    return level_of(key) >= j;
  }

  /// Mutable access to level j's Count Sketch (bypasses heap maintenance).
  CountSketch& level_sketch_mut(std::uint32_t j) { return levels_[j].cs; }

  /// Refresh level j's heavy-key heap with the current estimate of `key`.
  void offer_to_heap(std::uint32_t j, const FlowKey& key) {
    levels_[j].heap.offer(key, levels_[j].cs.query(key));
  }

  /// Same, with a caller-computed estimate (instrumented paths separate
  /// the hash cost of re-querying from the pure heap cost).
  void offer_to_heap_with_estimate(std::uint32_t j, const FlowKey& key,
                                   std::int64_t estimate) {
    levels_[j].heap.offer(key, estimate);
  }

  /// Account stream length without touching any counters.
  void add_total(std::int64_t count) noexcept { total_ += count; }

  /// Overwrite the stream total (snapshot loading).
  void set_total(std::int64_t total) noexcept { total_ = total; }

  /// Mutable heap access for snapshot loading.
  TopKHeap& level_heap_mut(std::uint32_t j) { return levels_[j].heap; }

  /// Network-wide aggregation: element-wise counter merge plus heavy-key
  /// union (estimates re-queried from the merged counters).  Both sketches
  /// must be built with the same config and seed — the standard
  /// same-hash-functions requirement for mergeable sketches.
  void merge(const UnivMon& other);

  /// merge() of a sparse image: adds its cells into every level's
  /// counters, then unions and refreshes the heaps in the dense merge's
  /// order, so the result is byte-identical to merging a sketch loaded
  /// from the same image.  Throws std::invalid_argument unless the image
  /// has this sketch's seed and level count and every cell is in range.
  void merge(const SparseUnivMon& image);

  std::size_t memory_bytes() const;
  void clear();

  /// Heap churn velocity: untracked-evicts-tracked events summed over all
  /// level heaps since construction / clear().  On a per-epoch sketch this
  /// is the epoch's eviction count — the churn-rate anomaly gauge.
  std::uint64_t heap_evictions() const noexcept;

  // --- Dirty-segment tracking passthrough (delta checkpoints) --------------

  /// Enable per-segment dirty tracking on every level's counter matrix.
  void enable_dirty_tracking() {
    for (Level& l : levels_) l.cs.matrix().enable_dirty_tracking();
  }

  bool dirty_tracking() const noexcept {
    return !levels_.empty() && levels_[0].cs.matrix().dirty_tracking();
  }

  /// Checkpoint frame cut: subsequent dirty bits are relative to the frame
  /// the caller just serialized.
  void clear_dirty() noexcept {
    for (Level& l : levels_) l.cs.matrix().clear_dirty();
  }

 private:
  struct Level {
    Level(std::uint32_t depth, std::uint32_t width, std::uint32_t heap_cap,
          std::uint64_t cs_seed, std::int64_t heap_margin)
        : cs(depth, width, cs_seed), heap(heap_cap, heap_margin) {}
    CountSketch cs;
    TopKHeap heap;
  };

  UnivMonConfig cfg_;
  std::vector<Level> levels_;
  std::uint64_t seed_;        // construction seed (generation-derived under rotation)
  std::uint64_t level_seed_;  // trailing ones of mix64(digest^seed) = level
  std::int64_t total_ = 0;
};

}  // namespace nitro::sketch
