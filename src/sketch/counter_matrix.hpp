// Shared d x w counter structure underlying every sketch in this library.
//
// The paper's key observation (§1, §4.2) is that Count-Min, Count Sketch,
// K-ary and UnivMon's components all share the same canonical layout:
// d independent counter arrays of width w, each paired with a
// pairwise-independent index hash h_i and (for L2 sketches) a sign hash
// g_i.  Centralizing the layout lets the NitroSketch framework wrap any of
// them uniformly, and keeps rows contiguous for cache-friendly updates.
//
// Storage is 64-byte aligned with each row padded to whole cache lines, so
// a counter never straddles two lines and the burst ingestion path can
// prefetch exactly one line per resolved update.  Padding counters are
// permanently zero; row()/row_mut() expose only the live width, so codec,
// merge and estimation observe the unpadded layout.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/aligned.hpp"
#include "common/flow_key.hpp"
#include "common/tabulation.hpp"

namespace nitro::sketch {

/// One non-zero counter of a matrix image: C[row][col] == value.  Sparse
/// epoch images (control/codec.hpp) are lists of these.
struct MatrixCell {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  std::int64_t value = 0;
};

class CounterMatrix {
 public:
  /// Counters per 64-byte cache line; rows are padded to a multiple of
  /// this so every row starts on a line boundary.
  static constexpr std::uint32_t kLineCounters =
      static_cast<std::uint32_t>(kCacheLineBytes / sizeof(std::int64_t));

  /// `signed_updates` selects between Count-Sketch-style ±1 updates (an
  /// εL2 guarantee) and Count-Min-style +1 updates (εL1); see Algorithm 1
  /// line 3 of the paper.
  CounterMatrix(std::uint32_t depth, std::uint32_t width, std::uint64_t seed,
                bool signed_updates)
      : depth_(depth), width_(width),
        stride_((width + kLineCounters - 1) / kLineCounters * kLineCounters),
        seed_(seed),
        counters_(std::size_t{depth} * stride_, 0) {
    row_hash_.reserve(depth);
    sign_hash_.reserve(depth);
    SplitMix64 sm(seed);
    for (std::uint32_t r = 0; r < depth; ++r) {
      row_hash_.emplace_back(width, sm.next());
      sign_hash_.emplace_back(sm.next(), signed_updates);
    }
  }

  /// Granularity of dirty tracking: one bit covers this many consecutive
  /// counters (8 cache lines).  Coarse on purpose — the bitmap must stay
  /// small enough that marking it on the update path is a single OR into
  /// a word that is almost always already cached.
  static constexpr std::uint32_t kSegmentCounters = 64;

  std::uint32_t depth() const noexcept { return depth_; }
  std::uint32_t width() const noexcept { return width_; }
  /// Counters per row as stored (width rounded up to whole cache lines).
  std::uint32_t stride() const noexcept { return stride_; }
  std::uint64_t seed() const noexcept { return seed_; }
  bool signed_updates() const noexcept { return !sign_hash_.empty() && sign_hash_[0].is_signed(); }

  /// What a serialized image must match to load into this matrix.
  struct Shape {
    std::uint32_t depth = 0;
    std::uint32_t width = 0;
    bool is_signed = false;
  };
  Shape shape() const noexcept { return {depth_, width_, signed_updates()}; }

  /// C[r][h_r(x)] += delta * g_r(x) for the key x whose flow_digest() is
  /// `digest`.  Rows take the digest, never the key: a caller hashes a
  /// key once (scalar or batched) and reuses the digest for every row it
  /// touches.
  void update_row_digest(std::uint32_t r, std::uint64_t digest, std::int64_t delta) noexcept {
    const std::uint32_t col = row_hash_[r].index_of_digest(digest);
    counters_[std::size_t{r} * stride_ + col] += delta * sign_hash_[r].sign_of_digest(digest);
    if (!dirty_.empty()) mark_dirty(r, col);
  }

  /// Column of `digest` in row r — hash only, no write.  Batch paths
  /// resolve columns for a whole group, prefetch the counter lines, then
  /// write in a second pass.
  std::uint32_t column_of_digest(std::uint32_t r, std::uint64_t digest) const noexcept {
    return row_hash_[r].index_of_digest(digest);
  }

  /// Sign of `digest` in row r (±1 for signed sketches, +1 otherwise).
  std::int32_t sign_of_digest(std::uint32_t r, std::uint64_t digest) const noexcept {
    return sign_hash_[r].sign_of_digest(digest);
  }

  /// Address of counter (r, col), for __builtin_prefetch by batch writers.
  const std::int64_t* counter_addr(std::uint32_t r, std::uint32_t col) const noexcept {
    return counters_.data() + std::size_t{r} * stride_ + col;
  }

  /// Raw counter write with a precomputed column (used by instrumented
  /// paths that separate hash cost from memory cost).
  void add_at(std::uint32_t r, std::uint32_t col, std::int64_t value) noexcept {
    counters_[std::size_t{r} * stride_ + col] += value;
    if (!dirty_.empty()) mark_dirty(r, col);
  }

  /// Per-row frequency estimate C[r][h_r(x)] * g_r(x), x as in
  /// update_row_digest.
  std::int64_t row_estimate_digest(std::uint32_t r, std::uint64_t digest) const noexcept {
    const std::uint32_t col = row_hash_[r].index_of_digest(digest);
    return counters_[std::size_t{r} * stride_ + col] * sign_hash_[r].sign_of_digest(digest);
  }

  std::span<const std::int64_t> row(std::uint32_t r) const noexcept {
    return {counters_.data() + std::size_t{r} * stride_, width_};
  }

  /// Mutable row view — used by the control-plane codec to load snapshots
  /// into a replica and by epoch-difference computations.  The caller may
  /// write any counter through the span, so with tracking enabled the
  /// whole row is conservatively marked dirty.
  std::span<std::int64_t> row_mut(std::uint32_t r) noexcept {
    if (!dirty_.empty()) mark_row_dirty(r);
    return {counters_.data() + std::size_t{r} * stride_, width_};
  }

  /// Sum of squared counters of row r — the per-row L2² estimator used by
  /// the AlwaysCorrect convergence test (Algorithm 1 line 14).
  /// Neumaier-compensated: on long streams the squared heavy-hitter
  /// counters dwarf the tail's, and naive left-to-right accumulation
  /// silently drops the small terms (everything below the running sum's
  /// ulp), perturbing the T = 121(1+ε√p)ε⁻⁴p⁻² threshold comparison.
  double row_sum_squares(std::uint32_t r) const noexcept {
    double sum = 0.0;
    double comp = 0.0;
    for (std::int64_t c : row(r)) {
      const double d = static_cast<double>(c);
      const double term = d * d;
      const double t = sum + term;
      if (std::abs(sum) >= term) {
        comp += (sum - t) + term;
      } else {
        comp += (term - t) + sum;
      }
      sum = t;
    }
    return sum + comp;
  }

  /// Sum of counters of row r (equals the L1 processed by that row when
  /// updates are unsigned).
  std::int64_t row_sum(std::uint32_t r) const noexcept {
    std::int64_t s = 0;
    for (std::int64_t c : row(r)) s += c;
    return s;
  }

  void clear() noexcept {
    std::fill(counters_.begin(), counters_.end(), 0);
    // Zeroing changes every counter that was nonzero; without scanning,
    // "everything may have changed" is the only safe dirty state.
    if (!dirty_.empty()) {
      for (std::uint32_t r = 0; r < depth_; ++r) mark_row_dirty(r);
    }
  }

  /// Two matrices are mergeable iff they were constructed with the same
  /// shape, seed and signedness — i.e. they share hash functions, so
  /// corresponding counters count the same (key, row) events.
  bool mergeable_with(const CounterMatrix& other) const noexcept {
    return depth_ == other.depth_ && width_ == other.width_ &&
           seed_ == other.seed_ && signed_updates() == other.signed_updates();
  }

  /// Element-wise accumulate (epoch / per-shard merging).  Throws unless
  /// `mergeable_with(other)`: merging sketches with different hash
  /// functions silently produces garbage, so the mismatch is an error.
  /// Identical shapes imply identical strides, and padding counters are
  /// zero on both sides, so accumulating the whole padded storage is
  /// exact.
  void merge(const CounterMatrix& other) {
    if (!mergeable_with(other)) {
      throw std::invalid_argument(
          "CounterMatrix::merge: shape/seed mismatch (sketches must be "
          "constructed identically to share hash functions)");
    }
    if (dirty_.empty()) {
      for (std::size_t i = 0; i < counters_.size(); ++i) counters_[i] += other.counters_[i];
    } else {
      // Mark exactly the segments the merge perturbs (other != 0), so an
      // epoch-boundary shard merge keeps the next delta frame proportional
      // to traffic rather than sketch size.
      for (std::uint32_t r = 0; r < depth_; ++r) {
        const std::size_t base = std::size_t{r} * stride_;
        for (std::uint32_t c = 0; c < stride_; ++c) {
          const std::int64_t v = other.counters_[base + c];
          if (v != 0) {
            counters_[base + c] += v;
            mark_dirty(r, c);
          }
        }
      }
    }
  }

  std::size_t memory_bytes() const noexcept { return counters_.size() * sizeof(std::int64_t); }

  const RowHash& row_hash(std::uint32_t r) const noexcept { return row_hash_[r]; }
  const SignHash& sign_hash(std::uint32_t r) const noexcept { return sign_hash_[r]; }

  // --- Dirty-segment tracking (delta checkpoints, DESIGN.md §15) -------
  //
  // One bit per kSegmentCounters-counter segment per row, set by every
  // counter write and cleared only at a checkpoint frame cut.  "Dirty"
  // means "may have changed since the last clear_dirty()" — conservative
  // over-marking (row_mut, clear, merge) is always safe because the delta
  // codec overwrites touched segments onto the base rather than adding.

  /// Turn tracking on (all-dirty initially: nothing is known about the
  /// counters relative to any earlier frame).  Idempotent.
  void enable_dirty_tracking() {
    if (!dirty_.empty()) return;
    segment_words_per_row_ = (segments_per_row() + 63) / 64;
    dirty_.assign(std::size_t{depth_} * segment_words_per_row_, 0);
    for (std::uint32_t r = 0; r < depth_; ++r) mark_row_dirty(r);
  }

  bool dirty_tracking() const noexcept { return !dirty_.empty(); }

  /// Segments per row as stored (covers the padded stride, so the last
  /// segment may extend past width() into permanently-zero padding).
  std::uint32_t segments_per_row() const noexcept {
    return (stride_ + kSegmentCounters - 1) / kSegmentCounters;
  }

  bool segment_dirty(std::uint32_t r, std::uint32_t seg) const noexcept {
    const std::size_t w = std::size_t{r} * segment_words_per_row_ + seg / 64;
    return (dirty_[w] >> (seg % 64)) & 1u;
  }

  /// Frame cut: from here on, dirty bits track changes relative to the
  /// checkpoint frame the caller just serialized.
  void clear_dirty() noexcept {
    std::fill(dirty_.begin(), dirty_.end(), 0);
  }

  std::uint64_t dirty_segment_count() const noexcept {
    std::uint64_t n = 0;
    for (std::uint64_t w : dirty_) n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
  }

 private:
  void mark_dirty(std::uint32_t r, std::uint32_t col) noexcept {
    const std::uint32_t seg = col / kSegmentCounters;
    dirty_[std::size_t{r} * segment_words_per_row_ + seg / 64] |= std::uint64_t{1}
                                                                  << (seg % 64);
  }

  /// All-ones over the *live* segment bits of bitmap word `w` — padding
  /// bits beyond segments_per_row() stay zero, so dirty_segment_count()
  /// popcounts are exact and "mark everything" never invents segments.
  std::uint64_t live_word_mask(std::uint32_t w) const noexcept {
    const std::uint32_t segs = segments_per_row();
    const std::uint32_t first = w * 64;
    if (first + 64 <= segs) return ~std::uint64_t{0};
    return (std::uint64_t{1} << (segs - first)) - 1;
  }

  void mark_row_dirty(std::uint32_t r) noexcept {
    const std::size_t base = std::size_t{r} * segment_words_per_row_;
    for (std::uint32_t w = 0; w < segment_words_per_row_; ++w) {
      dirty_[base + w] = live_word_mask(w);
    }
  }

  std::uint32_t depth_;
  std::uint32_t width_;
  std::uint32_t stride_;
  std::uint64_t seed_;
  CacheAlignedVector<std::int64_t> counters_;
  std::vector<RowHash> row_hash_;
  std::vector<SignHash> sign_hash_;
  // Empty when tracking is off (the common case: only checkpointing
  // monitors enable it).
  std::vector<std::uint64_t> dirty_;
  std::uint32_t segment_words_per_row_ = 0;
};

}  // namespace nitro::sketch
