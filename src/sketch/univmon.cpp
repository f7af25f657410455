#include "sketch/univmon.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"

namespace nitro::sketch {

namespace {

/// Union `other`'s heavy keys into `heap` at their estimates from the
/// (just merged) counters, then refresh the survivors: the merge changed
/// every estimate.
template <typename Entries>
void union_heap(const CountSketch& cs, TopKHeap& heap, const Entries& other) {
  const auto estimate = [&cs](const FlowKey& k) { return cs.query(k); };
  heap.merge(other, [&estimate](const FlowKey& k, std::int64_t) { return estimate(k); });
  heap.refresh(estimate);
}

}  // namespace

UnivMon::UnivMon(const UnivMonConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), seed_(seed), level_seed_(mix64(seed ^ 0x1e7e15e1ULL)) {
  SplitMix64 sm(seed);
  levels_.reserve(cfg.levels);
  for (std::uint32_t j = 0; j < cfg.levels; ++j) {
    levels_.emplace_back(cfg.depth, cfg.width_at(j), cfg.heap_capacity, sm.next(),
                         cfg.heap_margin);
  }
}

void UnivMon::update(const FlowKey& key, std::int64_t count) {
  total_ += count;
  const std::uint64_t digest = flow_digest(key);
  const std::uint32_t z = level_of_digest(digest);
  for (std::uint32_t j = 0; j <= z; ++j) {
    Level& lv = levels_[j];
    lv.cs.update_digest(digest, count);
    lv.heap.offer(key, lv.cs.query_digest(digest));
  }
}

double UnivMon::estimate_gsum(const std::function<double(double)>& g) const {
  const auto L = static_cast<std::int32_t>(levels_.size());
  double y_next = 0.0;  // Y_{j+1}

  for (std::int32_t j = L - 1; j >= 0; --j) {
    const Level& lv = levels_[static_cast<std::size_t>(j)];
    double y = (j == L - 1) ? 0.0 : 2.0 * y_next;
    for (const auto& e : lv.heap.entries_sorted()) {
      const double fx = static_cast<double>(std::max<std::int64_t>(e.estimate, 1));
      if (j == L - 1) {
        y += g(fx);
      } else {
        const bool promoted =
            level_of(e.key) >= static_cast<std::uint32_t>(j) + 1;
        y += g(fx) * (1.0 - 2.0 * (promoted ? 1.0 : 0.0));
      }
    }
    y_next = y;
  }
  return y_next;
}

double UnivMon::estimate_entropy() const {
  if (total_ <= 0) return 0.0;
  const double m = static_cast<double>(total_);
  const double gsum = estimate_gsum([](double f) { return xlog2x(f); });
  // Entropy is bounded by [0, log2(m)]; estimator noise at deep levels can
  // push the raw G-sum outside the feasible range, so clamp.
  const double h = std::log2(m) - gsum / m;
  return std::clamp(h, 0.0, std::log2(m));
}

double UnivMon::estimate_distinct() const {
  const double d = estimate_gsum([](double) { return 1.0; });
  return std::max(d, 0.0);
}

double UnivMon::estimate_moment(double k) const {
  const double m = estimate_gsum([k](double f) { return std::pow(f, k); });
  return std::max(m, 0.0);
}

std::vector<TopKHeap::Entry> UnivMon::heavy_hitters(std::int64_t threshold) const {
  std::vector<TopKHeap::Entry> out;
  for (const auto& e : levels_[0].heap.entries_sorted()) {
    if (e.estimate >= threshold) out.push_back(e);
  }
  return out;
}

void UnivMon::merge(const UnivMon& other) {
  if (other.levels_.size() != levels_.size()) {
    throw std::invalid_argument("UnivMon::merge: level count mismatch");
  }
  total_ += other.total_;
  for (std::size_t j = 0; j < levels_.size(); ++j) {
    levels_[j].cs.merge(other.levels_[j].cs);
  }
  // Union the heavy keys; their estimates come from the merged counters.
  for (std::size_t j = 0; j < levels_.size(); ++j) {
    union_heap(levels_[j].cs, levels_[j].heap, other.levels_[j].heap);
  }
}

void UnivMon::merge(const SparseUnivMon& image) {
  if (image.levels.size() != levels_.size()) {
    throw std::invalid_argument("UnivMon::merge: level count mismatch");
  }
  if (image.seed != seed_) {
    throw std::invalid_argument(
        "UnivMon::merge: seed mismatch (sketches must be constructed "
        "identically to share hash functions)");
  }
  for (std::size_t j = 0; j < levels_.size(); ++j) {
    const CounterMatrix& m = levels_[j].cs.matrix();
    for (const MatrixCell& c : image.levels[j].cells) {
      if (c.row >= m.depth() || c.col >= m.width()) {
        throw std::invalid_argument("UnivMon::merge: cell outside the level's matrix");
      }
    }
  }
  total_ += image.total;
  for (std::size_t j = 0; j < levels_.size(); ++j) {
    CounterMatrix& m = levels_[j].cs.matrix();
    for (const MatrixCell& c : image.levels[j].cells) m.add_at(c.row, c.col, c.value);
  }
  // Same heap union as the dense merge, in the image's entry order.
  for (std::size_t j = 0; j < levels_.size(); ++j) {
    union_heap(levels_[j].cs, levels_[j].heap,
               std::span<const TopKHeap::Entry>(image.levels[j].heap));
  }
}

std::uint64_t UnivMon::heap_evictions() const noexcept {
  std::uint64_t n = 0;
  for (const auto& lv : levels_) n += lv.heap.evictions();
  return n;
}

std::size_t UnivMon::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& lv : levels_) bytes += lv.cs.memory_bytes() + lv.heap.memory_bytes();
  return bytes;
}

void UnivMon::clear() {
  for (auto& lv : levels_) {
    lv.cs.clear();
    lv.heap.clear();
  }
  total_ = 0;
}

}  // namespace nitro::sketch
