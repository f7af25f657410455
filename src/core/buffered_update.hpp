// Buffered counter updates with batched hashing (Idea D, §4.2).
//
// Sampled updates are queued and applied in groups.  A full group's
// flow-key digests go through the widest batched xxHash64 kernel the
// machine has (flow_digest_x16 on AVX-512, flow_digest_x8 on AVX2 — one
// lane per key, the mixing chains kept in vector registers); a partial
// group, which only an external flush() produces, takes the scalar tail.
// Columns and signs are then resolved for the whole group and the target
// counter lines prefetched ahead of the write pass.  The group width and
// the prefetch distance are runtime-configurable (NitroConfig
// digest_batch / prefetch_window) so ingest backends with different
// memory behavior can tune how much overlap the memory system is given.
// Ablated in Figure 9b.
#pragma once

#include <array>
#include <cstdint>

#include "common/flow_key.hpp"
#include "common/simd_hash.hpp"
#include "sketch/counter_matrix.hpp"

namespace nitro::core {

class BufferedUpdater {
 public:
  /// Widest group the queue can hold (the x16 kernel's width).
  static constexpr std::size_t kBatchMax = 16;

  struct Pending {
    FlowKey key;
    std::uint32_t row = 0;
    std::int64_t delta = 0;
  };

  /// `batch` 0 picks the widest kernel available at runtime
  /// (simd_digest_batch(): 16 on AVX-512, 8 otherwise); explicit values
  /// are clamped to [1, kBatchMax].  `prefetch_window` 0 prefetches the
  /// whole group during the resolve pass (maximum overlap); a smaller
  /// window software-pipelines the prefetches through the write pass,
  /// keeping at most `window` lines in flight — backends whose packets
  /// already stream through cache (mmap replay) want a short window so
  /// the hints don't evict their own working set.
  explicit BufferedUpdater(std::size_t batch = 0, std::size_t prefetch_window = 0)
      : batch_(batch == 0 ? simd_digest_batch() : batch) {
    if (batch_ > kBatchMax) batch_ = kBatchMax;
    if (batch_ == 0) batch_ = 1;
    window_ = (prefetch_window == 0 || prefetch_window > batch_) ? batch_
                                                                 : prefetch_window;
  }

  /// Queue one sampled update.  Returns true when the batch filled up and
  /// was flushed into `matrix` (callers that track top keys refresh their
  /// heap after a flush).
  bool push(sketch::CounterMatrix& matrix, const FlowKey& key, std::uint32_t row,
            std::int64_t delta) {
    // Overflow guard: if a caller (or a reentrant external flush) ever
    // leaves the batch full without resetting count_, drain it before
    // admitting the new entry instead of writing past the array.
    if (count_ == batch_) flush(matrix);
    pending_[count_++] = {key, row, delta};
    if (count_ < batch_) return false;
    flush(matrix);
    return true;
  }

  /// Apply all queued updates in three passes: digest the whole group,
  /// resolve (column, sign) and prefetch up to `window` counter lines,
  /// then write (prefetching the line `window` slots ahead as each
  /// counter is retired).
  void flush(sketch::CounterMatrix& matrix) {
    if (count_ == 0) return;
    std::array<std::uint64_t, kBatchMax> digests;
    {
      // Widest-kernel-first (flow_digests): anything short of a full group
      // (external flush mid-batch, or an odd configured width) takes the
      // scalar tail.  The keys must be contiguous for the gather loads, so
      // copy them out of Pending.
      std::array<FlowKey, kBatchMax> keys;
      for (std::size_t i = 0; i < count_; ++i) keys[i] = pending_[i].key;
      flow_digests(keys.data(), count_, digests.data());
    }
    std::array<std::uint32_t, kBatchMax> cols;
    std::array<std::int32_t, kBatchMax> signs;
    for (std::size_t i = 0; i < count_; ++i) {
      const std::uint32_t r = pending_[i].row;
      cols[i] = matrix.column_of_digest(r, digests[i]);
      signs[i] = matrix.sign_of_digest(r, digests[i]);
#if defined(__GNUC__)
      // Rows are cache-line aligned (CounterMatrix padding), so each
      // resolved counter is one line: prefetch the first `window` lines
      // now; the rest are issued from the write pass as slots free up.
      if (i < window_) __builtin_prefetch(matrix.counter_addr(r, cols[i]), 1, 3);
#endif
    }
    for (std::size_t i = 0; i < count_; ++i) {
#if defined(__GNUC__)
      if (i + window_ < count_) {
        __builtin_prefetch(
            matrix.counter_addr(pending_[i + window_].row, cols[i + window_]), 1, 3);
      }
#endif
      matrix.add_at(pending_[i].row, cols[i], pending_[i].delta * signs[i]);
    }
    count_ = 0;
    ++flushes_;
  }

  std::size_t pending() const noexcept { return count_; }

  /// Configured group width (8 or 16 in the auto modes).
  std::size_t batch() const noexcept { return batch_; }

  /// Lines kept in flight by the prefetch pipeline (== batch() when the
  /// whole group is prefetched up front).
  std::size_t prefetch_window() const noexcept { return window_; }

  /// Batches drained so far (telemetry publishes this as
  /// `*_buffer_batch_flushes_total`).
  std::uint64_t flushes() const noexcept { return flushes_; }

 private:
  std::array<Pending, kBatchMax> pending_{};
  std::size_t count_ = 0;
  std::size_t batch_ = 8;
  std::size_t window_ = 8;
  std::uint64_t flushes_ = 0;
};

}  // namespace nitro::core
