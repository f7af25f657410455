// Wire codec for data-plane -> control-plane sketch transfer (§6: the
// control plane "periodically receives sketching data from the data plane
// module through a 1GbE link").
//
// Snapshots carry counters, heavy-key entries, and stream totals — not the
// hash functions.  The control plane therefore keeps an identically
// seeded *replica* sketch (see xport::CollectorCore) and loads the
// snapshot into it; this mirrors how the real system shares seeds between
// vswitchd and the monitoring controller.  All integers little-endian,
// bounds-checked on read.
//
// Every snapshot is wrapped in a versioned frame with a CRC-32 over the
// payload (seal_frame / open_frame below), so a truncated, bit-flipped or
// torn buffer is rejected with a clear error instead of loading a silently
// wrong sketch — the transfer link and the checkpoint files share this
// armor.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/crc32.hpp"
#include "sketch/counter_matrix.hpp"
#include "sketch/topk.hpp"
#include "sketch/univmon.hpp"

namespace nitro::control {

class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof v); }
  void put_f64(double v) { put_raw(&v, sizeof v); }

  void put_key(const FlowKey& k) { put_raw(&k, sizeof k); }

  /// LEB128: seven bits per byte, low group first, high bit = "more".
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Length-prefixed byte string (nested snapshots inside checkpoints).
  void put_blob(std::span<const std::uint8_t> bytes) {
    put_u64(bytes.size());
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  void put_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8() { return get_raw<std::uint8_t>(); }
  std::uint32_t get_u32() { return get_raw<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_raw<std::uint64_t>(); }
  std::int64_t get_i64() { return get_raw<std::int64_t>(); }
  double get_f64() { return get_raw<double>(); }
  FlowKey get_key() { return get_raw<FlowKey>(); }

  /// Canonical LEB128 written by put_varint.  A padded encoding (a zero
  /// final group after the first byte) and one past 64 bits are rejected,
  /// so every value has exactly one accepted encoding.
  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (pos_ >= data_.size()) {
        throw std::out_of_range("ByteReader: truncated varint");
      }
      const std::uint8_t b = data_[pos_++];
      if (shift == 63 && b > 1) {
        throw std::invalid_argument("snapshot: varint overflows 64 bits");
      }
      v |= std::uint64_t{b & 0x7fu} << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift != 0) {
          throw std::invalid_argument("snapshot: overlong varint");
        }
        return v;
      }
    }
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

  /// Length-prefixed byte string written by ByteWriter::put_blob.
  std::vector<std::uint8_t> get_blob() {
    const std::uint64_t n = get_u64();
    if (n > remaining()) {
      throw std::out_of_range("ByteReader: truncated blob");
    }
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += static_cast<std::size_t>(n);
    return out;
  }

 private:
  template <typename T>
  T get_raw() {
    if (pos_ + sizeof(T) > data_.size()) {
      throw std::out_of_range("ByteReader: truncated snapshot");
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- Integrity frames ------------------------------------------------------

/// Frame layout: magic u32 | version u32 | payload_len u64 | crc32 u32 |
/// payload.  The CRC covers the payload only; the fixed-size header fields
/// are each validated explicitly so every corruption mode gets a distinct,
/// debuggable error.
inline constexpr std::uint32_t kFrameMagic = 0x4e46524du;  // "NFRM"
/// Version 2 carries counters as sparse cells (write_matrix); version-1
/// frames held dense rows and are rejected by number.
inline constexpr std::uint32_t kFrameVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 4;

/// Wrap `payload` in a versioned, CRC-protected frame.
std::vector<std::uint8_t> seal_frame(std::span<const std::uint8_t> payload);

/// Decoded fixed-size frame header (magic already validated and stripped).
/// Stream transports read kFrameHeaderBytes, call this to learn
/// payload_len, then read exactly that many payload bytes — the frame is
/// self-delimiting on a byte stream.
struct FrameHeader {
  std::uint32_t version = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t crc = 0;
};

/// Validate magic and version of the first kFrameHeaderBytes of `bytes`
/// and return the parsed header.  Throws std::invalid_argument on a short
/// buffer, bad magic or unsupported version — a stream reader treats any
/// throw as a poisoned connection.
FrameHeader parse_frame_header(std::span<const std::uint8_t> bytes);

/// Validate and strip the frame, returning a view of the payload.  Throws
/// std::invalid_argument with a specific reason for zero-length input,
/// truncated headers/payloads, bad magic, unknown versions, trailing
/// garbage and CRC mismatches — never UB, never a silently bad sketch.
std::span<const std::uint8_t> open_frame(std::span<const std::uint8_t> bytes);

// --- Counter matrices ------------------------------------------------------
//
// Counters travel sparse: a sampled epoch writes a sliver of its sketch,
// so each encoded span of counters (a matrix row, or a delta run) is a
// varint count of its non-zero cells followed by that many
// (index-gap varint, zig-zag value varint) pairs in increasing index
// order.  The first gap is the cell's index; each later gap counts the
// zero cells skipped since the previous one.  A zero value is never
// written, so the encoding of a span is unique.  For |v| < 2^48 a pair
// costs at most 8 bytes, so even a fully dense span is no larger than
// the int64 array it encodes.

/// Serializes shape + counters (hash seeds travel out of band).
void write_matrix(ByteWriter& w, const sketch::CounterMatrix& m);

/// Loads counters into an identically shaped replica; throws
/// std::invalid_argument on shape mismatch.  The whole image is decoded
/// before the replica is written, so a malformed one leaves it untouched.
void read_matrix_into(ByteReader& r, sketch::CounterMatrix& m);

// --- Counter-matrix deltas (delta checkpoints, DESIGN.md §15) --------------

/// Serializes only the dirty segments of `m` (kSegmentCounters-counter
/// runs touched since the last clear_dirty), as run-length-encoded
/// (start_segment, length) runs followed by one sparse span per run
/// holding the run's non-zero live counters.  Requires dirty tracking
/// enabled; throws std::logic_error otherwise.  Padding counters are
/// never written.
void write_matrix_delta(ByteWriter& w, const sketch::CounterMatrix& m);

/// Overwrites the touched segments of `m` with the delta's counters: each
/// run is zero-filled, then its cells written (the untouched rest of the
/// base is left intact — dirty means "may have changed", so
/// overwrite-onto-base reproduces the source exactly).  Throws
/// std::invalid_argument on shape mismatch, out-of-range runs,
/// unordered/overlapping runs, a malformed span or a bad magic, and
/// leaves `m` untouched when it does.
void apply_matrix_delta(ByteReader& r, sketch::CounterMatrix& m);

// --- Heavy-key stores ------------------------------------------------------

void write_heap(ByteWriter& w, const sketch::TopKHeap& heap);

/// Loads a write_heap image: at most the heap's capacity of entries, in
/// the canonical entries_sorted() order (which also rules out duplicate
/// keys).  Throws std::invalid_argument otherwise.
void read_heap_into(ByteReader& r, sketch::TopKHeap& heap);

// --- UnivMon snapshots ------------------------------------------------------

/// Full data-plane snapshot: every level's counters + heap + the total.
std::vector<std::uint8_t> snapshot_univmon(const sketch::UnivMon& um);

/// Opens and fully validates a snapshot against `cfg`'s shape, returning
/// it in sparse form, tagged with `seed` (the seed the snapshot was
/// hashed with; UnivMon::merge checks it).  Needs no sketch, so the
/// collector runs it with no lock held.
sketch::SparseUnivMon decode_univmon(std::span<const std::uint8_t> bytes,
                                     const sketch::UnivMonConfig& cfg,
                                     std::uint64_t seed);

/// Loads a snapshot into a replica constructed with the same config+seed.
/// A malformed snapshot throws and leaves the replica untouched.
void load_univmon(std::span<const std::uint8_t> bytes, sketch::UnivMon& replica);

/// Delta snapshot: per-level dirty-segment runs plus full heaps (heaps are
/// already traffic-bounded, so they are replaced whole) and the total.
/// CRC-framed like snapshot_univmon.  Requires dirty tracking on `um`.
std::vector<std::uint8_t> snapshot_univmon_delta(const sketch::UnivMon& um);

/// Applies a delta snapshot onto `replica`, which must hold the exact
/// state of the frame the delta was cut against (the base).  Touched
/// segments are overwritten, heaps replaced, total overwritten.
void apply_univmon_delta(std::span<const std::uint8_t> bytes,
                         sketch::UnivMon& replica);

}  // namespace nitro::control
