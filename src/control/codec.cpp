#include "control/codec.hpp"

#include <algorithm>
#include <string>

namespace nitro::control {

namespace {
constexpr std::uint32_t kMatrixMagic = 0x4e4d5458;  // "NMTX"
constexpr std::uint32_t kHeapMagic = 0x4e484150;    // "NHAP"
constexpr std::uint32_t kUnivMagic = 0x4e554d31;    // "NUM1"
constexpr std::uint32_t kMatrixDeltaMagic = 0x4e4d4458;  // "NMDX"
constexpr std::uint32_t kUnivDeltaMagic = 0x4e554d44;    // "NUMD"

/// Live counters a run of `len` segments from `start` covers in a matrix
/// of width `width` (the last segment may be short; padding is never
/// serialized).
std::uint32_t run_live(std::uint32_t start, std::uint32_t len, std::uint32_t width) {
  const std::uint32_t first = start * sketch::CounterMatrix::kSegmentCounters;
  const std::uint32_t last =
      std::min(first + len * sketch::CounterMatrix::kSegmentCounters, width);
  return last > first ? last - first : 0;
}

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>((u >> 1) ^ (0 - (u & 1)));
}

/// Shape header shared by the full and delta matrix layouts.
void check_shape(ByteReader& r, std::uint32_t magic, const sketch::CounterMatrix::Shape& want,
                 const char* bad_magic, const char* bad_shape) {
  if (r.get_u32() != magic) throw std::invalid_argument(bad_magic);
  const std::uint32_t depth = r.get_u32();
  const std::uint32_t width = r.get_u32();
  const bool is_signed = r.get_u8() != 0;
  if (depth != want.depth || width != want.width || is_signed != want.is_signed) {
    throw std::invalid_argument(bad_shape);
  }
}

/// Counters [first, first + len) of one row.
struct CounterRange {
  std::uint32_t row = 0;
  std::uint32_t first = 0;
  std::uint32_t len = 0;
};

/// Write decoded `cells` (in row order) into `m`.  Callers decode the
/// whole image first, so a malformed one never half-writes the matrix.
void write_cells(sketch::CounterMatrix& m, std::span<const sketch::MatrixCell> cells) {
  std::span<std::int64_t> dst;
  std::uint32_t dst_row = ~0u;
  for (const sketch::MatrixCell& c : cells) {
    if (c.row != dst_row) {
      dst = m.row_mut(c.row);
      dst_row = c.row;
    }
    dst[c.col] = c.value;
  }
}

/// Writes the non-zero cells of `cells` as one sparse span (codec.hpp).
void write_sparse_span(ByteWriter& w, std::span<const std::int64_t> cells) {
  std::uint64_t nonzero = 0;
  for (std::int64_t v : cells) nonzero += v != 0 ? 1 : 0;
  w.put_varint(nonzero);
  std::size_t next = 0;  // first index the next gap counts from
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i] == 0) continue;
    w.put_varint(i - next);
    w.put_varint(zigzag(cells[i]));
    next = i + 1;
  }
}

/// Reads one sparse span of `len` counters, appending its cells to `out`
/// as (row, base + index, value).
void read_sparse_span(ByteReader& r, std::uint32_t len, std::uint32_t row,
                      std::uint32_t base, std::vector<sketch::MatrixCell>& out) {
  const std::uint64_t count = r.get_varint();
  if (count > len) {
    throw std::invalid_argument("snapshot: sparse cell count exceeds the span");
  }
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    // Compare before adding: a forged 64-bit gap must not wrap the index.
    const std::uint64_t gap = r.get_varint();
    if (gap >= len - next) {
      throw std::invalid_argument("snapshot: sparse cell index past the end of the span");
    }
    const std::int64_t value = unzigzag(r.get_varint());
    if (value == 0) {
      throw std::invalid_argument("snapshot: sparse cell with an explicit zero value");
    }
    const std::uint64_t index = next + gap;
    out.push_back({row, base + static_cast<std::uint32_t>(index), value});
    next = index + 1;
  }
}

/// Decodes a write_matrix image of `shape` into its non-zero cells, in
/// (row, col) order.
void read_matrix_cells(ByteReader& r, const sketch::CounterMatrix::Shape& shape,
                       std::vector<sketch::MatrixCell>& out) {
  check_shape(r, kMatrixMagic, shape, "snapshot: bad matrix magic",
              "snapshot: matrix shape mismatch with replica");
  for (std::uint32_t row = 0; row < shape.depth; ++row) {
    read_sparse_span(r, shape.width, row, 0, out);
  }
}

/// Decodes a write_heap image of at most `capacity` entries.
std::vector<sketch::TopKHeap::Entry> read_heap_entries(ByteReader& r,
                                                       std::size_t capacity) {
  if (r.get_u32() != kHeapMagic) {
    throw std::invalid_argument("snapshot: bad heap magic");
  }
  const std::uint32_t n = r.get_u32();
  if (n > capacity) {
    throw std::invalid_argument("snapshot: heap holds more entries than its capacity");
  }
  std::vector<sketch::TopKHeap::Entry> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sketch::TopKHeap::Entry e;
    e.key = r.get_key();
    e.estimate = r.get_i64();
    // entries_sorted() order: estimate descending, ties on ascending key.
    if (!entries.empty()) {
      const auto& prev = entries.back();
      if (prev.estimate < e.estimate ||
          (prev.estimate == e.estimate && !(prev.key < e.key))) {
        throw std::invalid_argument("snapshot: heap entries out of canonical order");
      }
    }
    entries.push_back(e);
  }
  return entries;
}

void assign_heap(sketch::TopKHeap& heap, std::span<const sketch::TopKHeap::Entry> entries) {
  heap.clear();
  for (const auto& e : entries) heap.offer(e.key, e.estimate);
}

}  // namespace

std::vector<std::uint8_t> seal_frame(std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.put_u32(kFrameMagic);
  w.put_u32(kFrameVersion);
  w.put_u64(payload.size());
  w.put_u32(crc32(payload));
  std::vector<std::uint8_t> out = std::move(w).take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameHeader parse_frame_header(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) {
    throw std::invalid_argument("frame: zero-length buffer");
  }
  if (bytes.size() < kFrameHeaderBytes) {
    throw std::invalid_argument("frame: truncated header");
  }
  ByteReader r(bytes);
  if (r.get_u32() != kFrameMagic) {
    throw std::invalid_argument("frame: bad magic");
  }
  FrameHeader h;
  h.version = r.get_u32();
  if (h.version != kFrameVersion) {
    throw std::invalid_argument("frame: unsupported version " +
                                std::to_string(h.version));
  }
  h.payload_len = r.get_u64();
  h.crc = r.get_u32();
  return h;
}

std::span<const std::uint8_t> open_frame(std::span<const std::uint8_t> bytes) {
  const FrameHeader h = parse_frame_header(bytes);
  const std::span<const std::uint8_t> payload = bytes.subspan(kFrameHeaderBytes);
  if (h.payload_len != payload.size()) {
    throw std::invalid_argument(
        h.payload_len > payload.size() ? "frame: truncated payload"
                                       : "frame: trailing bytes after payload");
  }
  if (crc32(payload) != h.crc) {
    throw std::invalid_argument("frame: CRC mismatch (corrupt payload)");
  }
  return payload;
}

void write_matrix(ByteWriter& w, const sketch::CounterMatrix& m) {
  w.put_u32(kMatrixMagic);
  w.put_u32(m.depth());
  w.put_u32(m.width());
  w.put_u8(m.signed_updates() ? 1 : 0);
  for (std::uint32_t r = 0; r < m.depth(); ++r) write_sparse_span(w, m.row(r));
}

void read_matrix_into(ByteReader& r, sketch::CounterMatrix& m) {
  std::vector<sketch::MatrixCell> cells;
  read_matrix_cells(r, m.shape(), cells);
  m.clear();
  write_cells(m, cells);
}

void write_matrix_delta(ByteWriter& w, const sketch::CounterMatrix& m) {
  if (!m.dirty_tracking()) {
    throw std::logic_error(
        "delta: dirty tracking not enabled on the source matrix");
  }
  w.put_u32(kMatrixDeltaMagic);
  w.put_u32(m.depth());
  w.put_u32(m.width());
  w.put_u8(m.signed_updates() ? 1 : 0);
  const std::uint32_t segs = m.segments_per_row();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  for (std::uint32_t r = 0; r < m.depth(); ++r) {
    // Coalesce adjacent dirty segments into (start, len) runs.
    runs.clear();
    for (std::uint32_t s = 0; s < segs; ++s) {
      if (!m.segment_dirty(r, s)) continue;
      if (!runs.empty() && runs.back().first + runs.back().second == s) {
        ++runs.back().second;
      } else {
        runs.emplace_back(s, 1);
      }
    }
    w.put_u32(static_cast<std::uint32_t>(runs.size()));
    for (const auto& [start, len] : runs) {
      w.put_u32(start);
      w.put_u32(len);
    }
    const auto row = m.row(r);
    for (const auto& [start, len] : runs) {
      const std::uint32_t first = start * sketch::CounterMatrix::kSegmentCounters;
      const std::uint32_t live = run_live(start, len, m.width());
      write_sparse_span(w, row.subspan(first, live));
    }
  }
}

void apply_matrix_delta(ByteReader& r, sketch::CounterMatrix& m) {
  check_shape(r, kMatrixDeltaMagic, m.shape(), "delta: bad matrix-delta magic",
              "delta: matrix shape mismatch with replica");
  const std::uint32_t width = m.width();
  const std::uint32_t segs =
      (width + sketch::CounterMatrix::kSegmentCounters - 1) /
      sketch::CounterMatrix::kSegmentCounters;
  std::vector<CounterRange> zero_ranges;
  std::vector<sketch::MatrixCell> cells;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  for (std::uint32_t row = 0; row < m.depth(); ++row) {
    const std::uint32_t run_count = r.get_u32();
    if (run_count > segs) {
      throw std::invalid_argument("delta: run count exceeds segments per row");
    }
    runs.clear();
    std::uint32_t next_free = 0;  // runs must be ordered and disjoint
    for (std::uint32_t i = 0; i < run_count; ++i) {
      const std::uint32_t start = r.get_u32();
      const std::uint32_t len = r.get_u32();
      if (len == 0) throw std::invalid_argument("delta: zero-length run");
      if (i > 0 && start < next_free) {
        throw std::invalid_argument("delta: unordered or overlapping runs");
      }
      if (start >= segs || len > segs - start) {
        throw std::invalid_argument("delta: run past the end of the row");
      }
      next_free = start + len;
      runs.emplace_back(start, len);
    }
    for (const auto& [start, len] : runs) {
      const std::uint32_t first = start * sketch::CounterMatrix::kSegmentCounters;
      const std::uint32_t live = run_live(start, len, width);
      zero_ranges.push_back({row, first, live});
      read_sparse_span(r, live, row, first, cells);
    }
  }
  for (const CounterRange& z : zero_ranges) {
    std::fill_n(m.row_mut(z.row).begin() + z.first, z.len, 0);
  }
  write_cells(m, cells);
}

void write_heap(ByteWriter& w, const sketch::TopKHeap& heap) {
  w.put_u32(kHeapMagic);
  const auto entries = heap.entries_sorted();
  w.put_u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.put_key(e.key);
    w.put_i64(e.estimate);
  }
}

void read_heap_into(ByteReader& r, sketch::TopKHeap& heap) {
  assign_heap(heap, read_heap_entries(r, heap.capacity()));
}

std::vector<std::uint8_t> snapshot_univmon(const sketch::UnivMon& um) {
  ByteWriter w;
  w.put_u32(kUnivMagic);
  w.put_u32(um.num_levels());
  w.put_i64(um.total());
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    write_matrix(w, um.level_sketch(j).matrix());
    write_heap(w, um.level_heap(j));
  }
  return seal_frame(w.bytes());
}

sketch::SparseUnivMon decode_univmon(std::span<const std::uint8_t> bytes,
                                     const sketch::UnivMonConfig& cfg,
                                     std::uint64_t seed) {
  ByteReader r(open_frame(bytes));
  if (r.get_u32() != kUnivMagic) {
    throw std::invalid_argument("snapshot: bad UnivMon magic");
  }
  const std::uint32_t levels = r.get_u32();
  if (levels != cfg.levels) {
    throw std::invalid_argument("snapshot: level count mismatch with replica");
  }
  sketch::SparseUnivMon out;
  out.seed = seed;
  out.total = r.get_i64();
  out.levels.resize(levels);
  for (std::uint32_t j = 0; j < levels; ++j) {
    // UnivMon levels are Count Sketches: signed updates.
    read_matrix_cells(r, {cfg.depth, cfg.width_at(j), /*is_signed=*/true},
                      out.levels[j].cells);
    out.levels[j].heap = read_heap_entries(r, cfg.heap_capacity);
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("snapshot: trailing bytes");
  }
  return out;
}

void load_univmon(std::span<const std::uint8_t> bytes, sketch::UnivMon& replica) {
  const sketch::SparseUnivMon image = decode_univmon(bytes, replica.config(), replica.seed());
  replica.set_total(image.total);
  for (std::uint32_t j = 0; j < replica.num_levels(); ++j) {
    sketch::CounterMatrix& m = replica.level_sketch_mut(j).matrix();
    m.clear();
    write_cells(m, image.levels[j].cells);
    assign_heap(replica.level_heap_mut(j), image.levels[j].heap);
  }
}

std::vector<std::uint8_t> snapshot_univmon_delta(const sketch::UnivMon& um) {
  ByteWriter w;
  w.put_u32(kUnivDeltaMagic);
  w.put_u32(um.num_levels());
  w.put_i64(um.total());
  for (std::uint32_t j = 0; j < um.num_levels(); ++j) {
    write_matrix_delta(w, um.level_sketch(j).matrix());
    write_heap(w, um.level_heap(j));
  }
  return seal_frame(w.bytes());
}

void apply_univmon_delta(std::span<const std::uint8_t> bytes,
                         sketch::UnivMon& replica) {
  ByteReader r(open_frame(bytes));
  if (r.get_u32() != kUnivDeltaMagic) {
    throw std::invalid_argument("delta: bad UnivMon-delta magic");
  }
  const std::uint32_t levels = r.get_u32();
  if (levels != replica.num_levels()) {
    throw std::invalid_argument("delta: level count mismatch with replica");
  }
  replica.set_total(r.get_i64());
  for (std::uint32_t j = 0; j < levels; ++j) {
    apply_matrix_delta(r, replica.level_sketch_mut(j).matrix());
    read_heap_into(r, replica.level_heap_mut(j));
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("delta: trailing bytes");
  }
}

}  // namespace nitro::control
