// SIMD batched hashing — paper Idea D.
//
// Flow keys are hashed with xxHash in parallel lanes, the whole mixing
// chain kept in vector registers.  Three tiers, all bit-identical to the
// scalar nitro::xxhash32/xxhash64 (verified in tests):
//   x8  — AVX2, one YMM lane per key (compile-time: -mavx2)
//   x16 — AVX-512F/DQ, one ZMM lane per key, runtime-dispatched: the
//         binary carries the kernel whenever the compiler can target
//         AVX-512, and falls back to two x8 calls (or scalar lanes) on
//         hardware without it
// The active tier is reported by simd_isa(); BufferedUpdater sizes its
// digest batch from simd_digest_batch() so the widest available kernel is
// the one full groups flow through.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/flow_key.hpp"

namespace nitro {

/// Hash 8 contiguous flow keys with xxHash32(seed); out[i] corresponds to
/// keys[i].  Results match xxhash32(&keys[i], sizeof(FlowKey), seed).
void xxhash32_x8_flowkeys(const FlowKey keys[8], std::uint32_t seed,
                          std::uint32_t out[8]) noexcept;

/// Hash 8 contiguous flow keys with xxHash64(seed); out[i] corresponds to
/// keys[i].  Results match xxhash64(&keys[i], sizeof(FlowKey), seed).  The
/// AVX2 path keeps four 64-bit lanes per YMM register (two registers for
/// the batch) and emulates the missing 64-bit vector multiply with
/// 32x32-bit partial products.
void xxhash64_x8_flowkeys(const FlowKey keys[8], std::uint64_t seed,
                          std::uint64_t out[8]) noexcept;

/// Hash 16 contiguous flow keys with xxHash64(seed).  Runtime-dispatched:
/// on AVX-512F/DQ hardware (when the build carries the kernel) the batch
/// runs eight 64-bit lanes per ZMM register with native vpmullq; otherwise
/// it decomposes into two x8 calls.  Always bit-identical to the scalar
/// xxhash64 per lane.
void xxhash64_x16_flowkeys(const FlowKey keys[16], std::uint64_t seed,
                           std::uint64_t out[16]) noexcept;

/// Batched flow_digest(): out[i] == flow_digest(keys[i]).  This is the
/// kernel BufferedUpdater::flush feeds full batches of 8 through (Idea D:
/// the hash mixing chains of a batch run in parallel lanes).
inline void flow_digest_x8(const FlowKey keys[8], std::uint64_t out[8]) noexcept {
  xxhash64_x8_flowkeys(keys, kFlowDigestSeed, out);
}

/// Widened batched flow_digest(): out[i] == flow_digest(keys[i]) for 16
/// keys.  Full 16-groups of BufferedUpdater flow through this on AVX-512
/// hardware.
inline void flow_digest_x16(const FlowKey keys[16], std::uint64_t out[16]) noexcept {
  xxhash64_x16_flowkeys(keys, kFlowDigestSeed, out);
}

/// out[i] == flow_digest(keys[i]) for any n: full 16-groups take the x16
/// kernel, a full 8-group the x8 kernel, and the rest scalar lanes.  The
/// burst paths (NitroUnivMon, ShardGroup dispatch, BufferedUpdater) digest
/// every key through this once and hand the digest down.
inline void flow_digests(const FlowKey* keys, std::size_t n, std::uint64_t* out) noexcept {
  std::size_t i = 0;
  for (; n - i >= 16; i += 16) flow_digest_x16(keys + i, out + i);
  if (n - i >= 8) {
    flow_digest_x8(keys + i, out + i);
    i += 8;
  }
  for (; i < n; ++i) out[i] = flow_digest(keys[i]);
}

/// True when the build carries the AVX2 code path (informational; the
/// functions above are always correct either way).
bool simd_hash_available() noexcept;

/// The widest batched-hash tier usable on THIS machine with THIS binary
/// (build capability AND runtime CPUID agree).
enum class SimdIsa { kScalar, kAvx2, kAvx512 };
SimdIsa simd_isa() noexcept;

/// "scalar" | "avx2" | "avx512" — stamped into bench JSON sidecars so
/// recorded numbers are attributable to the kernel that produced them.
const char* simd_isa_name() noexcept;

/// Digest batch width the widest available kernel wants (16 on AVX-512,
/// 8 otherwise).  BufferedUpdater's auto width.
std::size_t simd_digest_batch() noexcept;

namespace detail {
/// AVX-512 kernel entry (only defined when the build carries it); callers
/// go through xxhash64_x16_flowkeys, which owns the runtime dispatch.
void xxhash64_x16_flowkeys_avx512(const FlowKey keys[16], std::uint64_t seed,
                                  std::uint64_t out[16]) noexcept;
bool avx512_kernel_compiled() noexcept;
}  // namespace detail

}  // namespace nitro
