// Wire messages of the network-wide aggregation layer (DESIGN.md §11).
//
// Two message kinds travel over a monitor->collector byte stream, each
// wrapped in the codec's versioned CRC-32 frame (control/codec.hpp) so
// the stream shares the checkpoint/transfer armor — truncation, bit rot
// and torn buffers are rejected, never half-applied:
//
//   EpochMessage  monitor -> collector.  One sealed sketch snapshot plus
//                 delivery metadata: the sender's source id, a contiguous
//                 1-based sequence range [seq_first, seq_last] (a range
//                 wider than one element means backlogged epochs were
//                 coalesced into this snapshot), the covered epoch span,
//                 and the packet total for cross-checks.
//   AckMessage    collector -> monitor.  Acknowledges everything up to
//                 seq_last for the source; the exporter holds an epoch in
//                 its queue until acked, giving at-least-once delivery.
//                 The collector deduplicates by sequence range, so
//                 redelivery is idempotent (at-least-once + idempotent =
//                 effectively-once for the merged counters).
//
// FrameAssembler turns an arbitrary byte stream (TCP/Unix sockets chunk
// however they like) back into whole sealed frames, with a hard cap on
// the frame size so a corrupt length field cannot balloon memory.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "control/codec.hpp"
#include "core/epoch_span.hpp"

namespace nitro::xport {

inline constexpr std::uint32_t kEpochMsgMagic = 0x4e45504du;    // "NEPM"
inline constexpr std::uint32_t kAckMsgMagic = 0x4e45504bu;      // "NEPK"
inline constexpr std::uint32_t kRecoverReqMagic = 0x4e525251u;  // "NRRQ"
inline constexpr std::uint32_t kRecoverRespMagic = 0x4e525250u; // "NRRP"
/// The one wire version this tree speaks.  Monitor and collector build
/// from the same source, so there is no negotiation: every decoder
/// rejects any other version by name *before* reading a field, and an
/// old or newer peer never garbage-decodes a layout it does not know.
/// The layout carries the epoch-close/send timestamps (DESIGN.md §12),
/// the rejoin handshake (§15) and the seed generation (§16).
inline constexpr std::uint32_t kWireVersion = 4;

/// Frames larger than this are treated as stream corruption (a UnivMon
/// snapshot at paper scale is a few MB; 64 MiB leaves generous headroom).
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

struct EpochMessage {
  std::uint64_t source_id = 0;
  std::uint64_t seq_first = 1;  // 1-based, inclusive
  std::uint64_t seq_last = 1;   // inclusive; > seq_first after coalescing
  core::EpochSpan span;
  std::int64_t packets = 0;
  /// Freshness timestamps (monitor steady clock; 0 = unknown).
  /// epoch_close_ns is when the *newest* covered epoch closed at the
  /// source; send_ns is stamped at each delivery attempt, so close->send
  /// is queue+retry delay and send->receive is the wire.
  std::uint64_t epoch_close_ns = 0;
  std::uint64_t send_ns = 0;
  /// Seed generation of the snapshot (keyed rotation, DESIGN.md §16); 0
  /// from rotation-disabled monitors.  The collector
  /// merges each generation into its own replica — cross-generation
  /// sketches do not share hash functions and must never be merged.
  std::uint64_t seed_gen = 0;
  std::vector<std::uint8_t> snapshot;  // sealed sketch snapshot (codec frame)

  std::uint64_t epochs_covered() const noexcept { return seq_last - seq_first + 1; }
};

enum class AckStatus : std::uint8_t {
  kApplied = 1,         // merged into the collector's view
  kDuplicate = 2,       // already covered; dropped idempotently
  kOverlapDropped = 3,  // partial overlap with applied range; dropped whole
};

struct AckMessage {
  std::uint64_t source_id = 0;
  std::uint64_t seq_last = 0;  // everything <= seq_last is settled
  AckStatus status = AckStatus::kApplied;
};

/// Reverse-direction rejoin handshake (DESIGN.md §15).  A monitor
/// restarting with no usable local state asks the collector for its
/// last-applied replica; the response carries the collector's cumulative
/// sketch for the source plus the settled sequence number, so the monitor
/// can seed its state and resume exporting at last_seq + 1 without the
/// collector ever double-counting an epoch.
struct RecoverRequest {
  std::uint64_t source_id = 0;
};

struct RecoverResponse {
  std::uint64_t source_id = 0;
  /// False when the collector has never applied an epoch from this
  /// source — the monitor then starts fresh at seq 1.
  bool found = false;
  std::uint64_t last_seq = 0;  // everything <= last_seq is applied
  core::EpochSpan span;        // union of applied epoch spans
  std::int64_t packets = 0;    // cumulative applied packet count
  /// Seed generation of the replica snapshot, so the rejoining
  /// monitor rebuilds its baseline under the right derived seed.
  std::uint64_t seed_gen = 0;
  std::vector<std::uint8_t> snapshot;  // sealed UnivMon replica (empty if !found)
};

/// Serialize to a sealed frame ready for the socket.
std::vector<std::uint8_t> encode_epoch(const EpochMessage& msg);
std::vector<std::uint8_t> encode_ack(const AckMessage& ack);
std::vector<std::uint8_t> encode_recover_request(const RecoverRequest& req);
std::vector<std::uint8_t> encode_recover_response(const RecoverResponse& resp);

/// Validate (CRC frame + inner magic/version/sequence sanity) and decode.
/// Throws std::invalid_argument with a specific reason on any corruption.
EpochMessage decode_epoch(std::span<const std::uint8_t> frame);
AckMessage decode_ack(std::span<const std::uint8_t> frame);
RecoverRequest decode_recover_request(std::span<const std::uint8_t> frame);
RecoverResponse decode_recover_response(std::span<const std::uint8_t> frame);

/// Is this sealed frame an epoch message (vs an ack)?  Peeks the inner
/// magic without full validation; throws like open_frame on a bad frame.
std::uint32_t peek_message_magic(std::span<const std::uint8_t> frame);

/// Incremental reassembly of sealed frames from a byte stream.
///
///   FrameAssembler fa;
///   fa.feed(bytes_from_socket);
///   std::vector<std::uint8_t> frame;
///   while (fa.next_frame(frame)) { ... open/decode frame ... }
///
/// next_frame() returns complete frames (header + payload) in arrival
/// order.  A malformed header (bad magic/version, oversized length)
/// throws std::invalid_argument: framing on a byte stream cannot resync
/// after garbage, so the caller must drop the connection.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  bool next_frame(std::vector<std::uint8_t>& out);

  std::size_t buffered_bytes() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t max_frame_bytes_;
};

}  // namespace nitro::xport
