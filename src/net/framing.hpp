// Wire framing for the TCP transports: the u32 little-endian
// length-prefixed frame format, in two shapes.
//
//   FrameDecoder   — incremental reassembly for the event-driven server
//                    and other nonblocking readers: bytes arrive in
//                    arbitrary splits (a length prefix can straddle two
//                    reads), complete frames pop out. Hostile length
//                    prefixes are rejected when the header completes,
//                    before any payload allocation.
//   SendFrame /    — blocking helpers for the client transport's
//   RecvFrame        connections (and anything else holding a blocking
//                    fd).
//
// The payload of every frame on the daemon wire is a CRC32C-sealed
// message (src/common/wire): payload || u64 request id || u32 CRC.
// PeekTrailerId reads the request id straight out of those trailer bytes
// without verifying the seal — the key that matches a reply to its
// caller on a shared connection. Both ends apply the same rule to the
// same bytes, so even a frame that fails its CRC still correlates to the
// exchange that carried it (the kCorruption reply must reach the right
// waiter, not time out).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "common/status.hpp"

namespace pvfs::net {

/// Maximum accepted frame (guards against hostile length prefixes).
inline constexpr std::uint32_t kMaxFrameBytes = 256u << 20;

/// Byte size of the frame length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// The 4-byte little-endian length prefix for a `payload_len`-byte frame.
void EncodeFrameHeader(std::uint32_t payload_len,
                       unsigned char out[kFrameHeaderBytes]);

/// One wire frame (header + payload) as a single buffer, ready to send.
std::vector<std::byte> EncodeFrame(std::span<const std::byte> payload);

/// The request id sealed into a frame payload's trailer, read without
/// verifying the CRC (see header comment). 0 when the payload is shorter
/// than a trailer (no id can be carried).
std::uint64_t PeekTrailerId(std::span<const std::byte> payload);

/// Replace the sealed trailer of `payload` so it carries `request_id`
/// (re-sealing with a fresh CRC). A payload shorter than a trailer is
/// treated as an unsealed body and sealed whole. Used by the server to
/// guarantee every reply correlates to its request even when the service
/// had no ambient id (corrupt request, admission shed).
std::vector<std::byte> ResealWithId(std::vector<std::byte> payload,
                                    std::uint64_t request_id);

/// Incremental reassembly of length-prefixed frames from a byte stream.
/// Single-owner (one connection's reader); not thread-safe.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Buffer `data`, completing as many frames as it finishes. Returns
  /// kProtocol the moment a length prefix exceeds the frame limit —
  /// before any payload allocation — and the decoder stays failed (the
  /// connection is poisoned; close it).
  Status Feed(std::span<const std::byte> data);

  /// Pop the next complete frame payload, or nullopt when none is ready.
  std::optional<std::vector<std::byte>> Next();

  /// True when at least one complete frame is queued. Lets a reader under
  /// backpressure leave decoded frames parked here and drain them later.
  bool has_ready() const { return !ready_.empty(); }

  /// True when bytes of an incomplete frame (header or payload) are
  /// buffered — the "read pass ended mid-frame" signal the transport
  /// metrics count.
  bool has_partial() const {
    return header_filled_ > 0 || in_payload_;
  }

  /// Complete frames decoded over this decoder's lifetime.
  std::uint64_t frames_decoded() const { return frames_decoded_; }

  /// Bytes currently buffered: queued complete frames plus the partial
  /// frame under assembly.
  std::size_t buffered_bytes() const;

  bool failed() const { return failed_; }

 private:
  std::uint32_t max_frame_bytes_;
  std::deque<std::vector<std::byte>> ready_;
  std::vector<std::byte> partial_;
  unsigned char header_[kFrameHeaderBytes] = {};
  std::size_t header_filled_ = 0;
  bool in_payload_ = false;
  std::uint32_t payload_len_ = 0;
  std::uint64_t frames_decoded_ = 0;
  bool failed_ = false;
};

// ---- Blocking helpers (client connections) ---------------------------------

/// send() until done. Transmission failures surface as kUnavailable (the
/// peer may be restarting) or kDeadlineExceeded (an armed SO_SNDTIMEO
/// fired) — the codes the client retry layer treats as retryable.
Status SendAll(int fd, const void* data, std::size_t len);

/// Write one frame (header + payload) to a blocking fd.
Status SendFrame(int fd, std::span<const std::byte> payload);

/// Read one frame from a blocking fd. kUnavailable on EOF/reset,
/// kDeadlineExceeded when an armed SO_RCVTIMEO fires, kProtocol on a
/// hostile length prefix.
Result<std::vector<std::byte>> RecvFrame(int fd);

}  // namespace pvfs::net
