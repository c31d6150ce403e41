// File-system-wide constants and striping configuration.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace pvfs {

/// How a file's bytes are laid out across I/O daemons (paper Fig. 2):
/// stripe unit `ssize` bytes; global stripe g lives on server
/// (base + g) % pcount, packed densely in that server's local file.
struct Striping {
  ServerId base = 0;        // first I/O node used by the file
  std::uint32_t pcount = 8; // number of I/O nodes the file spans
  ByteCount ssize = 16384;  // stripe unit (paper's default, §4.1)

  friend bool operator==(const Striping&, const Striping&) = default;
};

/// Maximum contiguous file regions described in one I/O request's trailing
/// data. 64 keeps request + trailing data within a single 1500-byte
/// Ethernet frame (paper §3.3); tests assert the arithmetic.
inline constexpr std::uint32_t kMaxListRegions = 64;

/// Client-side data sieving buffer (paper §3.2: "We chose to set the data
/// sieving buffer at 32 MB for our testing purposes").
inline constexpr ByteCount kDefaultSieveBufferBytes = 32 * kMiB;

/// Client buffer-cache page (cache/bcache.hpp). 64 KiB amortizes the
/// per-request cost that dominates small noncontiguous accesses (paper
/// Fig. 9-11) while staying well under a stripe unit times pcount, so one
/// page fetch does not fan out across the whole cluster.
inline constexpr ByteCount kDefaultCachePageBytes = 64 * 1024;

/// Per-I/O-daemon service configuration (docs/server-scheduling.md).
///
/// Every daemon sorts the fragments a request assigns it by local offset
/// and merges adjacent/overlapping ones into single store accesses, the
/// paper's §5 "more intelligent scheduling of the data movement at the
/// server". The simulator models the 2002 one-access-per-entry behaviour
/// on its own (`SimClusterConfig::server_coalesces_entries`).
///
/// `max_queue_depth` bounds the daemon's admission queue on the threaded
/// and TCP transports: a request arriving while `max_queue_depth` requests
/// are already queued or in service is refused with the retryable kBusy
/// status instead of growing the queue without bound. 0 keeps the
/// historical unbounded queue.
struct ServerConfig {
  std::uint32_t max_list_regions = kMaxListRegions;
  std::uint32_t max_queue_depth = 0;
  /// Worker threads draining the TCP event loop's request queue
  /// (net::SocketServer::Options::worker_threads). Every worker takes the
  /// server's service mutex, so service stays serialized per daemon: a
  /// second worker overlaps only the hand-off of one reply (admission
  /// release, re-sealing, queueing it for the event loop) with the next
  /// request's service, never two Serve calls with each other.
  std::uint32_t transport_workers = 2;
};

}  // namespace pvfs
