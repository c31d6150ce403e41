// Shared pieces of the wall-clock benchmark: the deployment under test
// (manager + iods over loopback TCP, one client per load thread), the
// forwarding transport that times and captures every call, benchmark-side
// spans, the correctness oracle and the server-side registry snapshots.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/extent.hpp"
#include "common/status.hpp"
#include "io/access_pattern.hpp"
#include "net/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "pvfs/client.hpp"
#include "pvfs/config.hpp"
#include "pvfs/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nanoseconds since the benchmark's start (span timestamps).
std::int64_t NowNs();

/// Quantile of `samples` (q in [0, 1]) by linear interpolation between
/// order statistics; NaN when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Deterministic 64-bit hash of (key, index): the source of every payload
/// byte, so the same seed always produces the same inputs.
std::uint64_t Mix(std::uint64_t key, std::uint64_t index);

/// Byte `pos` of the data stream named `key` is byte pos % 8 of
/// Mix(key, pos / 8). Files are filled so that the byte at file offset F
/// is byte F of the stream, which makes the expected content of any read
/// computable from its file offsets alone.
void FillStream(std::span<std::byte> out, std::uint64_t key,
                std::uint64_t pos);

/// Walks the matched (memory offset, file offset, length) runs of a
/// pattern without materializing them (a FLASH pattern has ~10^6).
template <typename Fn>
void ForEachRun(const pvfs::io::AccessPattern& pattern, Fn&& fn) {
  std::size_t mi = 0, fi = 0;
  pvfs::ByteCount mdone = 0, fdone = 0;
  while (mi < pattern.memory.size() && fi < pattern.file.size()) {
    const pvfs::Extent& m = pattern.memory[mi];
    const pvfs::Extent& f = pattern.file[fi];
    const pvfs::ByteCount len =
        std::min(m.length - mdone, f.length - fdone);
    fn(m.offset + mdone, f.offset + fdone, len);
    mdone += len;
    fdone += len;
    if (mdone == m.length) ++mi, mdone = 0;
    if (fdone == f.length) ++fi, fdone = 0;
  }
}

/// Byte-for-byte comparison of what the program returned with what it
/// must return. ArmCorruption() flips one expected byte of the next
/// comparison, so a self-check can prove a mismatch is counted.
class Oracle {
 public:
  void ArmCorruption() { corrupt_next_.store(true); }
  /// True iff `actual` equals `expected`.
  bool Equal(std::span<const std::byte> actual,
             std::span<const std::byte> expected);
  /// True iff `buffer` holds stream `key` at the file offsets `pattern`
  /// maps it to.
  bool MatchesStream(std::span<const std::byte> buffer,
                     const pvfs::io::AccessPattern& pattern,
                     std::uint64_t key);

 private:
  std::atomic<bool> corrupt_next_{false};
};

/// Stream `key` written into `buffer` at the memory side of `pattern`.
void FillPattern(std::span<std::byte> buffer,
                 const pvfs::io::AccessPattern& pattern, std::uint64_t key);

/// One finished benchmark-side span (Chrome "complete" event).
struct SpanRecord {
  const char* name = "";
  std::uint64_t request_id = 0;  // sealed request id (calls only)
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t thread = 0;
  std::int32_t server = -1;  // iod index; -1 = manager or not a call
  std::uint32_t depth = 0;   // 0 = API op, 1 = Transport::Call
};

/// One iod exchange kept for the isolated layer probes.
struct CapturedExchange {
  std::vector<std::byte> request;   // sealed request frame
  std::vector<std::byte> response;  // sealed response frame
  bool write = false;
};

/// Keeps the first `per_kind` read and the first `per_kind` write iod
/// exchanges it is offered. The caller names the kind (it knows which API
/// call is running), so capturing decodes nothing on the measured path.
class Capture {
 public:
  explicit Capture(std::size_t per_kind) : per_kind_(per_kind) {}
  bool Wants(bool write) const {
    return (write ? writes_ : reads_).load(std::memory_order_relaxed) <
           per_kind_;
  }
  void Offer(std::span<const std::byte> request,
             std::span<const std::byte> response, bool write);
  std::vector<CapturedExchange> Take();

 private:
  std::size_t per_kind_;
  std::mutex mu_;
  std::vector<CapturedExchange> kept_;  // guarded by mu_
  std::atomic<std::size_t> reads_{0}, writes_{0};  // written under mu_
};

/// Per-thread call accounting (owned and touched by one load thread).
struct CallStats {
  std::uint64_t iod_calls = 0;
  std::uint64_t manager_calls = 0;
  std::uint64_t request_bytes = 0;   // sealed request frames, iod calls
  std::uint64_t response_bytes = 0;  // sealed response frames, iod calls
  std::vector<double> iod_call_us;
  std::vector<double> manager_call_us;

  void Merge(const CallStats& other);
};

/// Forwarding Transport: times every Call, keeps per-thread counts,
/// records a child span per call (keyed by the sealed request id) while
/// tracing, and offers exchanges to a Capture.
class MeteredTransport final : public pvfs::Transport {
 public:
  MeteredTransport(std::unique_ptr<pvfs::Transport> inner,
                   std::uint32_t thread)
      : inner_(std::move(inner)), thread_(thread) {}

  pvfs::Result<std::vector<std::byte>> Call(
      const pvfs::Endpoint& dest, std::span<const std::byte> request) override;
  std::uint32_t server_count() const override {
    return inner_->server_count();
  }

  /// Offer the iod exchanges of the running API call, of kind `write`,
  /// to `capture` (null: offer nothing).
  void set_capture(Capture* capture, bool write) {
    capture_ = capture;
    capture_write_ = write;
  }
  /// Spans go to `spans` while it is non-null.
  void set_spans(std::vector<SpanRecord>* spans) { spans_ = spans; }
  CallStats& stats() { return stats_; }
  /// Microseconds spent inside Call since the last reset (per-op client
  /// self time is the op's wall time minus this).
  double TakeCallUs() {
    const double us = call_us_;
    call_us_ = 0;
    return us;
  }

 private:
  std::unique_ptr<pvfs::Transport> inner_;
  std::uint32_t thread_;
  Capture* capture_ = nullptr;
  bool capture_write_ = false;
  std::vector<SpanRecord>* spans_ = nullptr;
  CallStats stats_;
  double call_us_ = 0;
};

/// One load thread's client: its own connections and its own Client.
struct ClientSlot {
  std::unique_ptr<MeteredTransport> transport;
  std::unique_ptr<pvfs::Client> client;
};

inline constexpr std::uint32_t kIods = 4;
/// The paper's 16 KiB stripe unit across all four iods.
inline const pvfs::Striping kStriping{0, kIods, 16384};

/// The system under test. Members are destroyed clients first, registry
/// last.
struct Deployment {
  std::unique_ptr<pvfs::obs::Registry> registry;
  std::unique_ptr<pvfs::net::SocketCluster> cluster;
  std::vector<ClientSlot> clients;
};

/// Starts the manager and kIods iods at default ServerConfig over
/// loopback TCP, then connects `threads` clients with default options.
pvfs::Result<std::unique_ptr<Deployment>> StartDeployment(
    std::uint32_t threads);

/// Server-side counters at one instant, for deltas across a phase.
struct ServerSnapshot {
  struct Iod {
    std::vector<std::uint64_t> wait_counts;
    std::vector<std::uint64_t> service_counts;
    double wait_sum = 0;
    double service_sum = 0;
    std::uint64_t rejected = 0;
    std::uint64_t requests = 0;
    std::uint64_t store_ops = 0;
    std::uint64_t local_accesses = 0;
  };
  std::vector<Iod> iods;
  std::vector<double> bounds;  // shared histogram bucket bounds
  std::uint64_t corruptions = 0;
};
ServerSnapshot TakeSnapshot(Deployment& deployment);

/// Quantile of the observations a bucketed histogram gained between two
/// snapshots (linear interpolation inside the bucket).
double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<std::uint64_t>& counts, double q);

/// CPUs this process may run on.
std::uint32_t UsableCpus();

/// Peak resident set size of the process so far, in MiB.
double PeakRssMib();

}  // namespace perfbench
