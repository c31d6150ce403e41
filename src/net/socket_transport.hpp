// TCP socket transport: the PVFS daemons as real network servers.
//
// PVFS 1.x ran mgrd and iods as TCP servers; clients kept persistent
// connections to each. This module reproduces that deployment shape:
//
//   SocketServer   — event-driven server: one acceptor/poller thread owns
//                    the listen fd and every accepted connection fd in a
//                    single epoll set (nonblocking, with per-connection
//                    read/write buffers and incremental frame
//                    reassembly), feeding a small fixed worker pool
//                    through the admission controller. Concurrency scales
//                    with connections, not threads — the C10K rework of
//                    the original thread-per-connection server
//                    (docs/event-transport.md).
//   SocketTransport— the client: one persistent connection per daemon,
//                    any number of calls in flight on it, replies matched
//                    to callers by the sealed request-id trailer. The
//                    calling threads take turns reading the connection;
//                    no thread of its own is started.
//   SocketCluster  — convenience: manager + N I/O daemons listening on
//                    ephemeral loopback ports inside this process.
//
// Frame format both ways: u32 little-endian payload length, then payload
// (src/net/framing.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/framing.hpp"
#include "obs/metrics.hpp"
#include "pvfs/admission.hpp"
#include "pvfs/iod.hpp"
#include "pvfs/manager.hpp"
#include "pvfs/repair.hpp"
#include "pvfs/transport.hpp"

namespace pvfs::net {

class SocketServer {
 public:
  using ServiceFn =
      std::function<std::vector<std::byte>(std::span<const std::byte>)>;

  /// Event-loop tuning. The defaults suit the daemons; tests shrink the
  /// buffers to make backpressure observable.
  struct Options {
    /// Service worker threads draining the request queue. Service calls
    /// are serialized per server (the daemons are externally
    /// synchronized), so extra workers overlap only the hand-off of one
    /// reply with the next request's service, not service with itself.
    std::uint32_t worker_threads = 2;
    /// Per-connection bound on dispatched-but-unanswered requests;
    /// reading from a connection pauses at the bound and resumes as
    /// replies drain (multiplexing backpressure). 0 = unbounded.
    std::uint32_t max_inflight_per_connection = 256;
    /// Per-connection bound on buffered response bytes: a slow reader's
    /// connection stops being read once its write buffer passes this and
    /// resumes below half of it, so total memory stays bounded by
    /// connections x this cap.
    std::size_t max_write_buffer_bytes = 8u << 20;
    /// Guarantee every reply frame's sealed trailer carries the request
    /// id of the frame that caused it (re-sealing when the service had no
    /// ambient id: corrupt request, admission shed). Required by
    /// multiplexed clients; off for raw byte services.
    bool correlate_responses = false;
    /// Registry for the iod.transport.* instruments (default Global()).
    obs::Registry* registry = nullptr;
    /// Labels stamped on this server's instruments (e.g. server=3).
    obs::Labels metric_labels{};
  };

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the event loop.
  /// With an `admission` controller, a request frame that completes while
  /// the controller is at its bound is answered with a sealed kBusy frame
  /// (for `server`) instead of entering the worker queue.
  static Result<std::unique_ptr<SocketServer>> Start(
      std::uint16_t port, ServiceFn service,
      AdmissionController* admission = nullptr, ServerId server = 0);
  static Result<std::unique_ptr<SocketServer>> Start(
      std::uint16_t port, ServiceFn service, AdmissionController* admission,
      ServerId server, Options options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  std::uint16_t port() const { return port_; }
  /// Connections accepted over this server's lifetime.
  std::uint64_t connections_served() const { return connections_.load(); }
  /// Currently open connections (the iod.transport.open_connections gauge).
  std::int64_t open_connections() const {
    return open_connections_g_.value();
  }
  /// High-water mark of any single connection's buffered response bytes —
  /// the backpressure tests assert this stays near the configured cap.
  std::uint64_t max_write_buffered() const {
    return max_write_buffered_.load();
  }

 private:
  /// Per-connection state, owned and touched only by the poller thread.
  struct Connection {
    std::uint64_t id = 0;
    int fd = -1;
    FrameDecoder decoder;
    std::deque<std::vector<std::byte>> out;  // encoded frames to write
    std::size_t out_front_off = 0;           // bytes of out.front() sent
    std::size_t out_bytes = 0;
    std::uint32_t inflight = 0;  // dispatched frames awaiting replies
    bool want_write = false;     // EPOLLOUT armed
    bool paused = false;         // EPOLLIN disarmed (backpressure)
    bool read_closed = false;    // peer EOF; close once drained
  };

  struct Work {
    std::uint64_t conn = 0;
    std::vector<std::byte> frame;
    std::uint64_t corr_id = 0;
    AdmissionController::Slot slot;
  };

  struct Completion {
    std::uint64_t conn = 0;
    std::vector<std::byte> payload;
  };

  SocketServer(int listen_fd, int epoll_fd, int wake_fd, std::uint16_t port,
               ServiceFn service, AdmissionController* admission,
               ServerId server, Options options);

  void PollLoop();
  void WorkerLoop();
  void WakePoller();

  // Poller-thread helpers.
  void AcceptReady();
  void ReadReady(Connection& conn);
  void HandleFrame(Connection& conn, std::vector<std::byte> frame);
  void FlushWrites(Connection& conn);
  void DeliverCompletions();
  void EnqueueResponse(Connection& conn, std::vector<std::byte> payload);
  void UpdateInterest(Connection& conn);
  /// Dispatch decoded frames while the connection's in-flight and
  /// write-buffer budgets allow, then recompute the paused state. Frames
  /// over budget stay parked in the decoder until replies drain.
  void PumpConnection(Connection& conn);
  /// Close once the peer has half-closed and nothing remains to serve or
  /// flush. Returns true when the connection was closed (conn is dead).
  bool MaybeCloseDrained(Connection& conn);
  void CloseConnection(std::uint64_t id);

  int listen_fd_;
  int epoll_fd_;
  int wake_fd_;
  std::uint16_t port_;
  ServiceFn service_;
  AdmissionController* admission_;  // may be null (manager, legacy starts)
  ServerId server_;                 // id stamped into busy responses
  Options options_;

  std::mutex service_mutex_;  // daemon event-loop discipline
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> max_write_buffered_{0};

  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<Work> work_;

  std::mutex done_mutex_;
  std::deque<Completion> done_;

  std::unordered_map<std::uint64_t, Connection> conns_;  // poller-only
  std::uint64_t next_conn_id_ = 2;  // 0 = listen fd, 1 = wake fd

  obs::Gauge& open_connections_g_;
  obs::Counter& readable_events_c_;
  obs::Counter& partial_frames_c_;
  obs::Gauge& inflight_g_;

  std::vector<std::jthread> workers_;
  std::jthread poller_;
};

/// Address of one daemon endpoint.
struct SocketAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// "host:port", the form every connection-level Status message embeds so a
/// failure names which daemon it was talking to.
inline std::string EndpointLabel(const SocketAddress& address) {
  return address.host + ":" + std::to_string(address.port);
}

/// Open a blocking TCP connection to `address` (TCP_NODELAY set). A
/// non-zero `timeout` arms SO_SNDTIMEO and SO_RCVTIMEO, so a peer that
/// stalls in the middle of a frame ends in a typed error.
Result<int> ConnectSocket(const SocketAddress& address,
                          std::chrono::milliseconds timeout);

/// How a client connects to the cluster's daemons.
struct ClientConfig {
  /// > 0 arms per-request timeouts: a call whose daemon does not respond
  /// in time fails with kDeadlineExceeded instead of blocking forever
  /// (the client retry layer's per-request timeout). Required when the
  /// caller expects daemons to crash.
  std::chrono::milliseconds call_timeout{0};
  /// Cap on concurrently in-flight requests per connection; issuing
  /// threads beyond it wait (client-side backpressure). 0 = unbounded.
  std::uint32_t max_inflight = 0;
};

/// The client transport: one TCP connection per daemon, opened on first
/// use and shared by every thread that calls through this object.
///
/// Every sealed request frame carries a unique nonzero request id in its
/// CRC trailer (src/common/wire), and the daemons seal each reply under
/// the id of the request that caused it. Callers register under that id,
/// send whole frames (sends are serialized) and then take turns reading:
/// the one caller holding the connection's *read turn* reads frames and
/// hands each to the caller registered under its PeekTrailerId, and gives
/// the turn up when its own reply lands or its deadline passes. With one
/// call in flight that is the classic exchange: send, then receive on the
/// calling thread. With many, replies pipeline on the one connection.
///
/// Correlation uses PeekTrailerId (raw trailer bytes, no CRC check), so a
/// reply corrupted in flight still reaches its caller and fails there
/// with kCorruption instead of stranding it until its deadline.
///
/// Failure model: a connection-level failure (EOF, reset, a half-written
/// send) fails every call in flight on that connection with kUnavailable
/// and the next call reconnects. A caller that passes its deadline fails
/// with kDeadlineExceeded; its late reply is read by a later caller,
/// counted and dropped, and the stream stays usable. Every such error
/// names the daemon (EndpointLabel).
///
/// Thread safety: any number of threads may Call concurrently. No Call
/// may be in flight during destruction. See docs/event-transport.md.
class SocketTransport final : public Transport {
 public:
  /// manager + iods[i] addresses; connections open on first use.
  SocketTransport(SocketAddress manager, std::vector<SocketAddress> iods,
                  ClientConfig config = {});
  ~SocketTransport() override;

  Result<std::vector<std::byte>> Call(
      const Endpoint& dest, std::span<const std::byte> request) override;

  std::uint32_t server_count() const override {
    return static_cast<std::uint32_t>(iods_.size());
  }

  struct Stats {
    std::uint64_t requests = 0;           // exchanges issued
    std::uint64_t responses_matched = 0;  // replies routed to a waiter
    std::uint64_t responses_dropped = 0;  // replies with no waiter left
    std::uint64_t reconnects = 0;         // connections (re)established
  };
  Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One in-flight exchange, owned by the calling thread's stack; the
  /// pending map holds a pointer only while the id is registered.
  struct Waiter {
    std::vector<std::byte> response;
    Status status = Status::Ok();
    bool done = false;
  };

  struct Connection {
    SocketAddress address;
    std::mutex mutex;  // guards everything below
    std::condition_variable cv;
    std::mutex write_mutex;  // serializes whole-frame sends
    int fd = -1;
    bool dead = false;     // fd unusable; close deferred to reconnect/dtor
    bool reading = false;  // a caller holds the read turn on fd
    bool sending = false;  // a caller is writing a frame to fd
    /// Callers that passed their deadline on this connection and whose
    /// replies have not been read yet.
    std::uint32_t given_up = 0;
    std::unordered_map<std::uint64_t, Waiter*> pending;
  };

  Result<std::vector<std::byte>> Exchange(Connection& conn,
                                          std::span<const std::byte> request);
  Status EnsureConnectedLocked(Connection& conn,
                               std::unique_lock<std::mutex>& lock);
  bool ReadTurn(Connection& conn, std::unique_lock<std::mutex>& lock,
                const Clock::time_point* deadline);
  void RouteLocked(Connection& conn, std::vector<std::byte> frame);
  static void LoseConnectionLocked(Connection& conn, const Status& why);

  Connection manager_;
  std::vector<std::unique_ptr<Connection>> iods_;
  ClientConfig config_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> matched_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> reconnects_{0};
};

/// An entire functional PVFS deployment behind real TCP sockets on
/// loopback: manager + `server_count` I/O daemons, each with its own
/// listening port.
class SocketCluster {
 public:
  static Result<std::unique_ptr<SocketCluster>> Start(
      std::uint32_t server_count,
      std::uint32_t max_list_regions = kMaxListRegions,
      std::uint16_t base_port = 0);

  /// Full per-iod service configuration: fragment scheduling, bounded
  /// admission queues (config.max_queue_depth > 0 sheds excess load with
  /// retryable kBusy) and the event-loop worker pool size
  /// (config.transport_workers). Admission and transport instruments
  /// register in `registry` (default: obs::Registry::Global()).
  static Result<std::unique_ptr<SocketCluster>> Start(
      std::uint32_t server_count, const ServerConfig& config,
      std::uint16_t base_port, obs::Registry* registry = nullptr);

  /// Builds a transport connected to this cluster. Each transport has its
  /// own connections and may be shared by any number of client threads.
  /// A non-zero `config.call_timeout` arms per-request timeouts — required
  /// when the caller expects daemons to crash (see StopIod).
  std::unique_ptr<SocketTransport> Connect(
      const ClientConfig& config = {}) const;

  /// Crash one I/O daemon: its TCP server stops accepting and all its
  /// live connections die. The daemon object (and its store — the "disk")
  /// survives, as a real iod's on-disk data survives a daemon crash.
  Status StopIod(ServerId s);
  /// Restart a stopped daemon on its original port, then re-replicate its
  /// data from the surviving replicas (best effort — the daemon is
  /// available either way; see RepairIod).
  Status RestartIod(ServerId s);
  /// Re-replication scrub for daemon `s` over a fresh client transport:
  /// every replicated file whose replica set includes `s` has its chunks
  /// checksum-compared against the surviving replicas and stale or missing
  /// ones copied back (pvfs/repair.hpp). Files with replicas=1 are
  /// skipped, so this is a cheap no-op on unreplicated clusters.
  Result<RepairReport> RepairIod(ServerId s) const;
  bool IodRunning(ServerId s) const { return iod_servers_[s] != nullptr; }

  SocketAddress manager_address() const {
    return {"127.0.0.1", manager_server_->port()};
  }
  std::vector<SocketAddress> iod_addresses() const;

  Manager& manager() { return manager_; }
  IoDaemon& iod(ServerId s) { return *iods_[s]; }
  AdmissionController& admission(ServerId s) { return *admissions_[s]; }
  SocketServer& iod_server(ServerId s) { return *iod_servers_[s]; }

 private:
  SocketCluster(std::uint32_t server_count, const ServerConfig& config,
                obs::Registry* registry);

  SocketServer::Options IodServerOptions(ServerId s) const;

  ServerConfig config_;
  obs::Registry* registry_;  // never null after construction
  Manager manager_;
  std::vector<std::unique_ptr<IoDaemon>> iods_;
  std::vector<std::unique_ptr<AdmissionController>> admissions_;
  std::unique_ptr<SocketServer> manager_server_;
  std::vector<std::unique_ptr<SocketServer>> iod_servers_;
  std::vector<std::uint16_t> iod_ports_;  // survive StopIod for restart
};

}  // namespace pvfs::net
