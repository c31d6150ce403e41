#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>

namespace pvfs::net {

namespace {

// epoll user-data tags for the two non-connection fds in the set.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;

obs::Registry& Reg(const SocketServer::Options& options) {
  return options.registry != nullptr ? *options.registry
                                     : obs::Registry::Global();
}

}  // namespace

// ---- SocketServer ----------------------------------------------------------

Result<std::unique_ptr<SocketServer>> SocketServer::Start(
    std::uint16_t port, ServiceFn service, AdmissionController* admission,
    ServerId server) {
  return Start(port, std::move(service), admission, server, Options{});
}

Result<std::unique_ptr<SocketServer>> SocketServer::Start(
    std::uint16_t port, ServiceFn service, AdmissionController* admission,
    ServerId server, Options options) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Internal("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd, 1024) != 0) {
    ::close(fd);
    return Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t addrlen = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addrlen) != 0) {
    ::close(fd);
    return Internal("getsockname failed");
  }

  int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    ::close(fd);
    return Internal(std::string("epoll_create1: ") + std::strerror(errno));
  }
  int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd < 0) {
    ::close(epoll_fd);
    ::close(fd);
    return Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(wake_fd);
    ::close(epoll_fd);
    ::close(fd);
    return Internal("epoll_ctl(listen) failed");
  }
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    ::close(wake_fd);
    ::close(epoll_fd);
    ::close(fd);
    return Internal("epoll_ctl(wake) failed");
  }
  return std::unique_ptr<SocketServer>(
      new SocketServer(fd, epoll_fd, wake_fd, ntohs(addr.sin_port),
                       std::move(service), admission, server,
                       std::move(options)));
}

SocketServer::SocketServer(int listen_fd, int epoll_fd, int wake_fd,
                           std::uint16_t port, ServiceFn service,
                           AdmissionController* admission, ServerId server,
                           Options options)
    : listen_fd_(listen_fd),
      epoll_fd_(epoll_fd),
      wake_fd_(wake_fd),
      port_(port),
      service_(std::move(service)),
      admission_(admission),
      server_(server),
      options_(std::move(options)),
      open_connections_g_(Reg(options_).Gauge("iod.transport.open_connections",
                                              options_.metric_labels)),
      readable_events_c_(Reg(options_).Counter("iod.transport.readable_events",
                                               options_.metric_labels)),
      partial_frames_c_(Reg(options_).Counter("iod.transport.partial_frames",
                                              options_.metric_labels)),
      inflight_g_(Reg(options_).Gauge("iod.transport.inflight_requests",
                                      options_.metric_labels)) {
  std::uint32_t workers = std::max<std::uint32_t>(1, options_.worker_threads);
  workers_.reserve(workers);
  for (std::uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  poller_ = std::jthread([this] { PollLoop(); });
}

SocketServer::~SocketServer() {
  stopping_.store(true);
  WakePoller();
  poller_.join();
  // Workers drain every dispatched request before exiting so admission
  // accounting completes (depth gauge back to zero); their responses are
  // simply never delivered.
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  for (auto& [id, conn] : conns_) {
    ::shutdown(conn.fd, SHUT_RDWR);
    ::close(conn.fd);
    open_connections_g_.Add(-1);
  }
  conns_.clear();
  ::close(listen_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void SocketServer::WakePoller() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void SocketServer::PollLoop() {
  epoll_event events[128];
  while (!stopping_.load()) {
    int n = ::epoll_wait(epoll_fd_, events, 128, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll set broken; nothing recoverable
    }
    for (int i = 0; i < n && !stopping_.load(); ++i) {
      std::uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptReady();
        continue;
      }
      if (tag == kWakeTag) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof drained) > 0) {
        }
        DeliverCompletions();
        continue;
      }
      // A previous event in this batch may have closed the connection;
      // look it up fresh for each event (and between the two halves).
      if (events[i].events & EPOLLOUT) {
        auto it = conns_.find(tag);
        if (it != conns_.end()) FlushWrites(it->second);
      }
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        auto it = conns_.find(tag);
        if (it != conns_.end()) ReadReady(it->second);
      }
    }
  }
}

void SocketServer::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient accept failure
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::uint64_t id = next_conn_id_++;
    Connection& conn = conns_[id];
    conn.id = id;
    conn.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      conns_.erase(id);
      continue;
    }
    ++connections_;
    open_connections_g_.Add(1);
  }
}

void SocketServer::UpdateInterest(Connection& conn) {
  epoll_event ev{};
  ev.events = 0;
  if (!conn.paused && !conn.read_closed) ev.events |= EPOLLIN;
  if (conn.want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void SocketServer::PumpConnection(Connection& conn) {
  const std::uint32_t max_inflight = options_.max_inflight_per_connection;
  const std::size_t cap = options_.max_write_buffer_bytes;
  auto over_budget = [&] {
    return (max_inflight > 0 && conn.inflight >= max_inflight) ||
           conn.out_bytes > cap;
  };
  // Dispatch decoded frames only while the budgets hold: a single recv
  // can complete dozens of pipelined requests, and dispatching them all
  // would let one connection buffer unbounded response bytes. Frames over
  // budget stay parked in the decoder and re-enter here as replies drain.
  while (!over_budget()) {
    auto frame = conn.decoder.Next();
    if (!frame) break;
    HandleFrame(conn, std::move(*frame));
    // HandleFrame can shed/enqueue but never closes; conn stays valid.
  }
  if (!conn.paused && over_budget()) {
    conn.paused = true;
    UpdateInterest(conn);
  } else if (conn.paused &&
             (max_inflight == 0 || conn.inflight < max_inflight) &&
             conn.out_bytes <= cap / 2) {
    // Resume below half the buffer cap (hysteresis) once the in-flight
    // budget has headroom again. Any parked frames were dispatched by the
    // loop above before this branch can be taken.
    conn.paused = false;
    UpdateInterest(conn);
  }
}

bool SocketServer::MaybeCloseDrained(Connection& conn) {
  if (conn.read_closed && conn.inflight == 0 && conn.out.empty() &&
      !conn.decoder.has_ready()) {
    CloseConnection(conn.id);
    return true;
  }
  return false;
}

void SocketServer::ReadReady(Connection& conn) {
  readable_events_c_.Increment();
  std::byte buf[65536];
  // One recv per readiness event: level-triggered epoll re-reports the fd
  // until drained, which keeps one floody connection from starving the
  // rest of the set.
  ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
  if (n == 0) {
    // Peer half-closed; frames already decoded still get served and
    // their replies flushed before the connection goes away.
    conn.read_closed = true;
    PumpConnection(conn);
    if (MaybeCloseDrained(conn)) return;
    UpdateInterest(conn);
    return;
  }
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(conn.id);
    return;
  }
  const std::uint64_t id = conn.id;
  if (!conn.decoder.Feed({buf, static_cast<std::size_t>(n)}).ok()) {
    CloseConnection(id);  // hostile length prefix: poisoned stream
    return;
  }
  if (conn.decoder.has_partial()) partial_frames_c_.Increment();
  PumpConnection(conn);
}

void SocketServer::HandleFrame(Connection& conn,
                               std::vector<std::byte> frame) {
  const std::uint64_t corr_id = PeekTrailerId(frame);
  AdmissionController::Slot slot{};
  if (admission_ != nullptr && !admission_->TryAdmit(slot)) {
    // Shed from the poller: the busy reply is stamped with the refused
    // request's id so a multiplexed client's waiter sees it.
    EnqueueResponse(conn, options_.correlate_responses
                              ? SealedBusyResponse(server_, corr_id)
                              : SealedBusyResponse(server_));
    return;
  }
  ++conn.inflight;
  inflight_g_.Add(1);
  {
    std::lock_guard lock(work_mutex_);
    work_.push_back(Work{conn.id, std::move(frame), corr_id, slot});
  }
  work_cv_.notify_one();
}

void SocketServer::WorkerLoop() {
  for (;;) {
    Work w;
    {
      std::unique_lock lock(work_mutex_);
      work_cv_.wait(lock,
                    [&] { return stopping_.load() || !work_.empty(); });
      if (work_.empty()) return;  // stopping and fully drained
      w = std::move(work_.front());
      work_.pop_front();
    }
    std::vector<std::byte> response;
    {
      // The daemons are externally synchronized: one service call at a
      // time per server.
      std::lock_guard lock(service_mutex_);
      if (admission_ != nullptr) admission_->BeginService(w.slot);
      response = service_(w.frame);
    }
    if (admission_ != nullptr) admission_->Finish(w.slot);
    if (options_.correlate_responses && PeekTrailerId(response) != w.corr_id) {
      // The service had no ambient id for this request (corrupt frame that
      // failed its CRC before the id could be adopted): re-seal so the
      // reply still correlates.
      response = ResealWithId(std::move(response), w.corr_id);
    }
    {
      std::lock_guard lock(done_mutex_);
      done_.push_back(Completion{w.conn, std::move(response)});
    }
    inflight_g_.Add(-1);
    WakePoller();
  }
}

void SocketServer::DeliverCompletions() {
  std::deque<Completion> ready;
  {
    std::lock_guard lock(done_mutex_);
    ready.swap(done_);
  }
  for (Completion& done : ready) {
    auto it = conns_.find(done.conn);
    if (it == conns_.end()) continue;  // connection died mid-service
    Connection& conn = it->second;
    if (conn.inflight > 0) --conn.inflight;
    EnqueueResponse(conn, std::move(done.payload));
    PumpConnection(conn);  // in-flight budget freed: dispatch parked frames
  }
}

void SocketServer::EnqueueResponse(Connection& conn,
                                   std::vector<std::byte> payload) {
  std::vector<std::byte> header(kFrameHeaderBytes);
  EncodeFrameHeader(static_cast<std::uint32_t>(payload.size()),
                    reinterpret_cast<unsigned char*>(header.data()));
  conn.out_bytes += header.size() + payload.size();
  conn.out.push_back(std::move(header));
  conn.out.push_back(std::move(payload));
  std::uint64_t hw = max_write_buffered_.load();
  while (conn.out_bytes > hw &&
         !max_write_buffered_.compare_exchange_weak(hw, conn.out_bytes)) {
  }
  if (!conn.want_write) {
    conn.want_write = true;
    UpdateInterest(conn);  // level-triggered: fires as soon as writable
  }
}

void SocketServer::FlushWrites(Connection& conn) {
  const std::uint64_t id = conn.id;
  while (!conn.out.empty()) {
    std::vector<std::byte>& front = conn.out.front();
    if (front.empty()) {
      conn.out.pop_front();
      conn.out_front_off = 0;
      continue;
    }
    ssize_t n = ::send(conn.fd, front.data() + conn.out_front_off,
                       front.size() - conn.out_front_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConnection(id);
      return;
    }
    conn.out_front_off += static_cast<std::size_t>(n);
    conn.out_bytes -= static_cast<std::size_t>(n);
    if (conn.out_front_off == front.size()) {
      conn.out.pop_front();
      conn.out_front_off = 0;
    }
  }
  conn.want_write = false;
  PumpConnection(conn);  // write buffer drained: dispatch parked frames
  if (MaybeCloseDrained(conn)) return;
  UpdateInterest(conn);
}

void SocketServer::CloseConnection(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
  open_connections_g_.Add(-1);
}

// ---- SocketTransport --------------------------------------------------------

namespace {

/// Waits until `fd` is readable (or failed: the read that follows reports
/// it) or `deadline` passes; false on the deadline.
bool PollReadable(int fd, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{fd, POLLIN, 0};
    const int n = ::poll(&p, 1, static_cast<int>(std::max<std::int64_t>(
                                    0, left.count())));
    if (n == 0) return false;
    if (n > 0 || errno != EINTR) return true;
  }
}

}  // namespace

SocketTransport::SocketTransport(SocketAddress manager,
                                 std::vector<SocketAddress> iods,
                                 ClientConfig config)
    : config_(config) {
  manager_.address = std::move(manager);
  iods_.reserve(iods.size());
  for (SocketAddress& addr : iods) {
    auto conn = std::make_unique<Connection>();
    conn->address = std::move(addr);
    iods_.push_back(std::move(conn));
  }
}

SocketTransport::~SocketTransport() {
  if (manager_.fd >= 0) ::close(manager_.fd);
  for (auto& conn : iods_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void SocketTransport::LoseConnectionLocked(Connection& conn,
                                           const Status& why) {
  if (conn.dead) return;
  conn.dead = true;
  // Wakes a read turn blocked on the fd and fails a concurrent send.
  if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
  for (auto& [id, waiter] : conn.pending) {
    waiter->status = why;
    waiter->done = true;
  }
  conn.pending.clear();
  conn.cv.notify_all();
}

Status SocketTransport::EnsureConnectedLocked(
    Connection& conn, std::unique_lock<std::mutex>& lock) {
  if (conn.fd >= 0 && !conn.dead) return Status::Ok();
  // The old fd stays open until no thread reads or sends on it, so its
  // number cannot be recycled under them. A dead fd is shut down, so both
  // finish promptly.
  conn.cv.wait(lock, [&] { return !conn.reading && !conn.sending; });
  if (conn.fd >= 0 && !conn.dead) return Status::Ok();  // reconnected
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  PVFS_ASSIGN_OR_RETURN(conn.fd,
                        ConnectSocket(conn.address, config_.call_timeout));
  conn.dead = false;
  conn.given_up = 0;  // late replies died with the old connection
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

void SocketTransport::RouteLocked(Connection& conn,
                                  std::vector<std::byte> frame) {
  auto it = conn.pending.find(PeekTrailerId(frame));
  if (it == conn.pending.end()) {
    if (conn.given_up > 0 || conn.pending.size() != 1) {
      // The late reply of a caller that passed its deadline (or of a
      // replayed duplicate): dropping it keeps the stream usable.
      if (conn.given_up > 0) --conn.given_up;
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Nobody gave up, so the peer does not echo request ids (a raw byte
    // service): the reply belongs to the one exchange in flight.
    it = conn.pending.begin();
  }
  it->second->response = std::move(frame);
  it->second->done = true;
  conn.pending.erase(it);
  matched_.fetch_add(1, std::memory_order_relaxed);
}

bool SocketTransport::ReadTurn(Connection& conn,
                               std::unique_lock<std::mutex>& lock,
                               const Clock::time_point* deadline) {
  conn.reading = true;
  const int fd = conn.fd;
  lock.unlock();
  std::optional<Result<std::vector<std::byte>>> frame;
  if (deadline == nullptr || PollReadable(fd, *deadline)) {
    frame = RecvFrame(fd);
  }
  lock.lock();
  conn.reading = false;
  conn.cv.notify_all();  // the turn is free, and a waiter may be done
  if (!frame.has_value()) return false;
  if (!frame->ok()) {
    LoseConnectionLocked(
        conn, Unavailable(frame->status().message() + " (receiving from " +
                          EndpointLabel(conn.address) + ")"));
  } else {
    RouteLocked(conn, std::move(**frame));
  }
  return true;
}

Result<std::vector<std::byte>> SocketTransport::Exchange(
    Connection& conn, std::span<const std::byte> request) {
  // id may be 0 for a frame too short to carry a trailer (e.g. a fault
  // injector truncated it): the server peeks the same raw bytes, so its
  // kCorruption reply also carries id 0 and still correlates. The
  // uniqueness wait below serializes concurrent id-0 exchanges.
  const std::uint64_t id = PeekTrailerId(request);
  Waiter waiter;
  std::unique_lock lock(conn.mutex);
  // In-flight budget, and id uniqueness: a fault injector's duplicated
  // call re-sends the same sealed bytes, so the same id may knock twice —
  // the second waits for the first to settle.
  auto admissible = [&] {
    return (config_.max_inflight == 0 ||
            conn.pending.size() < config_.max_inflight) &&
           !conn.pending.contains(id);
  };
  do {
    conn.cv.wait(lock, admissible);
    PVFS_RETURN_IF_ERROR(EnsureConnectedLocked(conn, lock));
  } while (!admissible());
  conn.pending.emplace(id, &waiter);
  lock.unlock();
  requests_.fetch_add(1, std::memory_order_relaxed);

  Status sent = Status::Ok();
  {
    // Whole frames from concurrent callers interleave on the wire, never
    // their bytes. A connection lost since registering has already failed
    // this waiter; its request is not sent.
    std::lock_guard wlock(conn.write_mutex);
    lock.lock();
    const int fd = waiter.done ? -1 : conn.fd;
    conn.sending = fd >= 0;
    lock.unlock();
    if (fd >= 0) sent = SendFrame(fd, request);
    lock.lock();
    conn.sending = false;
    if (conn.dead) conn.cv.notify_all();  // a reconnect may wait for it
  }
  if (!sent.ok()) {
    // Poison the connection: a half-written frame desynchronizes the
    // stream, so concurrent exchanges fail fast and the next reconnects.
    conn.pending.erase(id);
    sent = Status(sent.code(), sent.message() + " (sending to " +
                                   EndpointLabel(conn.address) + ")");
    LoseConnectionLocked(conn, Unavailable(sent.message()));
    return sent;
  }

  const bool bounded = config_.call_timeout.count() > 0;
  const Clock::time_point deadline = Clock::now() + config_.call_timeout;
  auto turn_or_done = [&] { return waiter.done || !conn.reading; };
  while (!waiter.done) {
    if (!conn.reading) {
      if (!ReadTurn(conn, lock, bounded ? &deadline : nullptr)) break;
    } else if (!bounded) {
      conn.cv.wait(lock, turn_or_done);
    } else if (!conn.cv.wait_until(lock, deadline, turn_or_done)) {
      break;
    }
  }
  if (!waiter.done) {
    conn.pending.erase(id);  // the late reply will be counted + dropped
    ++conn.given_up;
    conn.cv.notify_all();  // an in-flight slot freed
    return DeadlineExceeded("recv: response timed out (receiving from " +
                            EndpointLabel(conn.address) + ")");
  }
  if (!waiter.status.ok()) return waiter.status;
  return std::move(waiter.response);
}

Result<std::vector<std::byte>> SocketTransport::Call(
    const Endpoint& dest, std::span<const std::byte> request) {
  if (dest.is_manager) return Exchange(manager_, request);
  if (dest.server >= iods_.size()) return NotFound("no such I/O server");
  return Exchange(*iods_[dest.server], request);
}

SocketTransport::Stats SocketTransport::stats() const {
  return Stats{requests_.load(), matched_.load(), dropped_.load(),
               reconnects_.load()};
}

Result<int> ConnectSocket(const SocketAddress& address,
                          std::chrono::milliseconds timeout) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(address.port);
  if (::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad address " + address.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Unavailable("connect to " + EndpointLabel(address) + ": " +
                       std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (timeout.count() > 0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  return fd;
}

// ---- SocketCluster ----------------------------------------------------------

SocketCluster::SocketCluster(std::uint32_t server_count,
                             const ServerConfig& config,
                             obs::Registry* registry)
    : config_(config),
      registry_(registry != nullptr ? registry : &obs::Registry::Global()),
      manager_(server_count) {
  iods_.reserve(server_count);
  admissions_.reserve(server_count);
  for (ServerId s = 0; s < server_count; ++s) {
    iods_.push_back(std::make_unique<IoDaemon>(s, config));
    admissions_.push_back(std::make_unique<AdmissionController>(
        s, config.max_queue_depth, registry));
  }
}

SocketServer::Options SocketCluster::IodServerOptions(ServerId s) const {
  SocketServer::Options options;
  options.worker_threads = config_.transport_workers;
  options.correlate_responses = true;
  options.registry = registry_;
  options.metric_labels = {{"server", std::to_string(s)}};
  return options;
}

Result<std::unique_ptr<SocketCluster>> SocketCluster::Start(
    std::uint32_t server_count, std::uint32_t max_list_regions,
    std::uint16_t base_port) {
  return Start(server_count,
               ServerConfig{.max_list_regions = max_list_regions}, base_port);
}

Result<std::unique_ptr<SocketCluster>> SocketCluster::Start(
    std::uint32_t server_count, const ServerConfig& config,
    std::uint16_t base_port, obs::Registry* registry) {
  std::unique_ptr<SocketCluster> cluster(
      new SocketCluster(server_count, config, registry));

  SocketServer::Options manager_options;
  manager_options.worker_threads = config.transport_workers;
  manager_options.correlate_responses = true;
  manager_options.registry = cluster->registry_;
  manager_options.metric_labels = {{"server", "mgr"}};
  PVFS_ASSIGN_OR_RETURN(
      cluster->manager_server_,
      SocketServer::Start(
          base_port,
          [m = &cluster->manager_](std::span<const std::byte> req) {
            return m->HandleSealedMessage(req);
          },
          nullptr, 0, std::move(manager_options)));
  for (ServerId s = 0; s < server_count; ++s) {
    std::uint16_t port =
        base_port == 0 ? 0 : static_cast<std::uint16_t>(base_port + 1 + s);
    PVFS_ASSIGN_OR_RETURN(
        auto server,
        SocketServer::Start(
            port,
            [iod = cluster->iods_[s].get()](std::span<const std::byte> req) {
              return iod->HandleSealedMessage(req);
            },
            cluster->admissions_[s].get(), s, cluster->IodServerOptions(s)));
    cluster->iod_ports_.push_back(server->port());
    cluster->iod_servers_.push_back(std::move(server));
  }
  return cluster;
}

Status SocketCluster::StopIod(ServerId s) {
  if (s >= iod_servers_.size()) return NotFound("no such I/O server");
  if (iod_servers_[s] == nullptr) {
    return FailedPrecondition("iod already stopped");
  }
  iod_servers_[s].reset();  // closes the listener and live connections
  return Status::Ok();
}

Status SocketCluster::RestartIod(ServerId s) {
  if (s >= iod_servers_.size()) return NotFound("no such I/O server");
  if (iod_servers_[s] != nullptr) {
    return FailedPrecondition("iod already running");
  }
  // A restarted daemon replays or rolls back pending write intents before
  // accepting its first request, mirroring a real iod's journal recovery
  // at boot (done before the listener exists so no request can race it).
  iods_[s]->RecoverStore();
  PVFS_ASSIGN_OR_RETURN(
      iod_servers_[s],
      SocketServer::Start(
          iod_ports_[s],
          [iod = iods_[s].get()](std::span<const std::byte> req) {
            return iod->HandleSealedMessage(req);
          },
          admissions_[s].get(), s, IodServerOptions(s)));
  // Restarting restores availability; the scrub restores redundancy.
  // Writes acked by the surviving replica while this daemon was down are
  // copied back before RestartIod returns, so a subsequent failure of that
  // replica cannot lose them. Best effort: the daemon stays up even when a
  // repair source is itself unreachable (chunks are counted unrepaired and
  // a later RepairIod can finish the job).
  (void)RepairIod(s);
  return Status::Ok();
}

Result<RepairReport> SocketCluster::RepairIod(ServerId s) const {
  if (s >= iod_servers_.size()) return NotFound("no such I/O server");
  if (iod_servers_[s] == nullptr) {
    return FailedPrecondition("iod not running");
  }
  // A private transport so repair traffic rides the ordinary sealed wire
  // protocol (and shows up in the same transport metrics as client I/O).
  // The timeout only bounds fetches from replicas that die mid-repair, so
  // it is generous: a sanitized build under full test load must not trip
  // it and abandon the scrub halfway.
  auto transport =
      Connect({.call_timeout = std::chrono::milliseconds{10'000}});
  return RepairRestartedIod(*transport, s);
}

std::vector<SocketAddress> SocketCluster::iod_addresses() const {
  std::vector<SocketAddress> out;
  out.reserve(iod_ports_.size());
  for (std::uint16_t port : iod_ports_) {
    out.push_back({"127.0.0.1", port});
  }
  return out;
}

std::unique_ptr<SocketTransport> SocketCluster::Connect(
    const ClientConfig& config) const {
  return std::make_unique<SocketTransport>(manager_address(),
                                           iod_addresses(), config);
}

}  // namespace pvfs::net
