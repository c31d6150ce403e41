// C10K transport bench: thousands of simulated clients multiplexed onto
// one event-driven iod server. Every client is a tiny nonblocking state
// machine (send a sealed read request, reassemble the reply frame, next
// request) driven by one epoll loop on the client side — so a single
// process exercises the server's accept storm, per-connection frame
// reassembly, admission shedding and completion-order writes at a
// connection count no thread-per-connection design could sustain.
//
//   --smoke   64 clients x 4 requests (CI)
//   default 2000 clients x 5 requests
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/wire.hpp"
#include "net/framing.hpp"
#include "net/socket_transport.hpp"
#include "pvfs/admission.hpp"
#include "pvfs/iod.hpp"
#include "pvfs/protocol.hpp"

using namespace pvfs;
using namespace pvfs::bench;
using namespace pvfs::net;

namespace {

constexpr FileHandle kHandle = 1;
constexpr Striping kStriping{0, 1, 1 << 20};  // one iod owns everything
constexpr ByteCount kFileBytes = 64 * 1024;
constexpr ByteCount kReadBytes = 1024;

/// Raise RLIMIT_NOFILE toward its hard cap so thousands of sockets fit.
void RaiseFdLimit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
  }
}

std::uint64_t RssMib() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) /
         (1024 * 1024);
}

/// A sealed read request for this client's slice, stamped with `id`.
std::vector<std::byte> SealedRead(std::uint64_t index, std::uint64_t id) {
  IoRequest io;
  io.handle = kHandle;
  io.striping = kStriping;
  io.server_index = 0;
  io.op = IoOp::kRead;
  io.regions = {{(index % (kFileBytes / kReadBytes)) * kReadBytes,
                 kReadBytes}};
  return SealFrameWithId(io.Encode(), id);
}

enum class Reply { kOk, kBusy, kError };

/// Classify a sealed reply: correct payload, an admission shed (the
/// client should retry), or anything else.
Reply ClassifyReply(std::span<const std::byte> sealed, std::uint64_t id) {
  auto opened = OpenFrameWithId(sealed);
  if (!opened.ok() || opened->request_id != id) return Reply::kError;
  auto resp = DecodeResponse(opened->payload);
  if (!resp.ok()) return Reply::kError;
  if (resp->status.code() == ErrorCode::kBusy) return Reply::kBusy;
  if (!resp->status.ok()) return Reply::kError;
  auto io = IoResponse::Decode(resp->body);
  return io.ok() && io->payload.size() == kReadBytes ? Reply::kOk
                                                     : Reply::kError;
}

bool ReplyOk(std::span<const std::byte> sealed, std::uint64_t id) {
  return ClassifyReply(sealed, id) == Reply::kOk;
}

/// One simulated client: a nonblocking connection plus just enough state
/// to pipeline `remaining` one-at-a-time requests through it.
struct SimClient {
  int fd = -1;
  FrameDecoder decoder;
  std::vector<std::byte> out;  // unsent request bytes
  std::size_t out_off = 0;
  int remaining = 0;
  std::uint64_t index = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t expect_id = 0;
};

struct FanoutResult {
  std::uint64_t requests = 0;   // completed (non-shed) replies
  std::uint64_t sheds = 0;      // kBusy replies, retried by the client
  std::uint64_t errors = 0;
  double seconds = 0;
  std::int64_t open_connections_peak = 0;
};

std::uint64_t ClientRequestId(std::uint64_t index, std::uint64_t seq) {
  return (index + 1) * 1'000'000 + seq + 1;
}

void QueueNextRequest(SimClient& c) {
  c.expect_id = ClientRequestId(c.index, c.next_seq);
  auto framed = EncodeFrame(SealedRead(c.index, c.expect_id));
  c.out.insert(c.out.end(), framed.begin(), framed.end());
  ++c.next_seq;
}

/// Re-send the in-flight request after an admission shed (fresh id so a
/// duplicate late reply can never be confused with the retry).
void QueueRetry(SimClient& c) { QueueNextRequest(c); }

/// Drive all clients through their requests with one epoll loop; returns
/// false when the run deadlocks (deadline) instead of completing.
bool DriveFanout(std::vector<SimClient>& clients, SocketServer& server,
                 FanoutResult& result) {
  int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) return false;
  auto interest = [&](SimClient& c, bool add) {
    epoll_event ev{};
    ev.events = EPOLLIN | (c.out_off < c.out.size() ? EPOLLOUT : 0u);
    ev.data.u64 = c.index;
    ::epoll_ctl(ep, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, c.fd, &ev);
  };
  std::uint64_t live = 0;
  for (SimClient& c : clients) {
    QueueNextRequest(c);
    interest(c, /*add=*/true);
    ++live;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::seconds(120);
  std::vector<epoll_event> events(512);
  std::byte buf[16384];
  auto finish = [&](SimClient& c, bool error) {
    if (error) ++result.errors;
    ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
    --live;
  };
  while (live > 0 && std::chrono::steady_clock::now() < deadline) {
    int n = ::epoll_wait(ep, events.data(), static_cast<int>(events.size()),
                         1000);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    result.open_connections_peak =
        std::max(result.open_connections_peak, server.open_connections());
    for (int i = 0; i < n; ++i) {
      SimClient& c = clients[events[i].data.u64];
      if (c.fd < 0) continue;
      if (events[i].events & EPOLLOUT) {
        while (c.out_off < c.out.size()) {
          ssize_t sent = ::send(c.fd, c.out.data() + c.out_off,
                                c.out.size() - c.out_off, MSG_NOSIGNAL);
          if (sent < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            finish(c, /*error=*/true);
            break;
          }
          c.out_off += static_cast<std::size_t>(sent);
        }
        if (c.fd < 0) continue;
        if (c.out_off == c.out.size()) {
          c.out.clear();
          c.out_off = 0;
          interest(c, /*add=*/false);
        }
      }
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
      ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
        finish(c, /*error=*/true);
        continue;
      }
      if (got < 0) continue;
      if (!c.decoder.Feed({buf, static_cast<std::size_t>(got)}).ok()) {
        finish(c, /*error=*/true);
        continue;
      }
      while (auto frame = c.decoder.Next()) {
        Reply verdict = ClassifyReply(*frame, c.expect_id);
        if (verdict == Reply::kBusy) {
          // Shed by admission control: retry, as a real client's busy
          // backoff loop would. The connection stays up throughout.
          ++result.sheds;
          QueueRetry(c);
          interest(c, /*add=*/false);
          continue;
        }
        ++result.requests;
        if (verdict == Reply::kError) ++result.errors;
        if (--c.remaining <= 0) {
          finish(c, /*error=*/false);
          break;
        }
        QueueNextRequest(c);
        interest(c, /*add=*/false);
      }
    }
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  for (SimClient& c : clients) {
    if (c.fd >= 0) {
      ++result.errors;
      ::close(c.fd);
      c.fd = -1;
    }
  }
  ::close(ep);
  return live == 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv);
  RaiseFdLimit();
  const std::uint64_t kClients = flags.smoke ? 64 : 2000;
  const int kRequestsPerClient = flags.smoke ? 4 : 5;
  const int kMuxThreads = flags.smoke ? 4 : 8;
  const int kMuxCallsPerThread = flags.smoke ? 64 : 256;

  BenchJson json(flags, "c10k_transport",
                 "Event-driven transport: thousands of concurrent clients "
                 "against one epoll iod server");

  // One iod behind the event-driven server, with a bounded admission
  // queue sized for the offered load (one outstanding request per client):
  // steady state is admitted, anything pathological sheds with kBusy and
  // the simulated clients retry.
  IoDaemon iod(0);
  AdmissionController admission(0, /*max_depth=*/4096, &json.registry());
  SocketServer::Options options;
  options.worker_threads = 2;
  options.correlate_responses = true;
  options.registry = &json.registry();
  options.metric_labels = {{"server", "0"}};
  auto server = SocketServer::Start(
      0,
      [&iod](std::span<const std::byte> req) {
        return iod.HandleSealedMessage(req);
      },
      &admission, 0, options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().message().c_str());
    return 1;
  }
  const SocketAddress addr{"127.0.0.1", (*server)->port()};

  {
    // Seed the file through one ordinary connection.
    IoRequest seed;
    seed.handle = kHandle;
    seed.striping = kStriping;
    seed.op = IoOp::kWrite;
    seed.regions = {{0, kFileBytes}};
    seed.payload.assign(kFileBytes, std::byte{0x5a});
    auto fd = ConnectSocket(addr, std::chrono::milliseconds(5000));
    if (!fd.ok() ||
        !SendFrame(*fd, SealFrameWithId(seed.Encode(), 1)).ok() ||
        !RecvFrame(*fd).ok()) {
      std::fprintf(stderr, "seed write failed\n");
      return 1;
    }
    ::close(*fd);
  }

  // ---- Cell 1: epoll fan-out ---------------------------------------------
  std::printf("=== C10K event transport: %llu clients x %d requests ===\n",
              static_cast<unsigned long long>(kClients), kRequestsPerClient);
  std::vector<SimClient> clients(kClients);
  std::uint64_t connect_failures = 0;
  for (std::uint64_t i = 0; i < kClients; ++i) {
    clients[i].index = i;
    clients[i].remaining = kRequestsPerClient;
    auto fd = ConnectSocket(addr, std::chrono::milliseconds(0));
    if (!fd.ok()) {
      ++connect_failures;
      clients[i].remaining = 0;
      continue;
    }
    ::fcntl(*fd, F_SETFL, ::fcntl(*fd, F_GETFL, 0) | O_NONBLOCK);
    clients[i].fd = *fd;
  }
  // Every surviving connection is open at once before any request flows —
  // the concurrency claim the bench exists to prove.
  for (int spin = 0;
       spin < 5000 &&
       (*server)->open_connections() <
           static_cast<std::int64_t>(kClients - connect_failures);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::int64_t concurrent = (*server)->open_connections();

  FanoutResult fanout;
  std::vector<SimClient> active;
  active.reserve(clients.size());
  for (SimClient& c : clients) {
    if (c.fd >= 0) active.push_back(std::move(c));
  }
  for (std::uint64_t i = 0; i < active.size(); ++i) active[i].index = i;
  bool completed = DriveFanout(active, **server, fanout);
  fanout.open_connections_peak =
      std::max(fanout.open_connections_peak, concurrent);

  const double rps =
      fanout.seconds > 0 ? static_cast<double>(fanout.requests) / fanout.seconds
                         : 0;
  std::printf(
      "  concurrent=%lld requests=%llu sheds=%llu errors=%llu "
      "connect_failures=%llu\n"
      "  seconds=%.3f rps=%.0f max_write_buffered=%llu rss_mib=%llu%s\n",
      static_cast<long long>(concurrent),
      static_cast<unsigned long long>(fanout.requests),
      static_cast<unsigned long long>(fanout.sheds),
      static_cast<unsigned long long>(fanout.errors),
      static_cast<unsigned long long>(connect_failures), fanout.seconds, rps,
      static_cast<unsigned long long>((*server)->max_write_buffered()),
      static_cast<unsigned long long>(RssMib()),
      completed ? "" : "  [DEADLINE]");
  {
    obs::JsonValue cell = obs::JsonValue::Object();
    cell.Set("method", obs::JsonValue("epoll-fanout"));
    cell.Set("clients", obs::JsonValue(kClients));
    cell.Set("concurrent_connections",
             obs::JsonValue(static_cast<std::uint64_t>(concurrent)));
    cell.Set("requests", obs::JsonValue(fanout.requests));
    cell.Set("admission_sheds", obs::JsonValue(fanout.sheds));
    cell.Set("errors", obs::JsonValue(fanout.errors));
    cell.Set("connect_failures", obs::JsonValue(connect_failures));
    cell.Set("seconds", obs::JsonValue(fanout.seconds));
    cell.Set("requests_per_second", obs::JsonValue(rps));
    cell.Set("open_connections_peak",
             obs::JsonValue(
                 static_cast<std::uint64_t>(fanout.open_connections_peak)));
    cell.Set("max_write_buffered",
             obs::JsonValue((*server)->max_write_buffered()));
    cell.Set("rss_mib", obs::JsonValue(RssMib()));
    json.Row(std::move(cell));
  }

  // ---- Cell 2: multiplexed client over one shared connection --------------
  ClientConfig mux_config;
  mux_config.call_timeout = std::chrono::milliseconds(30000);
  SocketTransport mux(addr, {}, mux_config);
  std::atomic<std::uint64_t> mux_errors{0};
  const auto mux_start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kMuxThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kMuxCallsPerThread; ++i) {
          const std::uint64_t id =
              1'000'000'000ull + static_cast<std::uint64_t>(t) * 1'000'000 + i;
          auto reply = mux.Call(Endpoint::ManagerNode(),
                                SealedRead(static_cast<std::uint64_t>(t), id));
          if (!reply.ok() || !ReplyOk(*reply, id)) ++mux_errors;
        }
      });
    }
  }
  const double mux_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - mux_start)
                                 .count();
  const std::uint64_t mux_requests =
      static_cast<std::uint64_t>(kMuxThreads) * kMuxCallsPerThread;
  const double mux_rps =
      mux_seconds > 0 ? static_cast<double>(mux_requests) / mux_seconds : 0;
  std::printf(
      "  mux: threads=%d requests=%llu errors=%llu seconds=%.3f rps=%.0f "
      "(one connection)\n",
      kMuxThreads, static_cast<unsigned long long>(mux_requests),
      static_cast<unsigned long long>(mux_errors.load()), mux_seconds,
      mux_rps);
  {
    obs::JsonValue cell = obs::JsonValue::Object();
    cell.Set("method", obs::JsonValue("mux-client"));
    cell.Set("threads", obs::JsonValue(static_cast<std::uint64_t>(kMuxThreads)));
    cell.Set("requests", obs::JsonValue(mux_requests));
    cell.Set("errors", obs::JsonValue(mux_errors.load()));
    cell.Set("seconds", obs::JsonValue(mux_seconds));
    cell.Set("requests_per_second", obs::JsonValue(mux_rps));
    json.Row(std::move(cell));
  }

  const bool ok = completed && fanout.errors == 0 && connect_failures == 0 &&
                  mux_errors.load() == 0;
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
