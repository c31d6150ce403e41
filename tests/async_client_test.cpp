// Nonblocking client operation tests (docs/async-ops.md): ReadListAsync /
// WriteListAsync with Test/Wait/Cancel against the default daemons, and
// the op_deadline retry budget. Suites are named to join the TSan CI
// matrix (AsyncClient|RetryDeadline).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "fault/fault.hpp"
#include "fault/fault_transport.hpp"
#include "pvfs/client.hpp"
#include "pvfs/transport.hpp"
#include "test_cluster.hpp"

namespace pvfs {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using testutil::InProcCluster;

constexpr Striping kStriping{0, 4, 16384};
constexpr FileHandle kHandle = 42;

ByteBuffer Pattern(std::size_t n, std::uint64_t seed) {
  ByteBuffer out(n);
  FillPattern(out, seed, 0);
  return out;
}

/// Strided (noncontiguous) file regions for async op `op`.
std::vector<Extent> StridedRegions(std::uint32_t op, std::uint32_t regions,
                                   ByteCount region_bytes) {
  std::vector<Extent> out;
  const ByteCount stride = region_bytes * 3 + 512;
  const ByteCount base = static_cast<ByteCount>(op) * regions * stride;
  for (std::uint32_t r = 0; r < regions; ++r) {
    out.push_back(Extent{base + r * stride, region_bytes});
  }
  return out;
}

// ---- AsyncClient -----------------------------------------------------------

TEST(AsyncClient, OutOfOrderCompletionsAcrossIodsRoundTrip) {
  InProcCluster cluster(4);
  Client::Options options;
  options.async_workers = 4;
  Client client(cluster.transport.get(), options);
  auto fd = client.Create("/async/ooo", kStriping);
  ASSERT_TRUE(fd.ok());

  constexpr std::uint32_t kOps = 8;
  constexpr std::uint32_t kRegions = 6;
  constexpr ByteCount kRegionBytes = 5'000;  // spans stripe boundaries
  const ByteCount op_bytes = kRegions * kRegionBytes;

  std::vector<std::vector<Extent>> files(kOps);
  std::vector<std::vector<Extent>> mems(kOps);
  std::vector<ByteBuffer> golden(kOps);
  std::vector<Client::Operation> ops(kOps);
  for (std::uint32_t op = 0; op < kOps; ++op) {
    files[op] = StridedRegions(op, kRegions, kRegionBytes);
    mems[op] = {Extent{0, op_bytes}};
    golden[op] = Pattern(op_bytes, 70 + op);
    ops[op] = client.WriteListAsync(*fd, mems[op], golden[op], files[op]);
    ASSERT_TRUE(ops[op].valid());
  }
  // Waits in reverse submission order: completion order is unspecified,
  // every handle must resolve regardless.
  for (std::uint32_t op = kOps; op-- > 0;) {
    EXPECT_TRUE(ops[op].Wait().ok()) << "write op " << op;
    EXPECT_TRUE(ops[op].Test());
  }

  std::vector<ByteBuffer> back(kOps);
  for (std::uint32_t op = 0; op < kOps; ++op) {
    back[op] = ByteBuffer(op_bytes);
    ops[op] = client.ReadListAsync(*fd, mems[op], back[op], files[op]);
  }
  for (std::uint32_t op = 0; op < kOps; ++op) {
    EXPECT_TRUE(ops[op].Wait().ok()) << "read op " << op;
    EXPECT_EQ(back[op], golden[op]) << "read op " << op;
  }

  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.operations, kOps * 2);
  EXPECT_EQ(stats.bytes_written, static_cast<std::uint64_t>(op_bytes) * kOps);
}

TEST(AsyncClient, WaitAfterErrorReturnsTypedStatus) {
  InProcCluster cluster(4);

  // Submission-time failure (bad descriptor): MPI-style, the handle still
  // comes back and Wait reports the typed error.
  {
    Client client(cluster.transport.get(), Client::Options{});
    ByteBuffer buffer = Pattern(1024, 80);
    const std::vector<Extent> mem = {Extent{0, buffer.size()}};
    const std::vector<Extent> file = {Extent{0, buffer.size()}};
    Client::Operation op = client.WriteListAsync(999, mem, buffer, file);
    ASSERT_TRUE(op.valid());
    EXPECT_TRUE(op.Test());
    Status status = op.Wait();
    EXPECT_EQ(status.code(), ErrorCode::kFailedPrecondition);
    EXPECT_EQ(op.Wait().code(), ErrorCode::kFailedPrecondition)
        << "Wait is idempotent";
  }

  // Transport-level failure: every iod down, no retries — Wait surfaces
  // the underlying kUnavailable, not a generic failure.
  {
    fault::FaultInjector injector(fault::FaultConfig{.seed = 17});
    for (ServerId s = 0; s < 4; ++s) injector.CrashServer(s, 1'000'000);
    fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
    Client client(&chaos, Client::Options{});
    auto fd = client.Create("/async/err", kStriping);
    ASSERT_TRUE(fd.ok());  // manager calls pass through the injector
    ByteBuffer buffer = Pattern(4096, 81);
    const std::vector<Extent> mem = {Extent{0, buffer.size()}};
    const std::vector<Extent> file = {Extent{0, buffer.size()}};
    Client::Operation op = client.WriteListAsync(*fd, mem, buffer, file);
    Status status = op.Wait();
    EXPECT_EQ(status.code(), ErrorCode::kUnavailable) << status.message();
  }
}

/// Forwards every call to `inner`, except that the first iod call parks
/// until Release(): an operation that reaches an iod stays in flight for
/// as long as the test needs, with no timing involved.
class GatedTransport final : public Transport {
 public:
  explicit GatedTransport(Transport* inner)
      : inner_(inner), gate_(opened_.get_future().share()) {}

  Result<std::vector<std::byte>> Call(
      const Endpoint& dest, std::span<const std::byte> request) override {
    if (!dest.is_manager && !gated_.exchange(true)) gate_.wait();
    return inner_->Call(dest, request);
  }

  std::uint32_t server_count() const override {
    return inner_->server_count();
  }

  void Release() { opened_.set_value(); }

 private:
  Transport* inner_;
  std::promise<void> opened_;
  std::shared_future<void> gate_;
  std::atomic<bool> gated_{false};
};

TEST(AsyncClient, CancelBeforeDispatchWins) {
  // One async worker whose first operation parks on its first iod call:
  // the second operation is still queued when Cancel lands, so it must
  // never execute.
  InProcCluster cluster(4);
  GatedTransport gated(cluster.transport.get());
  Client::Options options;
  options.async_workers = 1;
  Client client(&gated, options);
  auto fd = client.Create("/async/cancel", kStriping);
  ASSERT_TRUE(fd.ok());

  const std::vector<Extent> slow_file = StridedRegions(0, 16, 2048);
  ByteBuffer slow_data = Pattern(16 * 2048, 90);
  const std::vector<Extent> slow_mem = {Extent{0, slow_data.size()}};
  Client::Operation slow =
      client.WriteListAsync(*fd, slow_mem, slow_data, slow_file);

  const Extent victim{10'000'000, 4096};
  ByteBuffer victim_data = Pattern(victim.length, 91);
  const std::vector<Extent> victim_mem = {Extent{0, victim.length}};
  const std::vector<Extent> victim_file = {victim};
  Client::Operation canceled =
      client.WriteListAsync(*fd, victim_mem, victim_data, victim_file);

  EXPECT_TRUE(canceled.Cancel()) << "op behind a busy worker is queued";
  EXPECT_TRUE(canceled.Test());
  EXPECT_EQ(canceled.Wait().code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(canceled.Cancel()) << "already resolved";
  gated.Release();
  EXPECT_TRUE(slow.Wait().ok());

  // The canceled write never reached the cluster: its range reads zero.
  ByteBuffer back(victim.length);
  ASSERT_TRUE(
      client.ReadList(*fd, victim_mem, back, victim_file).ok());
  EXPECT_EQ(back, ByteBuffer(victim.length));
}

TEST(AsyncClient, AsyncWritesSurviveFrameDropsAndCrashRestart) {
  // Chaos over the async path: random frame drops plus an explicitly
  // scheduled iod crash (down for 40 calls, then "restarted" when the
  // down ticks run out). Retries are idempotent; every Wait must succeed
  // and the readback must be bit-exact.
  InProcCluster cluster(4);
  fault::FaultConfig faults;
  faults.seed = 4242;
  faults.drop_rate = 0.05;
  fault::FaultInjector injector(faults);
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);

  Client::Options options;
  options.async_workers = 4;
  options.retry.max_attempts = 10'000;
  options.retry.initial_backoff = microseconds(1);
  options.retry.max_backoff = microseconds(200);
  Client client(&chaos, options);
  auto fd = client.Create("/async/chaos", kStriping);
  ASSERT_TRUE(fd.ok());

  constexpr std::uint32_t kOps = 8;
  constexpr ByteCount kOpBytes = 6 * 4096;
  std::vector<std::vector<Extent>> files(kOps), mems(kOps);
  std::vector<ByteBuffer> golden(kOps);
  std::vector<Client::Operation> ops(kOps);
  for (std::uint32_t op = 0; op < kOps; ++op) {
    files[op] = StridedRegions(op, 6, 4096);
    mems[op] = {Extent{0, kOpBytes}};
    golden[op] = Pattern(kOpBytes, 95 + op);
    ops[op] = client.WriteListAsync(*fd, mems[op], golden[op], files[op]);
    if (op == kOps / 2) injector.CrashServer(1, 40);  // mid-stream crash
  }
  for (std::uint32_t op = 0; op < kOps; ++op) {
    EXPECT_TRUE(ops[op].Wait().ok()) << "write op " << op;
  }

  for (std::uint32_t op = 0; op < kOps; ++op) {
    ByteBuffer back(kOpBytes);
    ASSERT_TRUE(client.ReadList(*fd, mems[op], back, files[op]).ok())
        << "readback op " << op;
    EXPECT_EQ(back, golden[op]) << "readback op " << op;
  }
  EXPECT_GT(client.retry_counters().retries, 0u)
      << "the schedule injects drops and a crash; recovery must be visible";
}

TEST(AsyncClient, ConcurrentClientsStayCoherent) {
  // Four clients hammer the same daemons through one shared in-process
  // transport, which serializes each daemon's service: every client must
  // read back exactly what it wrote, and under TSan the shared transport,
  // manager and iod stats must show no race.
  InProcCluster cluster(4);
  std::atomic<int> failures{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Client client(cluster.transport.get(), Client::Options{});
        auto fd = client.Create("/async/mt" + std::to_string(t), kStriping);
        if (!fd.ok()) {
          ++failures;
          return;
        }
        for (int round = 0; round < 4; ++round) {
          const std::vector<Extent> file =
              StridedRegions(static_cast<std::uint32_t>(round), 5, 3000);
          ByteBuffer data = Pattern(5 * 3000, 300 + t * 10 + round);
          const std::vector<Extent> mem = {Extent{0, data.size()}};
          ByteBuffer back(data.size());
          if (!client.WriteList(*fd, mem, data, file).ok() ||
              !client.ReadList(*fd, mem, back, file).ok() || back != data) {
            ++failures;
          }
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
}

// ---- RetryDeadline ---------------------------------------------------------

/// All four iods down for effectively ever; manager untouched.
struct DeadCluster {
  DeadCluster()
      : cluster(4),
        injector(fault::FaultConfig{.seed = 23}),
        chaos(cluster.transport.get(), &injector) {
    for (ServerId s = 0; s < 4; ++s) injector.CrashServer(s, 100'000'000);
  }
  InProcCluster cluster;
  fault::FaultInjector injector;
  fault::FaultInjectingTransport chaos;
};

TEST(RetryDeadline, BudgetBoundsRetryTimeAndNamesTheLastError) {
  DeadCluster dead;
  Client::Options options;
  options.retry.max_attempts = 1'000;  // attempts alone would spin ~forever
  options.retry.initial_backoff = microseconds(300);
  options.retry.max_backoff = microseconds(5'000);
  options.retry.op_deadline = milliseconds(20);
  Client client(&dead.chaos, options);
  auto fd = client.Create("/deadline/budget", kStriping);
  ASSERT_TRUE(fd.ok());

  ByteBuffer data = Pattern(1000, 31);  // one server involved: one budget
  const auto start = std::chrono::steady_clock::now();
  Status status = client.Write(*fd, 0, data);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("op_deadline"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("UNAVAILABLE"), std::string::npos)
      << "must carry the last underlying error: " << status.message();
  EXPECT_LT(elapsed, milliseconds(2'000)) << "budget, not attempt cap, rules";
  EXPECT_GE(client.retry_counters().exhausted, 1u);
  EXPECT_GT(client.retry_counters().retries, 0u);
}

TEST(RetryDeadline, ZeroDeadlinePreservesAttemptCapSemantics) {
  DeadCluster dead;
  Client::Options options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = microseconds(50);
  options.retry.max_backoff = microseconds(200);
  options.retry.op_deadline = microseconds(0);  // the historical default
  Client client(&dead.chaos, options);
  auto fd = client.Create("/deadline/off", kStriping);
  ASSERT_TRUE(fd.ok());

  ByteBuffer data = Pattern(1000, 32);
  Status status = client.Write(*fd, 0, data);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("failed 4 attempts"), std::string::npos)
      << "attempt cap, not budget, must rule: " << status.message();
  EXPECT_EQ(status.message().find("op_deadline"), std::string::npos)
      << status.message();
  EXPECT_GE(client.retry_counters().retries, 3u);
  EXPECT_GE(client.retry_counters().exhausted, 1u);
}

TEST(RetryDeadline, FinalSleepIsClampedToTheRemainingBudget) {
  // Backoff (300 ms) dwarfs the budget (25 ms): the bugfix clamps the
  // sleep to the remainder instead of sleeping past the deadline.
  DeadCluster dead;
  Client::Options options;
  options.retry.max_attempts = 10;
  options.retry.initial_backoff = milliseconds(300);
  options.retry.max_backoff = milliseconds(1'000);
  options.retry.jitter = false;
  options.retry.op_deadline = milliseconds(25);
  Client client(&dead.chaos, options);
  auto fd = client.Create("/deadline/clamp", kStriping);
  ASSERT_TRUE(fd.ok());

  ByteBuffer data = Pattern(1000, 33);
  const auto start = std::chrono::steady_clock::now();
  Status status = client.Write(*fd, 0, data);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, milliseconds(250))
      << "one un-clamped 300 ms backoff would already bust this";
}

TEST(RetryDeadline, ReplicatedOpsHonorTheBudget) {
  DeadCluster dead;
  Client::Options options;
  options.retry.max_attempts = 100;
  options.retry.initial_backoff = microseconds(200);
  options.retry.max_backoff = microseconds(2'000);
  options.retry.op_deadline = milliseconds(20);
  Client client(&dead.chaos, options);
  auto fd = client.Create("/deadline/replicated", kStriping,
                          ReplicationConfig{2});
  ASSERT_TRUE(fd.ok());

  ByteBuffer data = Pattern(1000, 34);
  const auto start = std::chrono::steady_clock::now();
  Status wrote = client.Write(*fd, 0, data);
  Status read = client.Read(*fd, 0, data);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(wrote.code(), ErrorCode::kDeadlineExceeded) << wrote.message();
  EXPECT_NE(wrote.message().find("op_deadline"), std::string::npos);
  EXPECT_EQ(read.code(), ErrorCode::kDeadlineExceeded) << read.message();
  EXPECT_LT(elapsed, milliseconds(4'000));
}

}  // namespace
}  // namespace pvfs
