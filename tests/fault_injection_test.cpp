// Chaos and property tests for the deterministic fault-injection layer:
// under any fault seed with bounded drop rates, every noncontiguous access
// method must still complete with byte-identical contents once the client
// retries; crashes mid-write must end in recovery or a typed Status, never
// a hang or a corrupted stripe; and the same seed must reproduce the same
// fault schedule bit for bit.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "common/bytes.hpp"
#include "fault/fault.hpp"
#include "fault/fault_transport.hpp"
#include "io/method.hpp"
#include "net/socket_transport.hpp"
#include "pvfs/client.hpp"
#include "simcluster/region_stream.hpp"
#include "simcluster/sim_run.hpp"
#include "test_cluster.hpp"
#include "trace/trace.hpp"
#include "workloads/cyclic.hpp"

namespace pvfs {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr ByteCount kFileBytes = 256 * 1024;
const Striping kStriping{0, 8, 16384};

/// Retry discipline used by every chaos client: enough attempts that a
/// sub-30% drop rate exhausts with probability ~0.3^12, tiny backoffs so
/// the suite stays fast.
Client::Options ChaosClientOptions() {
  Client::Options options;
  options.retry.max_attempts = 12;
  options.retry.initial_backoff = microseconds{1};
  options.retry.max_backoff = microseconds{64};
  return options;
}

/// The per-rank noncontiguous patterns of a small cyclic workload that
/// collectively tile [0, kFileBytes).
std::vector<io::AccessPattern> WorkloadPatterns() {
  workloads::CyclicConfig config;
  config.total_bytes = kFileBytes;
  config.clients = 4;
  config.accesses_per_client = 32;
  std::vector<io::AccessPattern> patterns;
  for (Rank r = 0; r < config.clients; ++r) {
    patterns.push_back(workloads::CyclicPattern(config, r));
  }
  return patterns;
}

ByteBuffer GoldenContents() {
  ByteBuffer golden(kFileBytes);
  FillPattern(golden, 99, 0);
  return golden;
}

/// Expected read result for `pattern`: its file regions gathered from the
/// golden image (memory side is contiguous).
ByteBuffer Gather(const ByteBuffer& golden, const io::AccessPattern& pattern) {
  ByteBuffer out;
  out.reserve(pattern.total_bytes());
  for (const Extent& region : pattern.file) {
    out.insert(out.end(), golden.begin() + static_cast<std::ptrdiff_t>(region.offset),
               golden.begin() + static_cast<std::ptrdiff_t>(region.end()));
  }
  return out;
}

ByteBuffer ReadWholeFile(Client& client, const std::string& name) {
  auto fd = client.Open(name);
  EXPECT_TRUE(fd.ok()) << fd.status().message();
  ByteBuffer out(kFileBytes);
  EXPECT_TRUE(client.Read(*fd, 0, out).ok());
  EXPECT_TRUE(client.Close(*fd).ok());
  return out;
}

const io::MethodType kMethods[] = {io::MethodType::kMultiple,
                                   io::MethodType::kDataSieving,
                                   io::MethodType::kList};

// ---- Property: faulty reads are byte-identical --------------------------

// For any fault seed with drop rate < 30% (plus duplicates and delays),
// all three access methods complete through the retry layer and return
// exactly the bytes a fault-free run returns.
TEST(FaultProperty, ReadsCompleteByteIdenticalUnderAnySeed) {
  const ByteBuffer golden = GoldenContents();
  const auto patterns = WorkloadPatterns();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    testutil::InProcCluster cluster;
    {
      Client reliable = cluster.MakeClient();
      auto fd = reliable.Create("f", kStriping);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(reliable.Write(*fd, 0, golden).ok());
      ASSERT_TRUE(reliable.Close(*fd).ok());
    }
    fault::FaultConfig config;
    config.seed = seed;
    config.drop_rate = 0.25;
    config.duplicate_rate = 0.10;
    config.delay_rate = 0.05;
    config.delay_min_us = 1;
    config.delay_max_us = 50;
    fault::FaultInjector injector(config);
    fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
    Client client(&chaos, ChaosClientOptions());
    auto fd = client.Open("f");
    ASSERT_TRUE(fd.ok()) << fd.status().message();
    for (io::MethodType type : kMethods) {
      auto method = io::MakeMethod(type);
      for (const io::AccessPattern& pattern : patterns) {
        ByteBuffer buffer(pattern.total_bytes());
        Status status = method->Read(client, *fd, pattern, buffer);
        ASSERT_TRUE(status.ok())
            << "seed " << seed << " method " << static_cast<int>(type) << ": "
            << status.message();
        EXPECT_EQ(buffer, Gather(golden, pattern));
      }
    }
    EXPECT_GT(injector.counters().frames_dropped, 0u);
    EXPECT_GT(client.retry_counters().retries, 0u);
    EXPECT_EQ(client.retry_counters().exhausted, 0u);
  }
}

// Same property for writes: a chaotic run must leave exactly the file a
// fault-free run leaves, despite resent and duplicated write frames
// (idempotency of PVFS data requests).
TEST(FaultProperty, WritesCompleteByteIdenticalUnderAnySeed) {
  const auto patterns = WorkloadPatterns();
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    for (io::MethodType type : kMethods) {
      testutil::InProcCluster reference_cluster;
      testutil::InProcCluster chaos_cluster;
      fault::FaultConfig config;
      config.seed = seed;
      config.drop_rate = 0.20;
      config.duplicate_rate = 0.10;
      fault::FaultInjector injector(config);
      fault::FaultInjectingTransport chaos(chaos_cluster.transport.get(),
                                           &injector);
      Client reference(reference_cluster.transport.get());
      Client chaotic(&chaos, ChaosClientOptions());
      for (Client* client : {&reference, &chaotic}) {
        auto fd = client->Create("f", kStriping);
        ASSERT_TRUE(fd.ok());
        auto method = io::MakeMethod(type);
        for (size_t r = 0; r < patterns.size(); ++r) {
          ByteBuffer payload(patterns[r].total_bytes());
          FillPattern(payload, 7 + r, 0);
          Status status = method->Write(*client, *fd, patterns[r], payload);
          ASSERT_TRUE(status.ok())
              << "seed " << seed << " method " << static_cast<int>(type)
              << ": " << status.message();
        }
        ASSERT_TRUE(client->Close(*fd).ok());
      }
      Client check_ref = reference_cluster.MakeClient();
      Client check_chaos = chaos_cluster.MakeClient();
      EXPECT_EQ(ReadWholeFile(check_ref, "f"), ReadWholeFile(check_chaos, "f"))
          << "seed " << seed << " method " << static_cast<int>(type);
    }
  }
}

// ---- Chaos: iod crash mid list-I/O write --------------------------------

// One iod crashes partway through a striped list write. The retrying
// client must ride out the down window and complete; the file must read
// back exactly as written.
TEST(Chaos, IodCrashMidListWriteRecoversAfterRestart) {
  testutil::InProcCluster cluster;
  fault::FaultInjector injector(fault::FaultConfig{});  // explicit crashes only
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client client(&chaos, ChaosClientOptions());

  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(kFileBytes);
  FillPattern(data, 5, 0);
  // Warm the file, then crash server 3 for the next 5 calls it receives
  // and immediately issue a full-stripe noncontiguous rewrite.
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  injector.CrashServer(3, 5);
  const auto patterns = WorkloadPatterns();
  auto method = io::MakeMethod(io::MethodType::kList);
  for (size_t r = 0; r < patterns.size(); ++r) {
    ByteBuffer payload(patterns[r].total_bytes());
    FillPattern(payload, 40 + r, 0);
    ASSERT_TRUE(method->Write(client, *fd, patterns[r], payload).ok());
  }
  ASSERT_TRUE(client.Close(*fd).ok());
  EXPECT_GT(injector.counters().refused_calls, 0u);
  EXPECT_EQ(injector.counters().restarts, 1u);
  EXPECT_GT(client.retry_counters().retries, 0u);

  // Reconstruct the expected image and compare through a clean client.
  ByteBuffer expected = data;
  for (size_t r = 0; r < patterns.size(); ++r) {
    ByteBuffer payload(patterns[r].total_bytes());
    FillPattern(payload, 40 + r, 0);
    size_t taken = 0;
    for (const Extent& region : patterns[r].file) {
      std::copy(payload.begin() + static_cast<std::ptrdiff_t>(taken),
                payload.begin() + static_cast<std::ptrdiff_t>(taken + region.length),
                expected.begin() + static_cast<std::ptrdiff_t>(region.offset));
      taken += region.length;
    }
  }
  Client reliable = cluster.MakeClient();
  EXPECT_EQ(ReadWholeFile(reliable, "f"), expected);
}

// A crash that outlives the retry budget must surface as a typed Status —
// kDeadlineExceeded from the exhausted retry loop — and must not corrupt
// what the surviving servers hold: a clean rewrite fully repairs the file.
TEST(Chaos, CrashOutlivingRetryBudgetReturnsTypedStatus) {
  testutil::InProcCluster cluster;
  fault::FaultInjector injector(fault::FaultConfig{});
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client::Options options = ChaosClientOptions();
  options.retry.max_attempts = 3;
  Client client(&chaos, options);

  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  injector.CrashServer(2, 1'000'000);  // effectively never restarts
  ByteBuffer data(kFileBytes);
  FillPattern(data, 21, 0);
  Status status = client.Write(*fd, 0, data);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kDeadlineExceeded) << status.message();
  EXPECT_GT(client.retry_counters().exhausted, 0u);

  // Fail-fast clients (no retry) see the bare kUnavailable refusal.
  Client fail_fast(&chaos);
  auto ffd = fail_fast.Open("f");
  ASSERT_TRUE(ffd.ok());  // manager is not injected
  Status bare = fail_fast.Write(*ffd, 0, data);
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.code(), ErrorCode::kUnavailable) << bare.message();

  // The partial write corrupted nothing permanently: a clean rewrite
  // through the raw transport restores the full image.
  Client reliable = cluster.MakeClient();
  auto rfd = reliable.Open("f");
  ASSERT_TRUE(rfd.ok());
  ASSERT_TRUE(reliable.Write(*rfd, 0, data).ok());
  ASSERT_TRUE(reliable.Close(*rfd).ok());
  EXPECT_EQ(ReadWholeFile(reliable, "f"), data);
}

// ---- Disk-error injection ----------------------------------------------

// Transient media errors surfaced by the iods are kUnavailable, retryable,
// and invisible to a retrying client's results.
TEST(DiskFaults, TransientDiskErrorsAreRetriedToCompletion) {
  testutil::InProcCluster cluster;
  fault::FaultConfig config;
  config.seed = 3;
  config.disk_read_error_rate = 0.3;
  config.disk_write_error_rate = 0.3;
  fault::FaultInjector injector(config);
  for (auto& iod : cluster.iods) iod->set_fault_injector(&injector);

  Client client(cluster.transport.get(), ChaosClientOptions());
  auto fd = client.Create("f", kStriping);
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(kFileBytes);
  FillPattern(data, 17, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ByteBuffer out(kFileBytes);
  ASSERT_TRUE(client.Read(*fd, 0, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(client.Close(*fd).ok());

  const sim::FaultCounters counters = injector.counters();
  EXPECT_GT(counters.disk_read_errors + counters.disk_write_errors, 0u);
  std::uint64_t iod_injected = 0;
  for (auto& iod : cluster.iods) iod_injected += iod->stats().injected_errors;
  EXPECT_EQ(iod_injected,
            counters.disk_read_errors + counters.disk_write_errors);
  for (auto& iod : cluster.iods) iod->set_fault_injector(nullptr);
}

// ---- Determinism --------------------------------------------------------

struct ChaosRun {
  std::string events;
  sim::FaultCounters counters;
  ByteBuffer file;
};

ChaosRun RunChaosWorkload(std::uint64_t seed) {
  testutil::InProcCluster cluster;
  fault::FaultConfig config;
  config.seed = seed;
  config.drop_rate = 0.2;
  config.duplicate_rate = 0.1;
  config.delay_rate = 0.1;
  config.delay_min_us = 1;
  config.delay_max_us = 20;
  config.disk_write_error_rate = 0.05;
  config.crash_rate = 0.01;
  config.crash_down_calls = 2;
  fault::FaultInjector injector(config);
  for (auto& iod : cluster.iods) iod->set_fault_injector(&injector);
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client::Options options = ChaosClientOptions();
  options.retry.max_attempts = 25;  // ride out crash windows too
  Client client(&chaos, options);

  auto fd = client.Create("f", kStriping);
  EXPECT_TRUE(fd.ok());
  const auto patterns = WorkloadPatterns();
  auto method = io::MakeMethod(io::MethodType::kList);
  for (size_t r = 0; r < patterns.size(); ++r) {
    ByteBuffer payload(patterns[r].total_bytes());
    FillPattern(payload, r, 0);
    EXPECT_TRUE(method->Write(client, *fd, patterns[r], payload).ok());
  }
  EXPECT_TRUE(client.Close(*fd).ok());

  ChaosRun run;
  run.events = injector.SerializeEvents();
  run.counters = injector.counters();
  for (auto& iod : cluster.iods) iod->set_fault_injector(nullptr);
  Client reliable = cluster.MakeClient();
  run.file = ReadWholeFile(reliable, "f");
  return run;
}

// The acceptance bar: the same fault seed over the same workload produces
// an identical fault schedule (event for event), identical counters, and
// an identical resulting file, run to run.
TEST(FaultDeterminism, SameSeedReproducesScheduleAndBytes) {
  ChaosRun first = RunChaosWorkload(31);
  ChaosRun second = RunChaosWorkload(31);
  EXPECT_GT(first.counters.total(), 0u);
  EXPECT_EQ(first.events, second.events);
  EXPECT_TRUE(first.counters == second.counters);
  EXPECT_EQ(first.file, second.file);

  ChaosRun other = RunChaosWorkload(32);
  EXPECT_NE(first.events, other.events);  // seeds select distinct schedules
  EXPECT_EQ(first.file, other.file);      // but never distinct contents
}

// A default (all-zero) config injects nothing, consumes no randomness,
// and keeps every counter at zero — the benchmark configuration.
TEST(FaultDeterminism, ZeroConfigInjectsNothing) {
  fault::FaultInjector injector(fault::FaultConfig{});
  EXPECT_FALSE(injector.enabled());
  for (int i = 0; i < 1000; ++i) {
    fault::NetFault net = injector.OnNetExchange(i % 8);
    EXPECT_FALSE(net.drop);
    EXPECT_FALSE(net.duplicate);
    EXPECT_EQ(net.delay_us, 0u);
    EXPECT_FALSE(injector.OnDiskAccess(i % 8, i % 2 == 0));
    EXPECT_FALSE(injector.OnServe(i % 8));
    EXPECT_EQ(injector.OnSimLeg(i % 8, 1000, 1000000), 0);
  }
  EXPECT_EQ(injector.counters().total(), 0u);
  EXPECT_TRUE(injector.events().empty());
}

// ---- Retry schedule ------------------------------------------------------

/// A client whose lock owner, and with it every jitter stream it draws
/// from, is exactly `owner` (which the process must not have handed out
/// yet). Owners come from a process-wide counter, so clients are
/// constructed and dropped until the counter reaches it.
std::unique_ptr<Client> ClientWithOwner(Transport* transport,
                                        const Client::Options& options,
                                        std::uint64_t owner) {
  for (;;) {
    auto client = std::make_unique<Client>(transport, options);
    if (client->lock_owner() == owner) return client;
  }
}

// Every caller of the retry loop draws its backoff schedule from a pure
// hash of (jitter_seed, lock owner, server, sequence): the exchange
// draws per attempt from owner·φ ^ server, the replicated read and write
// per round from that stream salted with 0xA5A5A5A5 / 0x5A5A5A5A. The
// totals below pin those schedules for fixed owners and a fixed seed,
// together with each caller's exhaustion result.
TEST(RetrySchedule, BackoffTotalsArePinnedPerCaller) {
  constexpr std::uint64_t kOwner = 20'000;  // above any earlier test's
  testutil::InProcCluster cluster(4);
  if (Client(cluster.transport.get()).lock_owner() >= kOwner) {
    GTEST_SKIP() << "lock owner " << kOwner
                 << " already handed out in this process";
  }
  const Striping striping{0, 4, 16384};
  ByteBuffer data(16384);  // one stripe unit: server 0 (and replica 1)
  FillPattern(data, 5, 0);
  {
    Client writer = cluster.MakeClient();
    auto plain = writer.Create("plain", striping);
    auto mirrored = writer.Create("mirrored", striping, ReplicationConfig{2});
    ASSERT_TRUE(plain.ok() && mirrored.ok());
    ASSERT_TRUE(writer.Write(*mirrored, 0, data).ok());
  }
  fault::FaultInjector injector(fault::FaultConfig{});
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  injector.CrashServer(0, 1'000'000);
  injector.CrashServer(1, 1'000'000);
  Client::Options options;
  options.retry.max_attempts = 4;
  options.retry.initial_backoff = microseconds{100};
  options.retry.max_backoff = microseconds{10'000};
  options.retry.jitter_seed = 7;

  struct Outcome {
    Status status;
    Client::RetryCounters counters;
  };
  auto run = [&](std::uint64_t owner, const std::string& name, bool write) {
    std::unique_ptr<Client> client = ClientWithOwner(&chaos, options, owner);
    auto fd = client->Open(name);
    EXPECT_TRUE(fd.ok());
    ByteBuffer out(data.size());
    Status status = write ? client->Write(*fd, 0, data)
                          : client->Read(*fd, 0, out);
    return Outcome{status, client->retry_counters()};
  };

  const Outcome exchange = run(kOwner, "plain", true);
  const Outcome read = run(kOwner + 1, "mirrored", false);
  const Outcome write = run(kOwner + 2, "mirrored", true);
  EXPECT_EQ(exchange.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(exchange.status.message().find("failed 4 attempts"),
            std::string::npos)
      << exchange.status.message();
  // The replicated paths surface the last failover error as is.
  EXPECT_EQ(read.status.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(write.status.code(), ErrorCode::kUnavailable);
  for (const Outcome* outcome : {&exchange, &read, &write}) {
    EXPECT_EQ(outcome->counters.retries, 3u);
    EXPECT_EQ(outcome->counters.exhausted, 1u);
    EXPECT_EQ(outcome->counters.retries_unavailable, 3u);
  }
  EXPECT_EQ(exchange.counters.backoff_us, 596u);
  EXPECT_EQ(read.counters.backoff_us, 807u);
  EXPECT_EQ(write.counters.backoff_us, 409u);
}

// ---- Socket transport: real crash-and-restart ---------------------------

// Against real TCP daemons: a stopped iod yields typed retryable errors
// (never a hang, thanks to per-request socket timeouts), and the same
// client completes once the daemon is back on its port.
TEST(SocketChaos, StoppedIodFailsTypedThenRecovers) {
  auto cluster = net::SocketCluster::Start(4);
  ASSERT_TRUE(cluster.ok());
  auto transport =
      (*cluster)->Connect({.call_timeout = milliseconds{250}});
  Client client(transport.get());

  auto fd = client.Create("f", Striping{0, 4, 16384});
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(4 * 16384);
  FillPattern(data, 3, 0);
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());

  ASSERT_TRUE((*cluster)->StopIod(1).ok());
  EXPECT_FALSE((*cluster)->IodRunning(1));
  Status status = client.Write(*fd, 0, data);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsRetryable(status.code())) << status.message();

  ASSERT_TRUE((*cluster)->RestartIod(1).ok());
  EXPECT_TRUE((*cluster)->IodRunning(1));
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  ByteBuffer out(data.size());
  ASSERT_TRUE(client.Read(*fd, 0, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(client.Close(*fd).ok());
}

// A retrying client issued against a crashed daemon completes on its own
// once the daemon restarts mid-retry-loop — the full crash-recovery story
// with no client-visible failure.
TEST(SocketChaos, RetryingClientRidesOutRestart) {
  auto cluster = net::SocketCluster::Start(4);
  ASSERT_TRUE(cluster.ok());
  auto transport =
      (*cluster)->Connect({.call_timeout = milliseconds{250}});
  Client::Options options;
  options.retry.max_attempts = 40;
  options.retry.initial_backoff = microseconds{1000};
  options.retry.max_backoff = microseconds{20'000};
  Client client(transport.get(), options);

  auto fd = client.Create("f", Striping{0, 4, 16384});
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(4 * 16384);
  FillPattern(data, 9, 0);

  ASSERT_TRUE((*cluster)->StopIod(2).ok());
  std::jthread restarter([&cluster] {
    std::this_thread::sleep_for(milliseconds{50});
    ASSERT_TRUE((*cluster)->RestartIod(2).ok());
  });
  Status status = client.Write(*fd, 0, data);
  restarter.join();
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_GT(client.retry_counters().retries, 0u);
  ByteBuffer out(data.size());
  ASSERT_TRUE(client.Read(*fd, 0, out).ok());
  EXPECT_EQ(out, data);
}

// ---- Simulated cluster: lossy network -----------------------------------

simcluster::SimWorkload SmallSimWorkload() {
  workloads::CyclicConfig config;
  config.total_bytes = 1 * kMiB;
  config.clients = 4;
  config.accesses_per_client = 64;
  simcluster::SimWorkload workload;
  workload.file_regions = [config](Rank r) {
    return std::make_unique<simcluster::VectorStream>(
        workloads::CyclicPattern(config, r).file);
  };
  return workload;
}

// Virtual-time runs: injected loss slows the run, counters are populated,
// and the whole thing is bit-reproducible from the seed.
TEST(SimFaults, LossyNetworkIsSlowerAndDeterministic) {
  simcluster::SimClusterConfig clean = simcluster::ChibaCityConfig(4);
  simcluster::SimWorkload workload = SmallSimWorkload();
  auto baseline = simcluster::RunSimWorkload(clean, io::MethodType::kList,
                                             IoOp::kRead, workload);
  EXPECT_EQ(baseline.faults.total(), 0u);

  simcluster::SimClusterConfig lossy = clean;
  lossy.fault.seed = 17;
  lossy.fault.drop_rate = 0.10;
  lossy.fault.duplicate_rate = 0.05;
  lossy.fault.delay_rate = 0.10;
  auto first = simcluster::RunSimWorkload(lossy, io::MethodType::kList,
                                          IoOp::kRead, workload);
  auto second = simcluster::RunSimWorkload(lossy, io::MethodType::kList,
                                           IoOp::kRead, workload);
  EXPECT_GT(first.faults.total(), 0u);
  EXPECT_GT(first.faults.retransmits, 0u);
  EXPECT_TRUE(first.faults == second.faults);
  EXPECT_EQ(first.io_seconds, second.io_seconds);  // bit-identical virtual time
  EXPECT_GT(first.io_seconds, baseline.io_seconds);
}

// ---- Trace replay under faults ------------------------------------------

// The trace layer's chaos replay: same workload, fault-free vs injected,
// must produce identical file contents, and the replay result must expose
// the injected-fault and retry counters.
TEST(TraceFaults, ChaosReplayMatchesFaultFreeReplay) {
  trace::Trace trace = trace::CyclicTrace(128 * 1024, 4, 16, IoOp::kWrite);

  testutil::InProcCluster clean_cluster;
  trace::ReplayOptions clean_options;
  auto clean = trace::Replay(*clean_cluster.transport, trace, clean_options);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  EXPECT_EQ(clean->faults.total(), 0u);
  EXPECT_EQ(clean->retries, 0u);

  testutil::InProcCluster chaos_cluster;
  fault::FaultConfig config;
  config.seed = 23;
  config.drop_rate = 0.15;
  config.duplicate_rate = 0.05;
  fault::FaultInjector injector(config);
  trace::ReplayOptions chaos_options;
  chaos_options.injector = &injector;
  chaos_options.retry.max_attempts = 12;
  chaos_options.retry.initial_backoff = microseconds{1};
  chaos_options.retry.max_backoff = microseconds{64};
  auto chaotic = trace::Replay(*chaos_cluster.transport, trace, chaos_options);
  ASSERT_TRUE(chaotic.ok()) << chaotic.status().message();
  EXPECT_GT(chaotic->faults.total(), 0u);
  EXPECT_GT(chaotic->retries, 0u);
  EXPECT_EQ(chaotic->bytes_written, clean->bytes_written);

  Client clean_reader = clean_cluster.MakeClient();
  Client chaos_reader = chaos_cluster.MakeClient();
  auto cfd = clean_reader.Open(clean_options.file_name);
  auto xfd = chaos_reader.Open(chaos_options.file_name);
  ASSERT_TRUE(cfd.ok());
  ASSERT_TRUE(xfd.ok());
  auto cmeta = clean_reader.Stat(*cfd);
  auto xmeta = chaos_reader.Stat(*xfd);
  ASSERT_TRUE(cmeta.ok());
  ASSERT_TRUE(xmeta.ok());
  EXPECT_EQ(cmeta->size, xmeta->size);
  ByteBuffer clean_bytes(cmeta->size);
  ByteBuffer chaos_bytes(xmeta->size);
  ASSERT_TRUE(clean_reader.Read(*cfd, 0, clean_bytes).ok());
  ASSERT_TRUE(chaos_reader.Read(*xfd, 0, chaos_bytes).ok());
  EXPECT_EQ(clean_bytes, chaos_bytes);
}

}  // namespace
}  // namespace pvfs
