// N-way chunk replication end to end: placement-driven write fan-out,
// client read/write failover with per-replica health, and the
// re-replication scrub that restores redundancy after a crash-restart.
// The acceptance scenario from the paper-repro roadmap: with replicas=2,
// killing one iod mid-write completes with bit-identical contents and
// zero job-level failures; after restart the scrub re-copies the missed
// chunks, proven by killing the *other* replica and reading again.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/bytes.hpp"
#include "common/wire.hpp"
#include "fault/fault.hpp"
#include "fault/fault_transport.hpp"
#include "net/socket_transport.hpp"
#include "pvfs/client.hpp"
#include "pvfs/repair.hpp"
#include "test_cluster.hpp"

namespace pvfs {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr ByteCount kFileBytes = 512 * 1024;  // 8 chunks of 64 KiB stripes
const Striping kStriping{0, 4, 16384};
const ReplicationConfig kTwoWay{2};

Client::Options FailoverClientOptions() {
  Client::Options options;
  options.retry.max_attempts = 12;
  options.retry.initial_backoff = microseconds{1};
  options.retry.max_backoff = microseconds{64};
  options.failover.probe_backoff = microseconds{200};
  return options;
}

ByteBuffer GoldenContents() {
  ByteBuffer golden(kFileBytes);
  FillPattern(golden, 123, 0);
  return golden;
}

// ---- Basic replicated data path -----------------------------------------

TEST(Replication, WriteFansOutReadPrefersPrimary) {
  testutil::InProcCluster cluster(4);
  Client client = cluster.MakeClient();
  auto fd = client.Create("r", kStriping, kTwoWay);
  ASSERT_TRUE(fd.ok()) << fd.status().message();
  const ByteBuffer golden = GoldenContents();
  ASSERT_TRUE(client.Write(*fd, 0, golden).ok());

  ByteBuffer out(kFileBytes);
  ASSERT_TRUE(client.Read(*fd, 0, out).ok());
  EXPECT_EQ(out, golden);
  // A healthy cluster never retargets and never ejects.
  EXPECT_EQ(client.failover_counters().retargets, 0u);
  EXPECT_EQ(client.failover_counters().ejected_replicas, 0u);

  // Every daemon holds bytes for two handles: its own primaries (base
  // handle) and its predecessor's replicas (derived handle) — the
  // rotation placement spread, observable as nonzero stored bytes under
  // the derived handle on every server.
  Client probe = cluster.MakeClient();
  auto pfd = probe.Open("r");
  ASSERT_TRUE(pfd.ok());
  auto meta = probe.Stat(*pfd);
  ASSERT_TRUE(meta.ok());
  for (ServerId s = 0; s < 4; ++s) {
    EXPECT_GT(cluster.iods[s]->store().SizeOf(ReplicaHandle(meta->handle, 1)),
              0u)
        << "server " << s << " holds no replica bytes";
  }
}

TEST(Replication, SingleReplicaPathIsUnchanged) {
  // replicas=1 (the default) must behave exactly as the unreplicated
  // client always has: same message count, no failover machinery touched.
  testutil::InProcCluster plain(4);
  testutil::InProcCluster configured(4);
  Client a = plain.MakeClient();
  Client b = configured.MakeClient();
  auto fa = a.Create("f", kStriping);
  auto fb = b.Create("f", kStriping, ReplicationConfig{1});
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  const ByteBuffer golden = GoldenContents();
  ASSERT_TRUE(a.Write(*fa, 0, golden).ok());
  ASSERT_TRUE(b.Write(*fb, 0, golden).ok());
  EXPECT_EQ(a.stats().messages, b.stats().messages);
  EXPECT_EQ(b.failover_counters().retargets, 0u);
  ByteBuffer out(kFileBytes);
  ASSERT_TRUE(b.Read(*fb, 0, out).ok());
  EXPECT_EQ(out, golden);
}

TEST(Replication, ManagerRejectsReplicasBeyondPcount) {
  testutil::InProcCluster cluster(4);
  Client client = cluster.MakeClient();
  auto fd = client.Create("bad", kStriping, ReplicationConfig{5});
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), ErrorCode::kInvalidArgument);
}

// ---- Failover: reads and writes survive a dead iod ----------------------

TEST(ReplicationChaos, ReadFailsOverWhenPrimaryDies) {
  testutil::InProcCluster cluster(4);
  {
    Client writer = cluster.MakeClient();
    auto fd = writer.Create("r", kStriping, kTwoWay);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(writer.Write(*fd, 0, GoldenContents()).ok());
    ASSERT_TRUE(writer.Close(*fd).ok());
  }
  fault::FaultInjector injector(fault::FaultConfig{});
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client client(&chaos, FailoverClientOptions());
  injector.CrashServer(2, 1'000'000);  // never comes back

  auto fd = client.Open("r");
  ASSERT_TRUE(fd.ok());
  ByteBuffer out(kFileBytes);
  Status read = client.Read(*fd, 0, out);
  ASSERT_TRUE(read.ok()) << read.message();
  EXPECT_EQ(out, GoldenContents());
  EXPECT_GT(client.failover_counters().retargets, 0u);
  EXPECT_EQ(client.retry_counters().exhausted, 0u);
}

// The acceptance scenario: one iod is killed and stays dead while a
// replicated write runs. The job completes with zero failures, the file
// reads back bit-identical through failover, and the client counted its
// degraded-ack retargets.
TEST(ReplicationChaos, KillOneIodMidWriteCompletesBitIdentical) {
  testutil::InProcCluster cluster(4);
  fault::FaultInjector injector(fault::FaultConfig{});
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client client(&chaos, FailoverClientOptions());

  auto fd = client.Create("r", kStriping, kTwoWay);
  ASSERT_TRUE(fd.ok());
  const ByteBuffer golden = GoldenContents();
  // First half lands on a healthy cluster; the kill hits mid-file.
  const ByteCount half = kFileBytes / 2;
  ByteBuffer first(golden.begin(),
                   golden.begin() + static_cast<std::ptrdiff_t>(half));
  ByteBuffer second(golden.begin() + static_cast<std::ptrdiff_t>(half),
                    golden.end());
  ASSERT_TRUE(client.Write(*fd, 0, first).ok());
  injector.CrashServer(3, 1'000'000);
  Status rest = client.Write(*fd, half, second);
  ASSERT_TRUE(rest.ok()) << rest.message();  // zero job-level failures
  ASSERT_TRUE(client.Close(*fd).ok());
  EXPECT_GT(client.failover_counters().retargets, 0u);
  EXPECT_EQ(client.retry_counters().exhausted, 0u);

  auto rfd = client.Open("r");
  ASSERT_TRUE(rfd.ok());
  ByteBuffer out(kFileBytes);
  ASSERT_TRUE(client.Read(*rfd, 0, out).ok());
  EXPECT_EQ(out, golden);

  // Failover is not retry: the degraded acks surfaced as retargets, so
  // the retry budget (and its per-code split) stays untouched.
  EXPECT_EQ(client.retry_counters().retries, 0u);
}

// After the kill, the restarted daemon is re-replicated from the
// surviving copies; redundancy is proven restored by killing the OTHER
// replica and reading the whole file again.
TEST(ReplicationChaos, RepairRestoresRedundancyAfterRestart) {
  testutil::InProcCluster cluster(4);
  const ByteBuffer golden = GoldenContents();
  {
    fault::FaultInjector injector(fault::FaultConfig{});
    fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
    Client client(&chaos, FailoverClientOptions());
    auto fd = client.Create("r", kStriping, kTwoWay);
    ASSERT_TRUE(fd.ok());
    injector.CrashServer(3, 1'000'000);  // down for the whole write
    ASSERT_TRUE(client.Write(*fd, 0, golden).ok());
    ASSERT_TRUE(client.Close(*fd).ok());
    EXPECT_GT(client.failover_counters().retargets, 0u);
  }
  // Server 3 missed every write addressed to it (its own primaries and
  // its share of server 2's replicas). "Restart" it and scrub over the
  // clean transport, as SocketCluster::RestartIod does over TCP.
  auto report = RepairRestartedIod(*cluster.transport, 3);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_GT(report->chunks_copied, 0u);
  EXPECT_EQ(report->chunks_unrepaired, 0u);
  EXPECT_GT(cluster.iods[3]->stats().repair_chunks_copied, 0u);
  // The suspect's manifest was empty, so its scanned counter stays 0;
  // the SOURCE daemons served the manifests the copies came from.
  EXPECT_GT(cluster.iods[0]->stats().repair_chunks_scanned, 0u);

  // Second kill, other replica: server 0 holds the surviving copy of
  // server 3's primaries (rotation: replica of primary 3 is (3+1)%4).
  // With it dead, reading server-3 stripes must come from the repaired
  // server 3 itself — zero-filled holes would betray a bogus repair.
  fault::FaultInjector injector(fault::FaultConfig{});
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client client(&chaos, FailoverClientOptions());
  injector.CrashServer(0, 1'000'000);
  auto fd = client.Open("r");
  ASSERT_TRUE(fd.ok());
  ByteBuffer out(kFileBytes);
  Status read = client.Read(*fd, 0, out);
  ASSERT_TRUE(read.ok()) << read.message();
  EXPECT_EQ(out, golden);
}

// A second scrub over an already-consistent cluster copies nothing: the
// checksum compare recognizes intact chunks (idempotent repair).
TEST(ReplicationChaos, RepairIsIdempotent) {
  testutil::InProcCluster cluster(4);
  Client client = cluster.MakeClient();
  auto fd = client.Create("r", kStriping, kTwoWay);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client.Write(*fd, 0, GoldenContents()).ok());

  auto report = RepairRestartedIod(*cluster.transport, 1);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->chunks_copied, 0u);
  EXPECT_GT(report->chunks_examined, 0u);
  EXPECT_EQ(report->chunks_unrepaired, 0u);
}

// Consecutive failures eject the dead endpoint: later operations skip it
// without paying its timeout, and the ejection is counted once.
TEST(ReplicationChaos, DeadReplicaIsEjectedAfterThreshold) {
  testutil::InProcCluster cluster(4);
  {
    Client writer = cluster.MakeClient();
    auto fd = writer.Create("r", kStriping, kTwoWay);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(writer.Write(*fd, 0, GoldenContents()).ok());
  }
  fault::FaultInjector injector(fault::FaultConfig{});
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client::Options options = FailoverClientOptions();
  options.failover.eject_after = 2;
  options.failover.probe_backoff = microseconds{50'000};  // no probe in-test
  Client client(&chaos, options);
  injector.CrashServer(1, 1'000'000);

  auto fd = client.Open("r");
  ASSERT_TRUE(fd.ok());
  ByteBuffer out(kFileBytes);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.Read(*fd, 0, out).ok());
  }
  EXPECT_EQ(out, GoldenContents());
  EXPECT_GE(client.failover_counters().ejected_replicas, 1u);
  // Ejection caps the failure count: 6 full-file reads against an
  // unejected endpoint would fail 1's stripes every time; the health map
  // short-circuits most of them.
  EXPECT_GT(client.failover_counters().retargets, 0u);
}

// The per-code retry split (satellite): a transient crash on an
// UNREPLICATED file goes through the in-place retry loop, and every one
// of those resends lands in the kUnavailable bucket.
TEST(ReplicationChaos, RetryCountersSplitByErrorCode) {
  testutil::InProcCluster cluster(4);
  fault::FaultInjector injector(fault::FaultConfig{});
  fault::FaultInjectingTransport chaos(cluster.transport.get(), &injector);
  Client client(&chaos, FailoverClientOptions());
  auto fd = client.Create("f", kStriping);  // replicas=1: no failover
  ASSERT_TRUE(fd.ok());
  ByteBuffer data(kFileBytes);
  FillPattern(data, 17, 0);
  injector.CrashServer(2, 4);  // refuses 4 calls, then restarts
  ASSERT_TRUE(client.Write(*fd, 0, data).ok());
  const auto counters = client.retry_counters();
  EXPECT_GT(counters.retries, 0u);
  EXPECT_EQ(counters.retries_unavailable, counters.retries);
  EXPECT_EQ(counters.retries_busy, 0u);
  EXPECT_EQ(counters.retries_corruption, 0u);
  EXPECT_EQ(counters.retries_deadline, 0u);
}

// ---- Over real TCP: crash, restart, automatic scrub ---------------------

TEST(ReplicationSocket, RestartIodScrubsAndSurvivesSecondKill) {
  auto cluster = net::SocketCluster::Start(4);
  ASSERT_TRUE(cluster.ok());
  auto transport =
      (*cluster)->Connect({.call_timeout = milliseconds{5000}});
  Client client(transport.get(), FailoverClientOptions());

  auto fd = client.Create("r", kStriping, kTwoWay);
  ASSERT_TRUE(fd.ok());
  const ByteBuffer golden = GoldenContents();

  ASSERT_TRUE((*cluster)->StopIod(1).ok());
  Status wrote = client.Write(*fd, 0, golden);
  ASSERT_TRUE(wrote.ok()) << wrote.message();
  EXPECT_GT(client.failover_counters().retargets, 0u);

  // RestartIod re-replicates before returning: daemon 1's missed chunks
  // are copied back from the surviving replicas over the wire.
  ASSERT_TRUE((*cluster)->RestartIod(1).ok());
  EXPECT_GT((*cluster)->iod(1).stats().repair_chunks_copied, 0u);

  // Kill the partner that covered for daemon 1 (rotation: replica of
  // primary 1 lives on daemon 2). The read must now be served from the
  // scrubbed copy.
  ASSERT_TRUE((*cluster)->StopIod(2).ok());
  ByteBuffer out(kFileBytes);
  Status read = client.Read(*fd, 0, out);
  ASSERT_TRUE(read.ok()) << read.message();
  EXPECT_EQ(out, golden);
}

TEST(ReplicationSocket, ExplicitRepairReportsWork) {
  auto cluster = net::SocketCluster::Start(4);
  ASSERT_TRUE(cluster.ok());
  auto transport =
      (*cluster)->Connect({.call_timeout = milliseconds{5000}});
  Client client(transport.get(), FailoverClientOptions());
  auto fd = client.Create("r", kStriping, kTwoWay);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE((*cluster)->StopIod(3).ok());
  ASSERT_TRUE(client.Write(*fd, 0, GoldenContents()).ok());
  ASSERT_TRUE((*cluster)->RestartIod(3).ok());  // auto-scrub inside

  // A follow-up explicit scrub finds nothing left to do.
  auto again = (*cluster)->RepairIod(3);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again->chunks_copied, 0u);
  EXPECT_GT(again->files_checked, 0u);
}

TEST(ReplicationSocket, ConnectErrorsNameTheDaemonAddress) {
  auto cluster = net::SocketCluster::Start(2);
  ASSERT_TRUE(cluster.ok());
  const auto addresses = (*cluster)->iod_addresses();
  auto transport =
      (*cluster)->Connect({.call_timeout = milliseconds{250}});
  Client client(transport.get());
  auto fd = client.Create("f", Striping{0, 2, 16384});
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE((*cluster)->StopIod(1).ok());
  ByteBuffer data(2 * 16384);
  FillPattern(data, 8, 0);
  Status status = client.Write(*fd, 0, data);
  ASSERT_FALSE(status.ok());
  // The failure says WHICH daemon refused (satellite: endpoint-labelled
  // connect errors).
  EXPECT_NE(status.message().find(net::EndpointLabel(addresses[1])),
            std::string::npos)
      << status.message();
}

TEST(ReplicationSocket, TimeoutErrorsNameTheDaemonAddress) {
  auto server = net::SocketServer::Start(0, [](std::span<const std::byte> req) {
    std::this_thread::sleep_for(milliseconds{200});  // stalled daemon
    return std::vector<std::byte>(req.begin(), req.end());
  });
  ASSERT_TRUE(server.ok());
  const net::SocketAddress address{"127.0.0.1", (*server)->port()};
  net::SocketTransport transport({"127.0.0.1", 0}, {address},
                                 {.call_timeout = milliseconds{25}});
  auto reply = transport.Call(Endpoint::Iod(0), SealFrame(ByteBuffer(16)));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_NE(reply.status().message().find(net::EndpointLabel(address)),
            std::string::npos)
      << reply.status().message();
}

}  // namespace
}  // namespace pvfs
