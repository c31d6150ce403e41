// Failover bench: replicated I/O over real TCP sockets under a
// deterministic mid-write iod kill.
//
// Three cells (plus the post-restart repair accounting):
//   baseline-replicas1  unreplicated write+read, the cost floor
//   healthy-replicas2   2-way replicated write+read, all daemons up
//   degraded-replicas2  2-way replicated write with one iod killed at a
//                       fixed operation index mid-write; the job must
//                       finish with zero failures and read back
//                       bit-identical through failover
//
// Methodology (EXPERIMENTS.md "Failover under replication"): fixed fill
// seed, fixed kill point, fixed victim — the run is reproducible op for
// op. Exit status is nonzero if any job fails or contents mismatch, so
// the CI smoke run doubles as an acceptance check.
//
//   --smoke   8 ops of 64 KiB (CI)
//   default   32 ops of 128 KiB
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "net/socket_transport.hpp"
#include "pvfs/client.hpp"
#include "pvfs/repair.hpp"

using namespace pvfs;
using namespace pvfs::bench;
using namespace pvfs::net;

namespace {

constexpr std::uint64_t kFillSeed = 123;  // pattern seed for every image
constexpr ServerId kVictim = 1;           // iod killed in the degraded cell
constexpr std::uint32_t kKillAtOp = 4;    // ops completed before the kill
const Striping kStriping{0, 4, 16384};

Client::Options FailoverOptions() {
  Client::Options options;
  options.retry.max_attempts = 12;
  options.retry.initial_backoff = std::chrono::microseconds{100};
  options.retry.max_backoff = std::chrono::microseconds{5'000};
  return options;
}

struct CellResult {
  double seconds = 0;
  std::uint64_t job_failures = 0;
  std::uint64_t retargets = 0;
  std::uint64_t ejected = 0;
  bool verified = false;
};

/// Write `ops` slices of `golden` through `client`, killing `victim`
/// after `kill_at` ops when `cluster` is non-null, then read the whole
/// file back and compare.
CellResult RunCell(SocketCluster* cluster, Client& client,
                   const std::string& name, ReplicationConfig replication,
                   const ByteBuffer& golden, std::uint32_t ops) {
  CellResult result;
  const ByteCount slice = golden.size() / ops;
  const auto start = std::chrono::steady_clock::now();
  auto fd = client.Create(name, kStriping, replication);
  if (!fd.ok()) {
    ++result.job_failures;
    return result;
  }
  for (std::uint32_t op = 0; op < ops; ++op) {
    if (cluster != nullptr && op == kKillAtOp) {
      (void)cluster->StopIod(kVictim);
    }
    std::span<const std::byte> data(golden);
    Status wrote =
        client.Write(*fd, op * slice, data.subspan(op * slice, slice));
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s: write op %u failed: %s\n", name.c_str(), op,
                   wrote.message().c_str());
      ++result.job_failures;
    }
  }
  ByteBuffer out(golden.size());
  Status read = client.Read(*fd, 0, out);
  if (!read.ok()) {
    std::fprintf(stderr, "%s: readback failed: %s\n", name.c_str(),
                 read.message().c_str());
    ++result.job_failures;
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.verified = read.ok() && out == golden;
  result.retargets = client.failover_counters().retargets;
  result.ejected = client.failover_counters().ejected_replicas;
  return result;
}

obs::JsonValue CellJson(const char* method, const CellResult& r,
                        std::uint32_t ops, ByteCount bytes) {
  obs::JsonValue cell = obs::JsonValue::Object();
  cell.Set("method", obs::JsonValue(method));
  cell.Set("ops", obs::JsonValue(static_cast<std::uint64_t>(ops)));
  cell.Set("bytes", obs::JsonValue(bytes));
  cell.Set("seconds", obs::JsonValue(r.seconds));
  cell.Set("mb_per_second",
           obs::JsonValue(r.seconds > 0
                              ? static_cast<double>(bytes) / 1.0e6 / r.seconds
                              : 0.0));
  cell.Set("job_failures", obs::JsonValue(r.job_failures));
  cell.Set("retargets", obs::JsonValue(r.retargets));
  cell.Set("ejected_replicas", obs::JsonValue(r.ejected));
  cell.Set("verified", obs::JsonValue(r.verified));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseFlags(argc, argv);
  const std::uint32_t ops = flags.smoke ? 8 : 32;
  const ByteCount slice = flags.smoke ? 64 * 1024 : 128 * 1024;
  const ByteCount bytes = static_cast<ByteCount>(ops) * slice;
  PrintBanner("failover",
              "replicated write/read with a deterministic mid-write iod kill",
              flags);
  BenchJson json(flags, "failover",
                 "2-way replication failover vs healthy vs unreplicated");

  ByteBuffer golden(bytes);
  FillPattern(golden, kFillSeed, 0);
  bool ok = true;

  // ---- baseline: replicas=1 ---------------------------------------------
  {
    auto cluster = SocketCluster::Start(4);
    if (!cluster.ok()) return 1;
    auto transport = (*cluster)->Connect(
        {.call_timeout = std::chrono::milliseconds{500}});
    Client client(transport.get(), FailoverOptions());
    CellResult r = RunCell(nullptr, client, "f", ReplicationConfig{1}, golden,
                           ops);
    std::printf("baseline-replicas1: %.3fs failures=%llu verified=%d\n",
                r.seconds, static_cast<unsigned long long>(r.job_failures),
                r.verified);
    ok = ok && r.job_failures == 0 && r.verified;
    json.Row(CellJson("baseline-replicas1", r, ops, bytes));
  }

  // ---- healthy: replicas=2 ----------------------------------------------
  {
    auto cluster = SocketCluster::Start(4);
    if (!cluster.ok()) return 1;
    auto transport = (*cluster)->Connect(
        {.call_timeout = std::chrono::milliseconds{500}});
    Client client(transport.get(), FailoverOptions());
    CellResult r = RunCell(nullptr, client, "f", ReplicationConfig{2}, golden,
                           ops);
    std::printf("healthy-replicas2: %.3fs failures=%llu verified=%d\n",
                r.seconds, static_cast<unsigned long long>(r.job_failures),
                r.verified);
    ok = ok && r.job_failures == 0 && r.verified;
    json.Row(CellJson("healthy-replicas2", r, ops, bytes));
  }

  // ---- degraded: replicas=2, kill one iod mid-write ----------------------
  {
    auto cluster = SocketCluster::Start(4);
    if (!cluster.ok()) return 1;
    auto transport = (*cluster)->Connect(
        {.call_timeout = std::chrono::milliseconds{500}});
    Client client(transport.get(), FailoverOptions());
    CellResult r = RunCell(cluster->get(), client, "f", ReplicationConfig{2},
                           golden, ops);
    std::printf(
        "degraded-replicas2: %.3fs failures=%llu retargets=%llu verified=%d "
        "(killed iod %u after op %u)\n",
        r.seconds, static_cast<unsigned long long>(r.job_failures),
        static_cast<unsigned long long>(r.retargets), r.verified,
        static_cast<unsigned>(kVictim), kKillAtOp);
    ok = ok && r.job_failures == 0 && r.verified && r.retargets > 0;
    json.Row(CellJson("degraded-replicas2", r, ops, bytes));

    // Restart + automatic scrub: redundancy restored, accounted.
    const auto repair_start = std::chrono::steady_clock::now();
    Status restarted = (*cluster)->RestartIod(kVictim);
    const double repair_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      repair_start)
            .count();
    const std::uint64_t copied =
        (*cluster)->iod(kVictim).stats().repair_chunks_copied;
    std::printf("repair: %.3fs chunks_copied=%llu\n", repair_seconds,
                static_cast<unsigned long long>(copied));
    ok = ok && restarted.ok() && copied > 0;
    obs::JsonValue cell = obs::JsonValue::Object();
    cell.Set("method", obs::JsonValue("repair-after-restart"));
    cell.Set("seconds", obs::JsonValue(repair_seconds));
    cell.Set("chunks_copied", obs::JsonValue(copied));
    json.Row(std::move(cell));
  }

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
