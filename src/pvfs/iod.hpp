// I/O daemon (iod): serves file data for the stripe units assigned to one
// server. Every request carries striping parameters and a list of logical
// file regions (trailing data); the daemon intersects that list with its
// own stripe units and reads/writes its local store. Responses carry this
// server's bytes in logical-walk order, so the client can reassemble
// without extra metadata.
//
// Thread safety: every transport serializes service per daemon, one
// HandleSealedMessage (and so one Serve) at a time: the in-process
// transport's per-endpoint mutex, ThreadedCluster's one event-loop thread
// per daemon and the TCP server's service mutex. The store keeps its
// mutex and every stat stays an atomic because threads outside service
// read them while a request runs: stats(), ExportMetrics, and tests and
// benchmark probes that inspect the store. The manager is serialized the
// same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "pvfs/config.hpp"
#include "pvfs/distribution.hpp"
#include "pvfs/protocol.hpp"
#include "pvfs/scheduler.hpp"
#include "pvfs/store.hpp"

namespace pvfs {

class IoDaemon {
 public:
  /// `id` is this daemon's slot in the file system's server table.
  /// `max_list_regions` is the trailing-data limit it enforces
  /// (kMaxListRegions in the paper's configuration).
  explicit IoDaemon(ServerId id,
                    std::uint32_t max_list_regions = kMaxListRegions)
      : IoDaemon(id, ServerConfig{.max_list_regions = max_list_regions}) {}

  /// Full service configuration (docs/server-scheduling.md). Admission
  /// control (`max_queue_depth`) is enforced by the transport in front of
  /// the daemon, not here.
  IoDaemon(ServerId id, const ServerConfig& config)
      : id_(id), config_(config) {}

  std::vector<std::byte> HandleMessage(std::span<const std::byte> raw);

  /// Transport entry point: verifies the request frame's CRC32C trailer,
  /// dispatches, and seals the response. A corrupt request is rejected
  /// with a (sealed) kCorruption envelope — typed, never a crash. All
  /// transports call this; HandleMessage remains for direct unit tests.
  std::vector<std::byte> HandleSealedMessage(std::span<const std::byte> raw);

  /// Direct-call service path (also used by HandleMessage). Executes the
  /// request's run plan: one store access per merged local run, and one
  /// journaled WriteV intent per write request.
  Result<IoResponse> Serve(const IoRequest& req);

  /// Replay-or-rollback any write intents left pending by a crash. Runs
  /// automatically at the start of every served request (the first call
  /// after a restart recovers the store before touching data); exposed
  /// for eager recovery on explicit daemon restarts.
  void RecoverStore();

  /// On-demand integrity scrub of the whole store; results accumulate in
  /// stats() and the store's integrity counters.
  LocalStore::ScrubStats Scrub();

  ServerId id() const { return id_; }
  const ServerConfig& config() const { return config_; }
  LocalStore& store() { return store_; }
  const LocalStore& store() const { return store_; }

  /// Arms transient disk read/write error injection (src/fault). The
  /// injected failure is reported BEFORE any byte touches the store, so a
  /// failed request leaves this server's stripe unchanged and an
  /// idempotent resend repairs nothing worse than a clean miss. Pass
  /// nullptr to disarm.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// All counters are atomics so that readers on other threads (stats(),
  /// ExportMetrics, benchmark probes) can load fields during service.
  struct Stats {
    std::atomic<std::uint64_t> requests = 0;
    std::atomic<std::uint64_t> regions = 0;  // trailing-data entries received
    std::atomic<std::uint64_t> local_accesses = 0; // coalesced runs (sorted)
    std::atomic<std::uint64_t> store_ops = 0; // runs issued
    std::atomic<std::uint64_t> bytes_read = 0;
    std::atomic<std::uint64_t> bytes_written = 0;
    std::atomic<std::uint64_t> injected_errors = 0;  // failed by injection
    std::atomic<std::uint64_t> corruptions_detected = 0;  // frames + CRCs
    std::atomic<std::uint64_t> journal_replays = 0;   // redone on recovery
    std::atomic<std::uint64_t> journal_rollbacks = 0; // torn, discarded
    std::atomic<std::uint64_t> torn_writes = 0;  // injected crashes
    std::atomic<std::uint64_t> scrub_chunks_scanned = 0;
    std::atomic<std::uint64_t> scrub_corruptions = 0;
    std::atomic<std::uint64_t> scrub_repairs = 0;
    std::atomic<std::uint64_t> repair_chunks_scanned = 0;  // manifests served
    std::atomic<std::uint64_t> repair_chunks_copied = 0;   // applies taken
  };
  const Stats& stats() const { return stats_; }
  /// The counters as one JSON object (the kStats response body).
  obs::JsonValue StatsJson() const;
  /// Mirror the counters into a metrics registry as "iod.*" with a
  /// server=<id> label appended to `base`.
  void ExportMetrics(obs::Registry& reg, const obs::Labels& base = {}) const;

 private:
  ServerId id_;
  ServerConfig config_;
  LocalStore store_;
  Stats stats_;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace pvfs
