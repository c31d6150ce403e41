// The three workloads: flash-ckpt (FLASH checkpoint through list I/O),
// tiled-viz (display-wall tile reads) and small-io (1 KiB reads and
// writes). Each runs closed-loop client threads over a Deployment and
// verifies every read against its oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "io/access_pattern.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check scale: every size shrunk so a run takes a few seconds.
  bool tiny = false;
  /// Flip one expected byte of the first verified read.
  bool corrupt_oracle = false;
  std::string trace_out;
};

/// What the API calls of one phase (a set-up or a measured run) did.
struct Tally {
  std::uint64_t attempted = 0;
  /// Ops that returned a non-OK Status or a byte differing from the oracle.
  std::uint64_t failed = 0;
  std::vector<double> read_us;   // per-call latency
  std::vector<double> write_us;
  std::uint64_t read_bytes = 0;   // verified
  std::uint64_t write_bytes = 0;  // acknowledged
  std::uint64_t read_msgs = 0;    // client messages sent by read calls
  std::uint64_t write_msgs = 0;
  double client_self_us = 0;  // op wall time minus time inside Call

  void Merge(const Tally& other);
};

/// One measured phase.
struct PhaseResult {
  double wall_s = 0;
  Tally tally;
  /// Per-cycle rates (flash-ckpt: per checkpoint; tiled-viz: per frame).
  std::vector<double> read_rates_MBps;
  std::vector<double> write_rates_MBps;
  pvfs::ClientStats client;  // summed over clients, phase delta
  std::uint64_t retries = 0;
  CallStats calls;
  ServerSnapshot before, after;
  std::vector<SpanRecord> spans;  // tracing only
};

/// What one set-up produced besides its time.
struct SetupResult {
  Tally tally;
  /// Write rate of the set-up data (tiled-viz frame file), 0 if none.
  double write_MBps = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Load threads (at most the usable CPUs).
  virtual std::uint32_t threads() const = 0;
  /// Create the files and write the set-up data on a fresh deployment.
  virtual pvfs::Status Setup(Deployment& deployment, Capture* capture,
                             SetupResult& out) = 0;
  /// Closed-loop load for `seconds` (at least one full cycle).
  virtual PhaseResult Run(Deployment& deployment, double seconds,
                          bool tracing, Capture* capture) = 0;
  /// The workload's own access patterns, for the planning probe.
  virtual std::vector<pvfs::io::AccessPattern> PlanningPatterns() const = 0;
  /// A file of the workload, for the null round trip probe.
  virtual pvfs::Client::Fd probe_fd() const = 0;
};

/// The workload named options.workload, or null if there is none.
std::unique_ptr<Workload> MakeWorkload(const Options& options, Oracle& oracle);

}  // namespace perfbench
