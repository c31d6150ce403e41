// Same-run probes. Calibration probes measure the machine (memcpy, CRC32C,
// the cheapest manager round trip); layer probes time one layer in
// isolation on the run's own inputs: the workload's access patterns and
// the iod exchanges captured while it ran.
#pragma once

#include <vector>

#include "harness.hpp"
#include "io/access_pattern.hpp"
#include "pvfs/transport.hpp"

namespace perfbench {

struct ProbeResults {
  double memcpy_us_per_mib = 0;
  double crc32c_us_per_mib = 0;
  double null_rtt_us = 0;
  double plan_us_per_op = 0;
  double encode_us_per_msg = 0;
  double decode_us_per_msg = 0;
  double seal_us_per_msg = 0;
  double open_us_per_msg = 0;
  double store_read_us_per_access = 0;
  double store_write_us_per_access = 0;
  double store_read_us_per_msg = 0;
  double store_write_us_per_msg = 0;
};

double ProbeMemcpyUsPerMib();
double ProbeCrc32cUsPerMib();
/// Median round trip of a sealed Stat of `handle` to the manager.
pvfs::Result<double> ProbeNullRttUs(pvfs::Transport& transport,
                                    pvfs::FileHandle handle);
/// Client-side planning of one op: Segments(), ChunkRegions and
/// Distribution::Fragments on each pattern.
double ProbePlanUsPerOp(const std::vector<pvfs::io::AccessPattern>& patterns);
/// IoRequest encode/decode, frame seal/open and a standalone LocalStore
/// replay of the per-server pieces, all on the captured exchanges.
pvfs::Status ProbeCapturedLayers(const std::vector<CapturedExchange>& exchanges,
                                 ProbeResults& out);

}  // namespace perfbench
