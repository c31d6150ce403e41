// Trace export: the traced run's benchmark-side spans as Chrome
// trace-event JSON (loads in Perfetto or chrome://tracing), with each
// layer's self time and the tracing overhead attached as metadata.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "harness.hpp"

namespace perfbench {

/// One layer's self time per API op.
struct LayerSelf {
  std::string layer;
  double us_per_op = 0;
};

/// Spans beyond this many are dropped from the file (counted in it).
inline constexpr std::size_t kMaxExportedSpans = 200000;

pvfs::Status WriteChromeTrace(const std::string& path,
                              std::vector<SpanRecord> spans,
                              const std::string& workload, std::uint64_t seed,
                              const std::vector<LayerSelf>& layers,
                              double overhead_frac);

}  // namespace perfbench
