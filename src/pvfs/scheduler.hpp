// Server-side fragment scheduling: turn the fragments one I/O request
// assigns to a daemon into the minimal sequence of contiguous local store
// accesses (paper §5: "more intelligent scheduling of the data movement at
// the server").
//
// A RunPlan sorts the fragments by local offset and merges adjacent or
// overlapping ones into *runs*; the daemon then issues one store
// read/write per run and scatters/gathers bytes between the run buffers
// and the request payload through the ORIGINAL fragment order, so the
// payload on the wire holds the server's bytes in logical-walk order. The
// run count is also the paper's coalesced-disk-access accounting unit
// (`local_accesses` in iod stats) — counting on the sorted view is what
// keeps cyclic patterns, whose logical walk revisits lower local offsets,
// from over-counting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "pvfs/distribution.hpp"

namespace pvfs {

/// One contiguous local store access covering one or more fragments.
struct ScheduledRun {
  FileOffset offset = 0;   // local offset of the run's first byte
  ByteCount length = 0;    // merged extent length
  ByteCount buf_offset = 0;  // run's position in the plan's scratch buffer
};

/// The offset-sorted, merged access plan for one request's fragments.
struct RunPlan {
  std::vector<ScheduledRun> runs;
  /// fragment index (in the original, logical-order fragment list) ->
  /// index into `runs` of the run containing it.
  std::vector<std::uint32_t> run_of;
  /// Total scratch bytes needed to stage every run (sum of run lengths).
  ByteCount total_bytes = 0;
};

/// Build the access plan for `fragments` (a daemon's share of one request,
/// in logical order). Sorting is stable on local offset, so equal-offset
/// fragments keep their logical order; runs merge fragments that touch or
/// overlap in local-offset space.
RunPlan BuildRunPlan(std::span<const Fragment> fragments);

}  // namespace pvfs
