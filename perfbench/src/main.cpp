// pvfs_perfbench: wall-clock benchmark of the functional PVFS over
// loopback TCP.
//
//   pvfs_perfbench --workload <flash-ckpt|tiled-viz|small-io> --seed <n>
//                  --seconds <s> --trace <0|1>
//                  [--trace-out <path>] [--tiny] [--corrupt-oracle]
//
// Sets the deployment up repeatedly (the median is setup_s), runs the
// workload's closed loop for --seconds, verifies every read, then runs the
// same-run probes. Human-readable lines go first; the last line of stdout
// is one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run is
// split into an untraced and a traced half, the metrics are the per-layer
// ones, and the traced half's spans are written to --trace-out as Chrome
// trace-event JSON.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "pvfs_perfbench: %s\n", message.c_str());
  return 1;
}

bool ParseArgs(int argc, char** argv, Options& options, std::string& error) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--corrupt-oracle") {
      options.corrupt_oracle = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--trace-out") {
      const char* v = i + 1 < argc ? argv[++i] : nullptr;
      if (v == nullptr) {
        error = arg + " needs a value";
        return false;
      }
      char* end = nullptr;
      if (arg == "--workload") {
        options.workload = v;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(v, &end, 10);
        have_seed = end != v && *end == '\0';
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(v, &end);
        have_seconds = end != v && *end == '\0' && options.seconds > 0;
      } else if (arg == "--trace") {
        if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
          error = "--trace takes 0 or 1";
          return false;
        }
        options.trace = v[0] == '1';
      } else {
        options.trace_out = v;
      }
    } else {
      error = "unknown argument " + arg;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    error = "--workload, --seed and a positive --seconds are required";
    return false;
  }
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Summed histogram deltas of every iod between two snapshots.
struct ServerDelta {
  std::vector<std::uint64_t> wait_counts, service_counts;
  std::vector<double> service_sums;  // per iod
  double wait_sum = 0, service_sum = 0;
  std::uint64_t rejected = 0, requests = 0, store_ops = 0, local_accesses = 0;
};

ServerDelta Delta(const ServerSnapshot& before, const ServerSnapshot& after) {
  ServerDelta d;
  d.wait_counts.assign(after.bounds.size() + 1, 0);
  d.service_counts.assign(after.bounds.size() + 1, 0);
  for (std::size_t s = 0; s < after.iods.size(); ++s) {
    const ServerSnapshot::Iod& a = after.iods[s];
    const ServerSnapshot::Iod& b = before.iods[s];
    for (std::size_t i = 0; i < d.wait_counts.size(); ++i) {
      d.wait_counts[i] += a.wait_counts[i] - b.wait_counts[i];
      d.service_counts[i] += a.service_counts[i] - b.service_counts[i];
    }
    d.wait_sum += a.wait_sum - b.wait_sum;
    d.service_sum += a.service_sum - b.service_sum;
    d.service_sums.push_back(a.service_sum - b.service_sum);
    d.rejected += a.rejected - b.rejected;
    d.requests += a.requests - b.requests;
    d.store_ops += a.store_ops - b.store_ops;
    d.local_accesses += a.local_accesses - b.local_accesses;
  }
  return d;
}

double OpsPerSecond(const PhaseResult& phase) {
  return Ratio(static_cast<double>(phase.tally.attempted - phase.tally.failed),
               phase.wall_s);
}

/// The end-to-end metrics of one untraced phase. Write metrics fall back
/// to the set-up's writes on a workload whose loop writes nothing.
std::vector<Metric> EndToEnd(const PhaseResult& phase,
                             const std::vector<double>& setup_s,
                             const std::vector<SetupResult>& setups,
                             double rss_mib) {
  std::vector<double> write_us = phase.tally.write_us;
  double write_MBps = 0;
  if (!phase.write_rates_MBps.empty()) {
    write_MBps = Median(phase.write_rates_MBps);
  } else if (phase.tally.write_bytes > 0) {
    write_MBps = phase.tally.write_bytes / phase.wall_s / 1e6;
  } else {
    std::vector<double> rates;
    for (const SetupResult& s : setups) {
      rates.push_back(s.write_MBps);
      write_us.insert(write_us.end(), s.tally.write_us.begin(),
                      s.tally.write_us.end());
    }
    write_MBps = Median(rates);
  }
  const double read_MBps = !phase.read_rates_MBps.empty()
                               ? Median(phase.read_rates_MBps)
                               : phase.tally.read_bytes / phase.wall_s / 1e6;
  const Tally& t = phase.tally;
  return {
      {"setup_s", Median(setup_s), "s"},
      {"write_MBps", write_MBps, "MB/s"},
      {"read_MBps", read_MBps, "MB/s"},
      {"ops_per_s", OpsPerSecond(phase), "1/s"},
      {"read_p50_us", Quantile(t.read_us, 0.50), "us"},
      {"read_p99_us", Quantile(t.read_us, 0.99), "us"},
      {"write_p50_us", Quantile(write_us, 0.50), "us"},
      {"write_p99_us", Quantile(write_us, 0.99), "us"},
      {"ok_frac",
       Ratio(static_cast<double>(t.attempted - t.failed),
             static_cast<double>(t.attempted)),
       "fraction"},
      {"rss_peak_mib", rss_mib, "MiB"},
  };
}

/// Per-op self time of each layer on the traced phase. Server-side time
/// comes from the admission histograms; the store's share of iod service
/// is the message count times the standalone store replay's cost.
std::vector<LayerSelf> LayerSplit(const PhaseResult& traced,
                                  const ProbeResults& probes) {
  const ServerDelta d = Delta(traced.before, traced.after);
  const double ops = static_cast<double>(traced.tally.attempted);
  const double call_us = Sum(traced.calls.iod_call_us);
  const double store_us = std::min(
      d.service_sum,
      traced.tally.read_msgs * probes.store_read_us_per_msg +
          traced.tally.write_msgs * probes.store_write_us_per_msg);
  return {
      {"client", Ratio(traced.tally.client_self_us, ops)},
      {"net", Ratio(call_us - d.wait_sum - d.service_sum, ops)},
      {"admission", Ratio(d.wait_sum, ops)},
      {"iod", Ratio(d.service_sum - store_us, ops)},
      {"store", Ratio(store_us, ops)},
  };
}

std::vector<Metric> PerLayer(const PhaseResult& traced,
                             const ProbeResults& probes,
                             const std::vector<double>& manager_call_us,
                             const std::vector<LayerSelf>& split,
                             double overhead_frac, double fail_frac,
                             std::uint64_t corruptions) {
  const ServerDelta d = Delta(traced.before, traced.after);
  const double ops = static_cast<double>(traced.tally.attempted);
  const double msgs = static_cast<double>(traced.client.messages);
  const double iod_msgs = static_cast<double>(d.requests);
  const double user_bytes = static_cast<double>(traced.client.bytes_read +
                                                traced.client.bytes_written);
  double busiest = 0;
  for (double s : d.service_sums) busiest = std::max(busiest, s);
  const double mean_service = d.service_sum / kIods;
  std::vector<Metric> m = {
      {"client.self_us_per_op", Ratio(traced.tally.client_self_us, ops), "us"},
      {"client.msgs_per_op", Ratio(msgs, ops), "count"},
      {"client.fs_requests_per_op",
       Ratio(static_cast<double>(traced.client.fs_requests), ops), "count"},
      {"client.regions_per_msg",
       Ratio(static_cast<double>(traced.client.regions_sent), msgs), "count"},
      {"client.retries_per_op", Ratio(static_cast<double>(traced.retries), ops),
       "count"},
      {"io.plan_us_per_op", probes.plan_us_per_op, "us"},
      {"protocol.encode_us_per_msg", probes.encode_us_per_msg, "us"},
      {"protocol.decode_us_per_msg", probes.decode_us_per_msg, "us"},
      {"wire.seal_us_per_msg", probes.seal_us_per_msg, "us"},
      {"wire.open_us_per_msg", probes.open_us_per_msg, "us"},
      {"wire.bytes_per_user_byte",
       Ratio(static_cast<double>(traced.calls.request_bytes +
                                 traced.calls.response_bytes),
             user_bytes),
       "ratio"},
      {"net.call_us_p50", Quantile(traced.calls.iod_call_us, 0.50), "us"},
      {"net.call_us_p99", Quantile(traced.calls.iod_call_us, 0.99), "us"},
      {"net.self_us_per_msg",
       Ratio(Sum(traced.calls.iod_call_us) - d.wait_sum - d.service_sum,
             static_cast<double>(traced.calls.iod_calls)),
       "us"},
      {"admission.wait_us_p50",
       BucketQuantile(traced.after.bounds, d.wait_counts, 0.50), "us"},
      {"admission.wait_us_p99",
       BucketQuantile(traced.after.bounds, d.wait_counts, 0.99), "us"},
      {"admission.rejected", static_cast<double>(d.rejected), "count"},
      {"iod.service_us_p50",
       BucketQuantile(traced.after.bounds, d.service_counts, 0.50), "us"},
      {"iod.service_us_p99",
       BucketQuantile(traced.after.bounds, d.service_counts, 0.99), "us"},
      {"iod.busy_frac", Ratio(d.service_sum, traced.wall_s * 1e6 * kIods),
       "fraction"},
      {"iod.imbalance", Ratio(busiest, mean_service), "ratio"},
      {"iod.store_ops_per_msg",
       Ratio(static_cast<double>(d.store_ops), iod_msgs), "count"},
      {"iod.local_accesses_per_msg",
       Ratio(static_cast<double>(d.local_accesses), iod_msgs), "count"},
      {"store.read_us_per_access", probes.store_read_us_per_access, "us"},
      {"store.write_us_per_access", probes.store_write_us_per_access, "us"},
      {"store.corruptions", static_cast<double>(corruptions), "count"},
      {"manager.msgs_per_op",
       Ratio(static_cast<double>(traced.calls.manager_calls), ops), "count"},
      {"manager.call_us_p50", Median(manager_call_us), "us"},
      {"calib.memcpy_us_per_mib", probes.memcpy_us_per_mib, "us"},
      {"calib.crc32c_us_per_mib", probes.crc32c_us_per_mib, "us"},
      {"calib.null_rtt_us", probes.null_rtt_us, "us"},
      {"trace.overhead_frac", overhead_frac, "fraction"},
  };
  for (const LayerSelf& layer : split) {
    m.push_back({"trace." + layer.layer + "_self_us_per_op", layer.us_per_op,
                 "us"});
  }
  m.push_back({"fail_frac", fail_frac, "fraction"});
  return m;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Run(const Options& options) {
  Oracle oracle;
  if (options.corrupt_oracle) oracle.ArmCorruption();
  std::unique_ptr<Workload> workload = MakeWorkload(options, oracle);
  if (workload == nullptr) return Fail("unknown workload " + options.workload);

  // Set up on fresh deployments, at least three times and until a quarter
  // of the run time has gone to set-ups; setup_s is the median and the
  // last deployment stays for the load.
  const std::size_t min_setups = options.tiny ? 2 : 3;
  const double setup_budget_s = options.tiny ? 0 : options.seconds / 4;
  std::vector<double> setup_s;
  std::vector<SetupResult> setup_results;
  std::unique_ptr<Deployment> deployment;
  Capture setup_capture(32);
  while (setup_s.size() < min_setups || Sum(setup_s) < setup_budget_s) {
    deployment.reset();
    const Clock::time_point t0 = Clock::now();
    auto started = StartDeployment(workload->threads());
    if (!started.ok()) return Fail("start: " + started.status().ToString());
    SetupResult result;
    const pvfs::Status status =
        workload->Setup(**started, &setup_capture, result);
    if (!status.ok()) return Fail("set-up: " + status.ToString());
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    setup_results.push_back(std::move(result));
    deployment = std::move(started).value();
  }
  CallStats setup_calls;
  for (ClientSlot& slot : deployment->clients) {
    setup_calls.Merge(slot.transport->stats());
  }

  // The measured load; with tracing, an untraced half then a traced half.
  Capture run_capture(32);
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const PhaseResult untraced =
      workload->Run(*deployment, phase_s, false, &run_capture);
  std::optional<PhaseResult> traced;
  if (options.trace) {
    traced = workload->Run(*deployment, phase_s, true, &run_capture);
  }
  const double rss_mib = PeakRssMib();

  // Same-run probes.
  ProbeResults probes;
  probes.memcpy_us_per_mib = ProbeMemcpyUsPerMib();
  probes.crc32c_us_per_mib = ProbeCrc32cUsPerMib();
  {
    auto meta = deployment->clients[0].client->DescribeFd(workload->probe_fd());
    if (!meta.ok()) return Fail("describe: " + meta.status().ToString());
    auto transport = deployment->cluster->Connect();
    auto rtt = ProbeNullRttUs(*transport, meta->handle);
    if (!rtt.ok()) return Fail("null rtt: " + rtt.status().ToString());
    probes.null_rtt_us = *rtt;
  }
  probes.plan_us_per_op = ProbePlanUsPerOp(workload->PlanningPatterns());
  std::vector<CapturedExchange> exchanges = run_capture.Take();
  bool have_read = false, have_write = false;
  for (const CapturedExchange& e : exchanges) {
    (e.write ? have_write : have_read) = true;
  }
  for (CapturedExchange& e : setup_capture.Take()) {
    if (!(e.write ? have_write : have_read)) exchanges.push_back(std::move(e));
  }
  const pvfs::Status layers = ProbeCapturedLayers(exchanges, probes);
  if (!layers.ok()) return Fail("layer probes: " + layers.ToString());

  // Verdict.
  Tally all = untraced.tally;
  if (traced) all.Merge(traced->tally);
  const std::uint64_t corruptions = TakeSnapshot(*deployment).corruptions;
  const bool correct = all.failed == 0 && corruptions == 0;
  const double fail_frac = Ratio(static_cast<double>(all.failed),
                                 static_cast<double>(all.attempted));

  const std::vector<Metric> e2e =
      EndToEnd(untraced, setup_s, setup_results, rss_mib);
  std::printf("workload %s seed %llu: %llu ops attempted, %llu failed, "
              "%.2f s measured, %u load threads\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed), untraced.wall_s,
              workload->threads());
  std::size_t setup_writes = 0;
  for (const SetupResult& r : setup_results) {
    setup_writes += r.tally.write_us.size();
  }
  if (untraced.tally.write_us.empty()) {
    std::printf("latency samples: read %zu, write %zu (the set-ups' writes; "
                "the loop writes nothing)\n",
                untraced.tally.read_us.size(), setup_writes);
  } else {
    std::printf("latency samples: read %zu, write %zu\n",
                untraced.tally.read_us.size(), untraced.tally.write_us.size());
  }
  PrintMetrics("end-to-end (untraced):", e2e);

  std::vector<Metric> output = e2e;
  if (traced) {
    const double overhead_frac =
        Ratio(OpsPerSecond(untraced), OpsPerSecond(*traced)) - 1.0;
    const std::vector<LayerSelf> split = LayerSplit(*traced, probes);
    std::vector<double> manager_us = setup_calls.manager_call_us;
    manager_us.insert(manager_us.end(), traced->calls.manager_call_us.begin(),
                      traced->calls.manager_call_us.end());
    output = PerLayer(*traced, probes, manager_us, split, overhead_frac,
                      fail_frac, corruptions);
    PrintMetrics("per-layer (traced half):", output);
    const LayerSelf* largest = &split[0];
    double total = 0;
    for (const LayerSelf& layer : split) {
      total += layer.us_per_op;
      if (layer.us_per_op > largest->us_per_op) largest = &layer;
    }
    std::printf("largest self time: %s, %.1f us of %.1f us per op (%.0f%%); "
                "tracing overhead %+.1f%% (ops/s %.1f untraced, %.1f traced)\n",
                largest->layer.c_str(), largest->us_per_op, total,
                100.0 * Ratio(largest->us_per_op, total), 100.0 * overhead_frac,
                OpsPerSecond(untraced), OpsPerSecond(*traced));
    if (!options.trace_out.empty()) {
      const pvfs::Status written =
          WriteChromeTrace(options.trace_out, traced->spans, options.workload,
                           options.seed, split, overhead_frac);
      if (!written.ok()) return Fail(written.ToString());
      std::printf("trace written to %s (%zu spans)\n",
                  options.trace_out.c_str(), traced->spans.size());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(all.attempted);
  json += ", \"failed\": " + std::to_string(all.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < output.size(); ++i) {
    if (!std::isfinite(output[i].value)) {
      return Fail("metric " + output[i].name + " has no finite value");
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", output[i].value);
    json += (i == 0 ? "\"" : ", \"") + output[i].name + "\": {\"value\": " +
            number + ", \"unit\": \"" + output[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, options, error)) {
    std::fprintf(stderr, "pvfs_perfbench: %s\n", error.c_str());
    return 2;
  }
  return perfbench::Run(options);
}
