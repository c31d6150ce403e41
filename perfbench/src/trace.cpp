#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

namespace perfbench {

pvfs::Status WriteChromeTrace(const std::string& path,
                              std::vector<SpanRecord> spans,
                              const std::string& workload, std::uint64_t seed,
                              const std::vector<LayerSelf>& layers,
                              double overhead_frac) {
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (!file) return pvfs::Unavailable("cannot open trace file " + path);
  FILE* f = file.get();

  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  const std::size_t dropped =
      spans.size() > kMaxExportedSpans ? spans.size() - kMaxExportedSpans : 0;
  spans.resize(spans.size() - dropped);

  std::fprintf(f, "{\"traceEvents\":[\n");
  std::set<std::uint32_t> threads;
  for (const SpanRecord& s : spans) threads.insert(s.thread);
  bool first = true;
  for (std::uint32_t t : threads) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"client %u\"}}",
                 first ? "" : ",\n", t, t);
    first = false;
  }
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"request_id\":%llu,\"server\":%d}}",
                 first ? "" : ",\n", s.name, s.depth == 0 ? "op" : "call",
                 s.thread, static_cast<double>(s.start_ns) / 1000.0,
                 static_cast<double>(s.dur_ns) / 1000.0,
                 static_cast<unsigned long long>(s.request_id), s.server);
    first = false;
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
  std::fprintf(f, "\"workload\":\"%s\",\"seed\":%llu,", workload.c_str(),
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "\"dropped_spans\":%zu,\"trace_overhead_frac\":%.6f,",
               dropped, overhead_frac);
  std::fprintf(f, "\"self_us_per_op\":{");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%.3f", i == 0 ? "" : ",",
                 layers[i].layer.c_str(), layers[i].us_per_op);
  }
  std::fprintf(f, "}}}\n");
  if (std::ferror(f) != 0) return pvfs::Unavailable("write failed: " + path);
  return pvfs::Status::Ok();
}

}  // namespace perfbench
