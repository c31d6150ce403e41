#include "workloads.hpp"

#include <algorithm>
#include <barrier>
#include <cstring>
#include <thread>

#include "common/rng.hpp"
#include "io/method.hpp"
#include "workloads/flash.hpp"
#include "workloads/tiledviz.hpp"

namespace perfbench {

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  read_us.insert(read_us.end(), other.read_us.begin(), other.read_us.end());
  write_us.insert(write_us.end(), other.write_us.begin(),
                  other.write_us.end());
  read_bytes += other.read_bytes;
  write_bytes += other.write_bytes;
  read_msgs += other.read_msgs;
  write_msgs += other.write_msgs;
  client_self_us += other.client_self_us;
}

namespace {

constexpr double kMB = 1e6;

/// One load thread's view of its client: runs API calls as timed ops.
class LoadThread {
 public:
  LoadThread(ClientSlot& slot, Capture* capture,
             std::vector<SpanRecord>* spans, std::uint32_t index)
      : slot_(slot), capture_(capture), spans_(spans), index_(index) {}

  pvfs::Client& client() { return *slot_.client; }
  Tally& tally() { return tally_; }
  std::uint32_t index() const { return index_; }

  /// Runs `call` (returning a Status) as one API op of kind `write`:
  /// times it, counts it, attributes its messages and records its span.
  template <typename Call>
  pvfs::Status Op(const char* name, bool write, Call&& call) {
    const std::uint64_t msgs0 = slot_.client->stats().messages;
    slot_.transport->set_capture(capture_, write);
    slot_.transport->TakeCallUs();
    const std::int64_t start_ns = spans_ != nullptr ? NowNs() : 0;
    const Clock::time_point t0 = Clock::now();
    const pvfs::Status status = call();
    const double us = UsBetween(t0, Clock::now());
    tally_.client_self_us += us - slot_.transport->TakeCallUs();
    slot_.transport->set_capture(nullptr, false);
    const std::uint64_t msgs = slot_.client->stats().messages - msgs0;
    (write ? tally_.write_us : tally_.read_us).push_back(us);
    (write ? tally_.write_msgs : tally_.read_msgs) += msgs;
    ++tally_.attempted;
    if (!status.ok()) ++tally_.failed;
    if (spans_ != nullptr) {
      spans_->push_back({name, 0, start_ns,
                         static_cast<std::int64_t>(us * 1000.0), index_, -1,
                         0});
    }
    return status;
  }

 private:
  ClientSlot& slot_;
  Capture* capture_;
  std::vector<SpanRecord>* spans_;
  std::uint32_t index_;
  Tally tally_;
};

pvfs::ClientStats SumClientStats(Deployment& deployment) {
  pvfs::ClientStats sum;
  for (ClientSlot& slot : deployment.clients) {
    const pvfs::ClientStats s = slot.client->stats();
    sum.operations += s.operations;
    sum.fs_requests += s.fs_requests;
    sum.messages += s.messages;
    sum.regions_sent += s.regions_sent;
    sum.bytes_read += s.bytes_read;
    sum.bytes_written += s.bytes_written;
    sum.manager_messages += s.manager_messages;
  }
  return sum;
}

std::uint64_t SumRetries(Deployment& deployment) {
  std::uint64_t sum = 0;
  for (ClientSlot& slot : deployment.clients) {
    sum += slot.client->retry_counters().retries;
  }
  return sum;
}

/// Runs `body(LoadThread&)` once on each of `threads` threads, one per
/// client slot, and gathers the phase's counters and deltas.
template <typename Body>
PhaseResult RunThreads(Deployment& deployment, std::uint32_t threads,
                       bool tracing, Capture* capture, Body&& body) {
  PhaseResult result;
  std::vector<std::vector<SpanRecord>> spans(threads);
  std::vector<std::unique_ptr<LoadThread>> loads;
  for (std::uint32_t t = 0; t < threads; ++t) {
    ClientSlot& slot = deployment.clients[t];
    slot.transport->stats() = CallStats{};
    slot.transport->set_spans(tracing ? &spans[t] : nullptr);
    loads.push_back(std::make_unique<LoadThread>(
        slot, capture, tracing ? &spans[t] : nullptr, t));
  }
  const pvfs::ClientStats client0 = SumClientStats(deployment);
  const std::uint64_t retries0 = SumRetries(deployment);
  result.before = TakeSnapshot(deployment);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&body, &loads, t] { body(*loads[t]); });
    }
  }
  result.wall_s = SecondsBetween(t0, Clock::now());
  result.after = TakeSnapshot(deployment);
  const pvfs::ClientStats client1 = SumClientStats(deployment);
  result.client.operations = client1.operations - client0.operations;
  result.client.fs_requests = client1.fs_requests - client0.fs_requests;
  result.client.messages = client1.messages - client0.messages;
  result.client.regions_sent = client1.regions_sent - client0.regions_sent;
  result.client.bytes_read = client1.bytes_read - client0.bytes_read;
  result.client.bytes_written = client1.bytes_written - client0.bytes_written;
  result.client.manager_messages =
      client1.manager_messages - client0.manager_messages;
  result.retries = SumRetries(deployment) - retries0;
  for (std::uint32_t t = 0; t < threads; ++t) {
    ClientSlot& slot = deployment.clients[t];
    slot.transport->set_spans(nullptr);
    result.calls.Merge(slot.transport->stats());
    result.tally.Merge(loads[t]->tally());
    result.spans.insert(result.spans.end(), spans[t].begin(), spans[t].end());
  }
  return result;
}

/// Rates of the timed sections between barrier marks: section k runs from
/// marks[stride*c + 2k] to marks[stride*c + 2k + 1] in cycle c.
std::vector<double> SectionRates(const std::vector<Clock::time_point>& marks,
                                 std::size_t stride, std::size_t section,
                                 double bytes) {
  std::vector<double> rates;
  for (std::size_t base = 0; base + stride <= marks.size(); base += stride) {
    const double s = SecondsBetween(marks[base + 2 * section],
                                    marks[base + 2 * section + 1]);
    rates.push_back(bytes / s / kMB);
  }
  return rates;
}

/// Creates `name` on client 0 and opens it on every other client.
pvfs::Result<std::vector<pvfs::Client::Fd>> CreateShared(
    Deployment& deployment, const std::string& name) {
  std::vector<pvfs::Client::Fd> fds;
  auto created = deployment.clients[0].client->Create(
      name, pvfs::CreateOptions(kStriping));
  if (!created.ok()) return created.status();
  fds.push_back(*created);
  for (std::size_t t = 1; t < deployment.clients.size(); ++t) {
    auto opened = deployment.clients[t].client->Open(name);
    if (!opened.ok()) return opened.status();
    fds.push_back(*opened);
  }
  return fds;
}

void Poison(std::span<std::byte> buffer,
            const pvfs::io::AccessPattern& pattern) {
  ForEachRun(pattern, [&](pvfs::ByteCount mem, pvfs::ByteCount,
                          pvfs::ByteCount len) {
    std::memset(buffer.data() + mem, 0xA5, len);
  });
}

/// Set-up data: client t writes stream `key` over its `ranges[t]` in
/// contiguous calls of at most `call_bytes`, all clients in parallel.
pvfs::Status FillFile(Deployment& deployment,
                      const std::vector<pvfs::Client::Fd>& fds,
                      const std::vector<pvfs::ExtentList>& ranges,
                      std::uint64_t key, pvfs::ByteCount call_bytes,
                      const char* op_name, Capture* capture,
                      SetupResult& out) {
  std::vector<pvfs::Status> status(ranges.size(), pvfs::Status::Ok());
  std::vector<std::unique_ptr<LoadThread>> loads;
  pvfs::ByteCount total = 0;
  for (std::uint32_t t = 0; t < ranges.size(); ++t) {
    loads.push_back(std::make_unique<LoadThread>(deployment.clients[t],
                                                 capture, nullptr, t));
    total += pvfs::TotalBytes(ranges[t]);
  }
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::uint32_t t = 0; t < ranges.size(); ++t) {
      workers.emplace_back([&, t] {
        LoadThread& load = *loads[t];
        std::vector<std::byte> chunk(call_bytes);
        for (const pvfs::Extent& range : ranges[t]) {
          for (pvfs::FileOffset off = range.offset; off < range.end();
               off += call_bytes) {
            const std::span<std::byte> data =
                std::span{chunk}.first(std::min(call_bytes, range.end() - off));
            FillStream(data, key, off);
            status[t] = load.Op(op_name, true, [&] {
              return load.client().Write(fds[t], off, data);
            });
            if (!status[t].ok()) return;
            load.tally().write_bytes += data.size();
          }
        }
      });
    }
  }
  out.write_MBps =
      static_cast<double>(total) / SecondsBetween(t0, Clock::now()) / kMB;
  for (std::uint32_t t = 0; t < ranges.size(); ++t) {
    if (!status[t].ok()) return status[t];
    out.tally.Merge(loads[t]->tally());
  }
  return pvfs::Status::Ok();
}

// ---- flash-ckpt -------------------------------------------------------

/// Paper §4.3: every proc checkpoints its AMR blocks into one shared file
/// through list I/O, then all read the checkpoint back and verify it.
class FlashCkpt final : public Workload {
 public:
  FlashCkpt(const Options& options, Oracle& oracle)
      : oracle_(oracle), seed_(options.seed) {
    config_.nprocs = 4;
    config_.blocks_per_proc = options.tiny ? 4 : 80;
    threads_ = std::min(config_.nprocs, UsableCpus());
    for (std::uint32_t p = 0; p < config_.nprocs; ++p) {
      patterns_.push_back(pvfs::workloads::FlashCheckpointPattern(config_, p));
      buffers_.emplace_back(config_.MemBytesPerProc());
    }
  }

  std::uint32_t threads() const override { return threads_; }
  std::vector<pvfs::io::AccessPattern> PlanningPatterns() const override {
    return patterns_;
  }
  pvfs::Client::Fd probe_fd() const override { return fds_[0]; }

  /// Creates the checkpoint file and writes it whole (an earlier
  /// checkpoint), each thread a contiguous share in 1 MiB calls.
  pvfs::Status Setup(Deployment& deployment, Capture* capture,
                     SetupResult& out) override {
    auto fds = CreateShared(deployment, "/flash/checkpoint");
    if (!fds.ok()) return fds.status();
    fds_ = *fds;
    const pvfs::ByteCount total = config_.FileBytes();
    std::vector<pvfs::ExtentList> ranges(threads_);
    for (std::uint32_t t = 0; t < threads_; ++t) {
      const pvfs::ByteCount begin = total * t / threads_;
      ranges[t].push_back({begin, total * (t + 1) / threads_ - begin});
    }
    return FillFile(deployment, fds_, ranges, Mix(seed_, 0xC0), 1 << 20,
                    "flash.setup_write", capture, out);
  }

  PhaseResult Run(Deployment& deployment, double seconds, bool tracing,
                  Capture* capture) override {
    // Barrier marks per cycle: write start, write end, read start, read
    // end. The last mark of a cycle decides whether another follows.
    std::vector<Clock::time_point> marks;
    marks.reserve(1 << 16);
    bool stop = false;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    auto on_mark = [&]() noexcept {
      marks.push_back(Clock::now());
      if (marks.size() % 4 == 0) stop = marks.back() >= deadline;
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(threads_), on_mark);
    const std::uint64_t first_cycle = cycle_;

    PhaseResult result = RunThreads(
        deployment, threads_, tracing, capture, [&](LoadThread& load) {
          auto method = pvfs::io::MakeMethod(pvfs::io::MethodType::kList);
          std::vector<std::uint32_t> procs;
          for (std::uint32_t p = load.index(); p < config_.nprocs;
               p += threads_) {
            procs.push_back(p);
          }
          const pvfs::Client::Fd fd = fds_[load.index()];
          for (std::uint64_t cycle = first_cycle;; ++cycle) {
            const std::uint64_t key = Mix(seed_, cycle);
            for (std::uint32_t p : procs) {
              FillPattern(buffers_[p], patterns_[p], key);
            }
            sync.arrive_and_wait();
            for (std::uint32_t p : procs) {
              const pvfs::Status s = load.Op("flash.write", true, [&] {
                return method->Write(load.client(), fd, patterns_[p],
                                     buffers_[p]);
              });
              if (s.ok()) {
                load.tally().write_bytes += patterns_[p].total_bytes();
              }
            }
            sync.arrive_and_wait();
            for (std::uint32_t p : procs) Poison(buffers_[p], patterns_[p]);
            sync.arrive_and_wait();
            std::vector<bool> ok;
            for (std::uint32_t p : procs) {
              ok.push_back(load.Op("flash.read", false, [&] {
                              return method->Read(load.client(), fd,
                                                  patterns_[p], buffers_[p]);
                            }).ok());
            }
            sync.arrive_and_wait();
            for (std::size_t i = 0; i < procs.size(); ++i) {
              if (!ok[i]) continue;
              const std::uint32_t p = procs[i];
              if (oracle_.MatchesStream(buffers_[p], patterns_[p], key)) {
                load.tally().read_bytes += patterns_[p].total_bytes();
              } else {
                ++load.tally().failed;
              }
            }
            if (stop) break;
          }
        });
    cycle_ = first_cycle + marks.size() / 4;
    const double bytes = static_cast<double>(config_.FileBytes());
    result.write_rates_MBps = SectionRates(marks, 4, 0, bytes);
    result.read_rates_MBps = SectionRates(marks, 4, 1, bytes);
    return result;
  }

 private:
  Oracle& oracle_;
  std::uint64_t seed_;
  pvfs::workloads::FlashConfig config_;
  std::uint32_t threads_ = 1;
  std::vector<pvfs::io::AccessPattern> patterns_;
  std::vector<std::vector<std::byte>> buffers_;  // one per proc
  std::vector<pvfs::Client::Fd> fds_;            // one per thread
  std::uint64_t cycle_ = 0;  // data generation; never repeats in a run
};

// ---- tiled-viz ----------------------------------------------------------

/// Paper §4.4: the 3x2 display wall. Each frame, every tile reader pulls
/// its 768 rows of the frame file into a contiguous buffer.
class TiledViz final : public Workload {
 public:
  TiledViz(const Options& options, Oracle& oracle)
      : oracle_(oracle), frame_key_(Mix(options.seed, 0xF4A3E)) {
    if (options.tiny) {
      config_.tile_w = 64;
      config_.tile_h = 48;
      config_.overlap_x = 16;
      config_.overlap_y = 8;
    }
    threads_ = std::min(config_.clients(), UsableCpus());
    for (std::uint32_t r = 0; r < config_.clients(); ++r) {
      patterns_.push_back(pvfs::workloads::TiledVizPattern(config_, r));
      tiles_.emplace_back(config_.TileBytes());
    }
  }

  std::uint32_t threads() const override { return threads_; }
  std::vector<pvfs::io::AccessPattern> PlanningPatterns() const override {
    return patterns_;
  }
  pvfs::Client::Fd probe_fd() const override { return fds_[0]; }

  /// Writes the frame file from client 0, one 16 KiB stripe unit per call
  /// (enough calls over the set-ups for a write p99).
  pvfs::Status Setup(Deployment& deployment, Capture* capture,
                     SetupResult& out) override {
    auto fds = CreateShared(deployment, "/viz/frame");
    if (!fds.ok()) return fds.status();
    fds_ = *fds;
    return FillFile(deployment, fds_, {{{0, config_.FileBytes()}}},
                    frame_key_, kStriping.ssize, "viz.write_frame", capture,
                    out);
  }

  PhaseResult Run(Deployment& deployment, double seconds, bool tracing,
                  Capture* capture) override {
    // Barrier marks per frame: read start, read end (which decides
    // whether another frame follows).
    std::vector<Clock::time_point> marks;
    marks.reserve(1 << 16);
    bool stop = false;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    auto on_mark = [&]() noexcept {
      marks.push_back(Clock::now());
      if (marks.size() % 2 == 0) stop = marks.back() >= deadline;
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(threads_), on_mark);

    PhaseResult result = RunThreads(
        deployment, threads_, tracing, capture, [&](LoadThread& load) {
          auto method = pvfs::io::MakeMethod(pvfs::io::MethodType::kList);
          std::vector<std::uint32_t> readers;
          for (std::uint32_t r = load.index(); r < config_.clients();
               r += threads_) {
            readers.push_back(r);
          }
          const pvfs::Client::Fd fd = fds_[load.index()];
          for (;;) {
            for (std::uint32_t r : readers) Poison(tiles_[r], patterns_[r]);
            sync.arrive_and_wait();
            std::vector<bool> ok;
            for (std::uint32_t r : readers) {
              ok.push_back(load.Op("viz.read_tile", false, [&] {
                              return method->Read(load.client(), fd,
                                                  patterns_[r], tiles_[r]);
                            }).ok());
            }
            sync.arrive_and_wait();
            for (std::size_t i = 0; i < readers.size(); ++i) {
              if (!ok[i]) continue;
              const std::uint32_t r = readers[i];
              if (oracle_.MatchesStream(tiles_[r], patterns_[r], frame_key_)) {
                load.tally().read_bytes += patterns_[r].total_bytes();
              } else {
                ++load.tally().failed;
              }
            }
            if (stop) break;
          }
        });
    const double bytes =
        static_cast<double>(config_.TileBytes()) * config_.clients();
    result.read_rates_MBps = SectionRates(marks, 2, 0, bytes);
    return result;
  }

 private:
  Oracle& oracle_;
  std::uint64_t frame_key_;
  pvfs::workloads::TiledVizConfig config_;
  std::uint32_t threads_ = 1;
  std::vector<pvfs::io::AccessPattern> patterns_;
  std::vector<std::vector<std::byte>> tiles_;  // one frame buffer per tile
  std::vector<pvfs::Client::Fd> fds_;          // one per thread
};

// ---- small-io -----------------------------------------------------------

/// Per-request overhead: 4 clients issue 1 KiB reads and writes at 3:1,
/// uniform over each client's own slice, every read checked against the
/// client's shadow copy.
class SmallIo final : public Workload {
 public:
  static constexpr std::uint32_t kClients = 4;
  static constexpr pvfs::ByteCount kOpBytes = 1024;

  SmallIo(const Options& options, Oracle& oracle)
      : oracle_(oracle),
        seed_(options.seed),
        slice_bytes_(options.tiny ? 256 * 1024 : 16 * 1024 * 1024) {
    threads_ = std::min(kClients, UsableCpus());
    for (std::uint32_t c = 0; c < kClients; ++c) {
      clients_.push_back(
          {std::vector<std::byte>(slice_bytes_), c * slice_bytes_,
           pvfs::SplitMix64(Mix(seed_, 0x5E0 + c))});
    }
  }

  std::uint32_t threads() const override { return threads_; }
  pvfs::Client::Fd probe_fd() const override { return fds_[0]; }

  std::vector<pvfs::io::AccessPattern> PlanningPatterns() const override {
    pvfs::SplitMix64 rng(Mix(seed_, 0x91A));
    std::vector<pvfs::io::AccessPattern> patterns;
    const std::uint64_t slots = kClients * slice_bytes_ / kOpBytes;
    for (int i = 0; i < 256; ++i) {
      const pvfs::FileOffset off = rng.Uniform(0, slots - 1) * kOpBytes;
      patterns.push_back({{{0, kOpBytes}}, {{off, kOpBytes}}});
    }
    return patterns;
  }

  /// Every thread writes its clients' slices in 1 MiB calls.
  pvfs::Status Setup(Deployment& deployment, Capture* capture,
                     SetupResult& out) override {
    auto fds = CreateShared(deployment, "/small/data");
    if (!fds.ok()) return fds.status();
    fds_ = *fds;
    const std::uint64_t key = Mix(seed_, 0x5E7);
    std::vector<pvfs::ExtentList> ranges(threads_);
    for (std::uint32_t c = 0; c < kClients; ++c) {
      FillStream(clients_[c].shadow, key, clients_[c].base);
      ranges[c % threads_].push_back({clients_[c].base, slice_bytes_});
    }
    return FillFile(deployment, fds_, ranges, key, 1 << 20,
                    "small.setup_write", capture, out);
  }

  PhaseResult Run(Deployment& deployment, double seconds, bool tracing,
                  Capture* capture) override {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    return RunThreads(
        deployment, threads_, tracing, capture, [&](LoadThread& load) {
          const pvfs::Client::Fd fd = fds_[load.index()];
          std::vector<std::byte> buf(kOpBytes);
          do {
            for (std::uint32_t c = load.index(); c < kClients; c += threads_) {
              RunGroup(load, fd, clients_[c], buf);
            }
          } while (Clock::now() < deadline);
        });
  }

 private:
  struct SmallClient {
    std::vector<std::byte> shadow;  // expected content of the slice
    pvfs::FileOffset base = 0;      // slice start in the file
    pvfs::SplitMix64 rng;
  };

  /// Four ops, exactly three reads and one write in seeded order, so any
  /// whole number of groups has the same op mix and exact per-op counts.
  void RunGroup(LoadThread& load, pvfs::Client::Fd fd, SmallClient& client,
                std::vector<std::byte>& buf) {
    const std::uint64_t slots = slice_bytes_ / kOpBytes;
    const std::uint64_t write_at = client.rng.Next() % 4;
    for (std::uint64_t k = 0; k < 4; ++k) {
      const pvfs::ByteCount rel = client.rng.Uniform(0, slots - 1) * kOpBytes;
      const auto shadow = std::span{client.shadow}.subspan(rel, kOpBytes);
      if (k == write_at) {
        FillStream(buf, client.rng.Next(), 0);
        const pvfs::Status s = load.Op("small.write", true, [&] {
          return load.client().Write(fd, client.base + rel, buf);
        });
        if (s.ok()) {
          std::memcpy(shadow.data(), buf.data(), kOpBytes);
          load.tally().write_bytes += kOpBytes;
        }
      } else {
        const pvfs::Status s = load.Op("small.read", false, [&] {
          return load.client().Read(fd, client.base + rel, buf);
        });
        if (!s.ok()) continue;
        if (oracle_.Equal(buf, shadow)) {
          load.tally().read_bytes += kOpBytes;
        } else {
          ++load.tally().failed;
        }
      }
    }
  }

  Oracle& oracle_;
  std::uint64_t seed_;
  pvfs::ByteCount slice_bytes_;
  std::uint32_t threads_ = 1;
  std::vector<SmallClient> clients_;
  std::vector<pvfs::Client::Fd> fds_;  // one per thread
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Options& options,
                                       Oracle& oracle) {
  if (options.workload == "flash-ckpt") {
    return std::make_unique<FlashCkpt>(options, oracle);
  }
  if (options.workload == "tiled-viz") {
    return std::make_unique<TiledViz>(options, oracle);
  }
  if (options.workload == "small-io") {
    return std::make_unique<SmallIo>(options, oracle);
  }
  return nullptr;
}

}  // namespace perfbench
