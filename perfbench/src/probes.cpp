#include "probes.hpp"

#include <cstring>
#include <map>

#include "common/wire.hpp"
#include "pvfs/client.hpp"
#include "pvfs/distribution.hpp"
#include "pvfs/protocol.hpp"
#include "pvfs/store.hpp"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Median of `pass()` (a per-unit time) over at least `min_passes` passes,
/// continuing while the passes so far took less than `budget_s`.
template <typename Pass>
double MedianOfPasses(Pass&& pass, int min_passes, double budget_s) {
  std::vector<double> values;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(values.size()) < min_passes ||
         (SecondsBetween(t0, Clock::now()) < budget_s &&
          values.size() < 1000)) {
    values.push_back(pass());
  }
  return Median(values);
}

/// Keeps a computed value observable so the timed work is not elided.
volatile std::uint64_t g_sink = 0;

}  // namespace

double ProbeMemcpyUsPerMib() {
  constexpr std::size_t kBytes = 8u << 20;
  std::vector<std::byte> src(kBytes, std::byte{0x3C});
  std::vector<std::byte> dst(kBytes, std::byte{0});
  return MedianOfPasses(
      [&] {
        const Clock::time_point t0 = Clock::now();
        std::memcpy(dst.data(), src.data(), kBytes);
        const double us = UsBetween(t0, Clock::now());
        g_sink = g_sink + static_cast<std::uint64_t>(dst[kBytes / 2]);
        return us / (kBytes / kMiB);
      },
      9, 0.05);
}

double ProbeCrc32cUsPerMib() {
  constexpr std::size_t kBytes = 1u << 20;
  std::vector<std::byte> data(kBytes);
  FillStream(data, 0xC4C, 0);
  return MedianOfPasses(
      [&] {
        const Clock::time_point t0 = Clock::now();
        g_sink = g_sink + pvfs::Crc32c(data);
        return UsBetween(t0, Clock::now()) / (kBytes / kMiB);
      },
      9, 0.05);
}

pvfs::Result<double> ProbeNullRttUs(pvfs::Transport& transport,
                                    pvfs::FileHandle handle) {
  const std::vector<std::byte> request = pvfs::StatRequest{handle}.Encode();
  std::vector<double> samples;
  for (int i = 0; i < 220; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto raw = transport.Call(pvfs::Endpoint::ManagerNode(),
                              pvfs::SealFrame(request));
    const double us = UsBetween(t0, Clock::now());
    if (!raw.ok()) return raw.status();
    auto payload = pvfs::OpenFrame(*raw);
    if (!payload.ok()) return payload.status();
    auto response = pvfs::DecodeResponse(*payload);
    if (!response.ok()) return response.status();
    if (!response->status.ok()) return response->status;
    if (i >= 20) samples.push_back(us);  // the first calls warm up
  }
  return Median(samples);
}

double ProbePlanUsPerOp(const std::vector<pvfs::io::AccessPattern>& patterns) {
  const pvfs::Distribution dist(kStriping);
  return MedianOfPasses(
      [&] {
        const Clock::time_point t0 = Clock::now();
        std::uint64_t sink = 0;
        for (const pvfs::io::AccessPattern& pattern : patterns) {
          auto segments = pattern.Segments();
          if (segments.ok()) sink += segments->size();
          sink +=
              pvfs::ChunkRegions(pattern.file, pvfs::kMaxListRegions).size();
          sink += dist.Fragments(pattern.file).size();
        }
        g_sink = g_sink + sink;
        return UsBetween(t0, Clock::now()) /
               static_cast<double>(patterns.size());
      },
      3, 0.2);
}

namespace {

struct DecodedExchange {
  const CapturedExchange* captured = nullptr;
  std::vector<std::byte> request_payload;   // opened request frame
  std::vector<std::byte> response_payload;  // opened response frame
  pvfs::IoRequest request;
};

pvfs::Result<DecodedExchange> Decode(const CapturedExchange& captured) {
  DecodedExchange out;
  out.captured = &captured;
  auto request = pvfs::OpenFrame(captured.request);
  if (!request.ok()) return request.status();
  out.request_payload.assign(request->begin(), request->end());
  auto response = pvfs::OpenFrame(captured.response);
  if (!response.ok()) return response.status();
  out.response_payload.assign(response->begin(), response->end());
  pvfs::WireReader reader(out.request_payload);
  (void)reader.U32();  // message type
  auto decoded = pvfs::IoRequest::Decode(reader);
  if (!decoded.ok()) return decoded.status();
  out.request = std::move(decoded).value();
  return out;
}

/// Median per-access and per-message time of replaying the exchanges of
/// one kind on standalone stores, one per iod. Every touched range is
/// written once untimed first, as the run's store held the data already.
void ReplayStore(const std::vector<DecodedExchange>& exchanges, bool write,
                 double& us_per_access, double& us_per_msg) {
  std::map<pvfs::ServerId, pvfs::LocalStore> stores;
  struct Replay {
    const DecodedExchange* exchange;
    std::vector<pvfs::Fragment> fragments;
  };
  std::vector<Replay> replays;
  for (const DecodedExchange& e : exchanges) {
    if (e.captured->write != write) continue;
    const pvfs::Distribution dist(e.request.layout());
    Replay replay{&e, dist.ServerFragments(e.request.server_index,
                                           e.request.regions)};
    if (replay.fragments.empty()) continue;
    pvfs::LocalStore& store = stores[e.request.server_index];
    for (const pvfs::Fragment& f : replay.fragments) {
      store.Write(e.request.handle, f.local_offset,
                  std::vector<std::byte>(f.length));
    }
    replays.push_back(std::move(replay));
  }
  if (replays.empty()) return;

  std::vector<double> per_access, per_msg;
  std::vector<std::byte> scratch;
  const Clock::time_point t0 = Clock::now();
  // Every replay at least once, then round after round for 0.1 s.
  for (std::size_t i = 0; per_msg.size() < replays.size() ||
                          SecondsBetween(t0, Clock::now()) < 0.1;
       i = (i + 1) % replays.size()) {
    const Replay& replay = replays[i];
    const pvfs::IoRequest& req = replay.exchange->request;
    pvfs::LocalStore& store = stores[req.server_index];
    double us = 0;
    if (write) {
      std::vector<pvfs::LocalStore::WritePiece> pieces;
      pvfs::ByteCount cursor = 0;
      for (const pvfs::Fragment& f : replay.fragments) {
        pieces.push_back({f.local_offset, std::span{req.payload}.subspan(
                                              cursor, f.length)});
        cursor += f.length;
      }
      const Clock::time_point s = Clock::now();
      store.WriteV(req.handle, pieces);
      us = UsBetween(s, Clock::now());
    } else {
      const Clock::time_point s = Clock::now();
      for (const pvfs::Fragment& f : replay.fragments) {
        scratch.resize(f.length);
        if (!store.Read(req.handle, f.local_offset, scratch).ok()) return;
      }
      us = UsBetween(s, Clock::now());
    }
    per_msg.push_back(us);
    per_access.push_back(us / static_cast<double>(replay.fragments.size()));
    if (per_msg.size() >= 4096) break;
  }
  us_per_access = Median(per_access);
  us_per_msg = Median(per_msg);
}

}  // namespace

pvfs::Status ProbeCapturedLayers(const std::vector<CapturedExchange>& exchanges,
                                 ProbeResults& out) {
  std::vector<DecodedExchange> decoded;
  for (const CapturedExchange& captured : exchanges) {
    auto d = Decode(captured);
    if (!d.ok()) return d.status();
    decoded.push_back(std::move(d).value());
  }
  if (decoded.empty()) {
    return pvfs::FailedPrecondition("no iod exchange was captured");
  }
  const double n = static_cast<double>(decoded.size());

  out.encode_us_per_msg = MedianOfPasses(
      [&] {
        std::uint64_t sink = 0;
        const Clock::time_point t0 = Clock::now();
        for (const DecodedExchange& e : decoded) {
          sink += e.request.Encode().size();
        }
        const double us = UsBetween(t0, Clock::now());
        g_sink = g_sink + sink;
        return us / n;
      },
      5, 0.05);
  out.decode_us_per_msg = MedianOfPasses(
      [&] {
        std::uint64_t sink = 0;
        const Clock::time_point t0 = Clock::now();
        for (const DecodedExchange& e : decoded) {
          pvfs::WireReader reader(e.request_payload);
          (void)reader.U32();
          auto req = pvfs::IoRequest::Decode(reader);
          if (req.ok()) sink += req->regions.size();
        }
        const double us = UsBetween(t0, Clock::now());
        g_sink = g_sink + sink;
        return us / n;
      },
      5, 0.05);

  // Both directions: the request and the response frame of each exchange.
  std::vector<std::vector<std::byte>> copies;
  out.seal_us_per_msg = MedianOfPasses(
      [&] {
        copies.clear();
        for (const DecodedExchange& e : decoded) {
          copies.push_back(e.request_payload);
          copies.push_back(e.response_payload);
        }
        std::uint64_t sink = 0;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < copies.size(); ++i) {
          sink += pvfs::SealFrameWithId(std::move(copies[i]), i + 1).size();
        }
        const double us = UsBetween(t0, Clock::now());
        g_sink = g_sink + sink;
        return us / (2 * n);
      },
      5, 0.05);
  out.open_us_per_msg = MedianOfPasses(
      [&] {
        std::uint64_t sink = 0;
        const Clock::time_point t0 = Clock::now();
        for (const DecodedExchange& e : decoded) {
          auto req = pvfs::OpenFrameWithId(e.captured->request);
          auto resp = pvfs::OpenFrameWithId(e.captured->response);
          if (req.ok()) sink += req->request_id;
          if (resp.ok()) sink += resp->request_id;
        }
        const double us = UsBetween(t0, Clock::now());
        g_sink = g_sink + sink;
        return us / (2 * n);
      },
      5, 0.05);

  ReplayStore(decoded, /*write=*/false, out.store_read_us_per_access,
              out.store_read_us_per_msg);
  ReplayStore(decoded, /*write=*/true, out.store_write_us_per_access,
              out.store_write_us_per_msg);
  return pvfs::Status::Ok();
}

}  // namespace perfbench
