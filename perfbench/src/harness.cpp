#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "net/framing.hpp"

namespace perfbench {

namespace {
const Clock::time_point kEpoch = Clock::now();
}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::uint64_t Mix(std::uint64_t key, std::uint64_t index) {
  std::uint64_t z = key * 0x9E3779B97F4A7C15ull + index;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void FillStream(std::span<std::byte> out, std::uint64_t key,
                std::uint64_t pos) {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t word = Mix(key, (pos + done) / 8);
    const std::size_t within = (pos + done) % 8;
    const std::size_t n = std::min<std::size_t>(8 - within, out.size() - done);
    std::memcpy(out.data() + done,
                reinterpret_cast<const std::byte*>(&word) + within, n);
    done += n;
  }
}

void FillPattern(std::span<std::byte> buffer,
                 const pvfs::io::AccessPattern& pattern, std::uint64_t key) {
  ForEachRun(pattern, [&](pvfs::ByteCount mem, pvfs::ByteCount file,
                          pvfs::ByteCount len) {
    FillStream(buffer.subspan(mem, len), key, file);
  });
}

bool Oracle::Equal(std::span<const std::byte> actual,
                   std::span<const std::byte> expected) {
  if (actual.size() != expected.size()) return false;
  if (!expected.empty() && corrupt_next_.exchange(false)) {
    std::vector<std::byte> wrong(expected.begin(), expected.end());
    wrong[0] ^= std::byte{0x01};
    return std::memcmp(actual.data(), wrong.data(), wrong.size()) == 0;
  }
  return std::memcmp(actual.data(), expected.data(), expected.size()) == 0;
}

bool Oracle::MatchesStream(std::span<const std::byte> buffer,
                           const pvfs::io::AccessPattern& pattern,
                           std::uint64_t key) {
  bool ok = true;
  std::vector<std::byte> expected;
  ForEachRun(pattern, [&](pvfs::ByteCount mem, pvfs::ByteCount file,
                          pvfs::ByteCount len) {
    if (!ok) return;
    expected.resize(len);
    FillStream(expected, key, file);
    ok = Equal(buffer.subspan(mem, len), expected);
  });
  return ok;
}

void Capture::Offer(std::span<const std::byte> request,
                    std::span<const std::byte> response, bool write) {
  std::lock_guard lock(mu_);
  std::atomic<std::size_t>& kept = write ? writes_ : reads_;
  if (kept.load() >= per_kind_) return;
  kept.fetch_add(1);
  kept_.push_back({std::vector<std::byte>(request.begin(), request.end()),
                   std::vector<std::byte>(response.begin(), response.end()),
                   write});
}

std::vector<CapturedExchange> Capture::Take() {
  std::lock_guard lock(mu_);
  return std::move(kept_);
}

void CallStats::Merge(const CallStats& other) {
  iod_calls += other.iod_calls;
  manager_calls += other.manager_calls;
  request_bytes += other.request_bytes;
  response_bytes += other.response_bytes;
  iod_call_us.insert(iod_call_us.end(), other.iod_call_us.begin(),
                     other.iod_call_us.end());
  manager_call_us.insert(manager_call_us.end(),
                         other.manager_call_us.begin(),
                         other.manager_call_us.end());
}

pvfs::Result<std::vector<std::byte>> MeteredTransport::Call(
    const pvfs::Endpoint& dest, std::span<const std::byte> request) {
  const std::int64_t start_ns = spans_ != nullptr ? NowNs() : 0;
  const Clock::time_point t0 = Clock::now();
  auto response = inner_->Call(dest, request);
  const double us = UsBetween(t0, Clock::now());
  call_us_ += us;
  if (dest.is_manager) {
    ++stats_.manager_calls;
    stats_.manager_call_us.push_back(us);
  } else {
    ++stats_.iod_calls;
    stats_.iod_call_us.push_back(us);
    stats_.request_bytes += request.size();
    if (response.ok()) stats_.response_bytes += response->size();
    if (capture_ != nullptr && response.ok() &&
        capture_->Wants(capture_write_)) {
      capture_->Offer(request, *response, capture_write_);
    }
  }
  if (spans_ != nullptr) {
    spans_->push_back({dest.is_manager ? "manager.call" : "iod.call",
                       pvfs::net::PeekTrailerId(request), start_ns,
                       static_cast<std::int64_t>(us * 1000.0), thread_,
                       dest.is_manager ? -1
                                       : static_cast<std::int32_t>(dest.server),
                       1});
  }
  return response;
}

pvfs::Result<std::unique_ptr<Deployment>> StartDeployment(
    std::uint32_t threads) {
  auto deployment = std::make_unique<Deployment>();
  deployment->registry = std::make_unique<pvfs::obs::Registry>();
  auto cluster = pvfs::net::SocketCluster::Start(
      kIods, pvfs::ServerConfig{}, 0, deployment->registry.get());
  if (!cluster.ok()) return cluster.status();
  deployment->cluster = std::move(cluster).value();
  for (std::uint32_t t = 0; t < threads; ++t) {
    ClientSlot slot;
    slot.transport =
        std::make_unique<MeteredTransport>(deployment->cluster->Connect(), t);
    slot.client = std::make_unique<pvfs::Client>(slot.transport.get(),
                                                 pvfs::Client::Options{});
    deployment->clients.push_back(std::move(slot));
  }
  return deployment;
}

ServerSnapshot TakeSnapshot(Deployment& deployment) {
  ServerSnapshot snap;
  pvfs::obs::Registry& reg = *deployment.registry;
  for (std::uint32_t s = 0; s < kIods; ++s) {
    const pvfs::obs::Labels labels{{"server", std::to_string(s)}};
    pvfs::obs::Histogram& wait = reg.Histogram("iod.admission.queue_wait_us",
                                               labels);
    pvfs::obs::Histogram& service = reg.Histogram(
        "iod.admission.service_us", labels);
    ServerSnapshot::Iod iod;
    iod.wait_counts = wait.counts();
    iod.service_counts = service.counts();
    iod.wait_sum = wait.sum();
    iod.service_sum = service.sum();
    iod.rejected = reg.Counter("iod.admission.rejected", labels).value();
    const auto& stats = deployment.cluster->iod(s).stats();
    iod.requests = stats.requests.load();
    iod.store_ops = stats.store_ops.load();
    iod.local_accesses = stats.local_accesses.load();
    const auto integrity = deployment.cluster->iod(s).store().integrity();
    snap.corruptions +=
        integrity.read_corruptions + integrity.scrub_corruptions;
    snap.bounds = service.bounds();
    snap.iods.push_back(std::move(iod));
  }
  return snap;
}

double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = seen + static_cast<double>(counts[i]);
    if (next >= target) {
      const double lo = i == 0 ? 0.0 : bounds[std::min(i, bounds.size()) - 1];
      const double hi = i < bounds.size() ? bounds[i] : lo;
      const double frac = (target - seen) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    seen = next;
  }
  return bounds.back();
}

std::uint32_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::uint32_t>(n);
  }
  return 1;
}

double PeakRssMib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
