#include "pvfs/store_async.hpp"

#include <algorithm>
#include <chrono>

namespace pvfs {

void ModelDeviceTime(std::uint64_t seek_us, std::uint64_t us_per_mib,
                     std::uint64_t accesses, ByteCount bytes) {
  const std::uint64_t us = seek_us * accesses + us_per_mib * bytes / kMiB;
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// ---- CompletionQueue -------------------------------------------------------

void AsyncStore::CompletionQueue::Push(Completion done) {
  // Notify while holding the lock: the moment a waiter consumes the final
  // completion the caller may destroy this queue (the lifetime contract),
  // so the condition variable must not be touched after mu_ is released.
  std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(std::move(done));
  cv_.notify_all();
}

AsyncStore::Completion AsyncStore::CompletionQueue::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !done_.empty(); });
  Completion done = std::move(done_.front());
  done_.pop_front();
  --outstanding_;
  return done;
}

std::optional<AsyncStore::Completion> AsyncStore::CompletionQueue::Poll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (done_.empty()) return std::nullopt;
  Completion done = std::move(done_.front());
  done_.pop_front();
  --outstanding_;
  return done;
}

std::size_t AsyncStore::CompletionQueue::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

// ---- AsyncStore ------------------------------------------------------------

AsyncStore::AsyncStore(LocalStore& store, Options options)
    : store_(store), options_(options) {
  const std::uint32_t workers = std::max<std::uint32_t>(1, options_.workers);
  workers_.reserve(workers);
  for (std::uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncStore::~AsyncStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  submit_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void AsyncStore::SubmitRead(CompletionQueue& cq, Token token,
                            FileHandle handle, FileOffset offset,
                            std::span<std::byte> out) {
  {
    std::lock_guard<std::mutex> cq_lock(cq.mu_);
    ++cq.outstanding_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Op op;
    op.cq = &cq;
    op.token = token;
    op.handle = handle;
    op.offset = offset;
    op.out = out;
    queue_.push_back(std::move(op));
  }
  submit_cv_.notify_one();
}

void AsyncStore::SubmitWrite(CompletionQueue& cq, Token token,
                             FileHandle handle,
                             std::vector<LocalStore::WritePiece> pieces) {
  {
    std::lock_guard<std::mutex> cq_lock(cq.mu_);
    ++cq.outstanding_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Op op;
    op.cq = &cq;
    op.token = token;
    op.handle = handle;
    op.pieces = std::move(pieces);
    op.is_write = true;
    queue_.push_back(std::move(op));
  }
  submit_cv_.notify_one();
}

void AsyncStore::WorkerLoop() {
  for (;;) {
    Op op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      submit_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      op = std::move(queue_.front());
      queue_.pop_front();
    }
    Completion done;
    done.token = op.token;
    if (op.is_write) {
      for (const LocalStore::WritePiece& p : op.pieces) {
        done.bytes += p.data.size();
      }
      // Device interval first (outside the store mutex, so intervals on
      // different workers overlap), then the journaled apply.
      ModelDeviceTime(options_.seek_us, options_.us_per_mib, 1, done.bytes);
      store_.WriteV(op.handle, op.pieces);
    } else {
      done.bytes = op.out.size();
      ModelDeviceTime(options_.seek_us, options_.us_per_mib, 1, done.bytes);
      done.status = store_.Read(op.handle, op.offset, op.out);
    }
    op.cq->Push(std::move(done));
  }
}

}  // namespace pvfs
