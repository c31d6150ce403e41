// AsyncStore: a nonblocking submission/completion interface over a
// LocalStore, modeled on the aio-method bstream of OrangeFS trove-dbpf
// (dbpf-bstream-aio.c): callers enqueue reads and writes tagged with a
// token, a small pool of store-worker threads executes them against the
// (thread-safe) LocalStore, and finished operations surface on the
// caller's CompletionQueue, drained with Wait()/Poll(). Every write
// still rides the journaled, checksummed LocalStore path — this layer
// adds only scheduling, never a second data path.
//
// Completions route to the CompletionQueue named at submission, so any
// number of independent pipelines (one flow per in-flight request; see
// src/pvfs/flow) can share one daemon's store-worker pool without seeing
// each other's completions.
//
// Modeled device time: real iods paid a seek plus a transfer time per
// contiguous disk access; our in-memory store pays neither. The optional
// `seek_us`/`us_per_mib` knobs restore that cost (one sleep per
// operation, outside the store mutex) so pipelining experiments measure
// genuine overlap: with N workers, N device intervals proceed
// concurrently — the flow pipeline's win — while the synchronous serve
// path pays them strictly in series (IoDaemon applies the same knobs
// there, through the same ModelDeviceTime).
//
// Lifetime contract: the buffers behind a submitted operation (the read
// target span, the write pieces' data spans) and its CompletionQueue
// must stay alive until that operation's completion has been returned by
// Wait()/Poll(). The destructor executes every pending operation before
// returning, so completions are never lost.
//
// Thread safety: fully thread-safe; any number of threads may submit and
// (separately or together) drain their own queues.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "pvfs/store.hpp"

namespace pvfs {

/// Sleep the modeled device interval of `accesses` contiguous store
/// accesses moving `bytes` in total: `seek_us` per access plus
/// `us_per_mib` per MiB moved. A no-op when both are zero. Each AsyncStore
/// operation charges one access; the synchronous serve path charges all of
/// a request's runs in one sleep.
void ModelDeviceTime(std::uint64_t seek_us, std::uint64_t us_per_mib,
                     std::uint64_t accesses, ByteCount bytes);

class AsyncStore {
 public:
  struct Options {
    /// Store-worker threads draining the submission queue. More workers =
    /// more device intervals in flight at once (an NCQ depth, loosely).
    std::uint32_t workers = 2;
    /// Modeled per-operation positioning latency, microseconds.
    std::uint64_t seek_us = 0;
    /// Modeled transfer time, microseconds per MiB moved.
    std::uint64_t us_per_mib = 0;
  };

  /// Caller-chosen operation tag, returned with the completion.
  using Token = std::uint64_t;

  struct Completion {
    Token token = 0;
    Status status = Status::Ok();
    ByteCount bytes = 0;  // bytes moved by the operation
  };

  /// One caller's completion mailbox. Submissions name the queue their
  /// completion lands on; pipelines sharing an AsyncStore each bring
  /// their own.
  class CompletionQueue {
   public:
    /// Block until a completion is available and return it.
    Completion Wait();
    /// Return a completion if one is ready, without blocking.
    std::optional<Completion> Poll();
    /// Operations submitted against this queue whose completions have not
    /// been consumed yet.
    std::size_t outstanding() const;

   private:
    friend class AsyncStore;
    void Push(Completion done);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Completion> done_;
    std::size_t outstanding_ = 0;
  };

  AsyncStore(LocalStore& store, Options options);
  /// Drains: blocks until every submitted operation has executed.
  ~AsyncStore();

  AsyncStore(const AsyncStore&) = delete;
  AsyncStore& operator=(const AsyncStore&) = delete;

  /// Enqueue a read of `out.size()` bytes at `offset` into `out`.
  void SubmitRead(CompletionQueue& cq, Token token, FileHandle handle,
                  FileOffset offset, std::span<std::byte> out);

  /// Enqueue a journaled multi-piece write (one intent per submission,
  /// exactly as the synchronous WriteV journals one intent per call).
  void SubmitWrite(CompletionQueue& cq, Token token, FileHandle handle,
                   std::vector<LocalStore::WritePiece> pieces);

  const Options& options() const { return options_; }

 private:
  struct Op {
    CompletionQueue* cq = nullptr;
    Token token = 0;
    FileHandle handle = 0;
    FileOffset offset = 0;           // reads
    std::span<std::byte> out;        // reads
    std::vector<LocalStore::WritePiece> pieces;  // writes
    bool is_write = false;
  };

  void WorkerLoop();

  LocalStore& store_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable submit_cv_;  // workers wait for work / stop
  std::deque<Op> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace pvfs
