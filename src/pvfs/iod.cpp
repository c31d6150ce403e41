#include "pvfs/iod.hpp"

#include <cstring>
#include <string>

#include "common/request_id.hpp"
#include "obs/span.hpp"

namespace pvfs {

void IoDaemon::RecoverStore() {
  // Concurrent callers are safe: NeedsRecovery/Recover lock the store, and
  // a second Recover after the first finds nothing uncommitted (benign).
  if (!store_.NeedsRecovery()) return;
  LocalStore::RecoveryStats rec = store_.Recover();
  stats_.journal_replays += rec.replayed;
  stats_.journal_rollbacks += rec.rolled_back;
}

LocalStore::ScrubStats IoDaemon::Scrub() {
  RecoverStore();  // never scrub across pending intents
  LocalStore::ScrubStats scrub = store_.Scrub();
  stats_.scrub_chunks_scanned += scrub.chunks_scanned;
  stats_.scrub_corruptions += scrub.corrupt_chunks;
  stats_.scrub_repairs += scrub.repaired_chunks;
  return scrub;
}

Result<IoResponse> IoDaemon::Serve(const IoRequest& req) {
  PVFS_SPAN("iod.serve");
  // A restarted daemon recovers its store before serving anything, so the
  // first post-crash request sees replayed-or-rolled-back (consistent)
  // state, never a torn write.
  RecoverStore();
  ++stats_.requests;
  stats_.regions += req.regions.size();

  if (req.regions.size() > config_.max_list_regions) {
    return ResourceExhausted("trailing data exceeds region limit");
  }
  for (const Extent& e : req.regions) {
    if (e.offset + e.length < e.offset) {
      return InvalidArgument("region overflows 64-bit offset space");
    }
  }
  Distribution dist(req.layout());

  // Collect the fragments assigned to the file-relative server index this
  // request addresses, in logical order; their total is the payload size
  // (read) or expected payload size (write).
  const ServerId self = req.server_index;
  std::vector<Fragment> mine;
  ByteCount stream = 0;
  for (const Extent& e : req.regions) {
    dist.ForEachFragment(e, stream, [&](const Fragment& f) {
      if (f.server == self) mine.push_back(f);
    });
    stream += e.length;
  }
  ByteCount my_bytes = 0;
  for (const Fragment& f : mine) my_bytes += f.length;

  // Plan the coalesced local runs: the fragments sorted by local offset
  // and merged where they touch, one store access per run (the paper's
  // §5 "more intelligent scheduling of the data movement at the server").
  // Sorting first keeps cyclic patterns, whose logical walk revisits lower
  // local offsets, at one access per run.
  const RunPlan plan = BuildRunPlan(mine);
  stats_.local_accesses += plan.runs.size();

  // Transient disk error injection: fail before touching the store so the
  // stripe is never half-written by a request that reported failure.
  if (fault_ != nullptr &&
      fault_->OnDiskAccess(id_, req.op == IoOp::kWrite)) {
    ++stats_.injected_errors;
    return Unavailable(std::string("injected transient disk ") +
                       (req.op == IoOp::kWrite ? "write" : "read") +
                       " error on iod " + std::to_string(id_));
  }

  // A write's payload must hold exactly this server's bytes.
  if (req.op == IoOp::kWrite && req.payload.size() != my_bytes) {
    return InvalidArgument("write payload size mismatch: expected " +
                           std::to_string(my_bytes) + ", got " +
                           std::to_string(req.payload.size()));
  }

  // The runs are staged in scratch. Bytes move between scratch and the
  // wire payload fragment by fragment in logical order, so the payload
  // holds this server's bytes back to back in walk order, and overlapping
  // write fragments keep last-writer-wins.
  std::vector<std::byte> scratch(plan.total_bytes);
  auto for_each_slot = [&](auto copy) {
    ByteCount wire = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const ScheduledRun& run = plan.runs[plan.run_of[i]];
      copy(wire, run.buf_offset + (mine[i].local_offset - run.offset),
           mine[i].length);
      wire += mine[i].length;
    }
  };

  IoResponse resp;
  if (req.op == IoOp::kRead) {
    // Stored-data rot injection: flip one bit at rest before serving, so
    // the read path exercises checksum detection and journal repair.
    if (fault_ != nullptr) {
      fault::RotFault rot = fault_->OnStoredRead(id_);
      if (rot.rot) (void)store_.CorruptStoredBit(rot.selector);
    }
    for (const ScheduledRun& run : plan.runs) {
      Status read = store_.Read(
          req.handle, run.offset,
          std::span{scratch}.subspan(run.buf_offset, run.length));
      if (!read.ok()) {
        ++stats_.corruptions_detected;
        return read;
      }
    }
    stats_.store_ops += plan.runs.size();
    resp.payload.resize(my_bytes);
    for_each_slot([&](ByteCount wire, ByteCount staged, ByteCount length) {
      std::memcpy(resp.payload.data() + wire, scratch.data() + staged,
                  length);
    });
    resp.bytes = my_bytes;
    stats_.bytes_read += my_bytes;
    return resp;
  }

  // Write: gather the payload into the runs, one piece per run.
  for_each_slot([&](ByteCount wire, ByteCount staged, ByteCount length) {
    std::memcpy(scratch.data() + staged, req.payload.data() + wire, length);
  });
  std::vector<LocalStore::WritePiece> pieces;
  pieces.reserve(plan.runs.size());
  for (const ScheduledRun& run : plan.runs) {
    pieces.push_back(
        {run.offset, std::span{scratch}.subspan(run.buf_offset, run.length)});
  }
  // Torn-write injection: the daemon "crashes" partway through applying
  // this intent and refuses calls until its scheduled restart, when
  // Serve's recovery pass replays or rolls the intent back.
  if (fault_ != nullptr) {
    fault::TornWriteFault torn = fault_->OnStoredWrite(id_);
    if (torn.torn) {
      ++stats_.torn_writes;
      store_.WriteVTorn(req.handle, pieces,
                        plan.total_bytes * torn.keep_permille / 1000,
                        torn.torn_journal);
      return Unavailable("iod " + std::to_string(id_) +
                         " crashed mid-write (injected torn write)");
    }
  }
  // One journaled intent covers every run of this request.
  store_.WriteV(req.handle, pieces);
  stats_.store_ops += pieces.size();
  resp.bytes = my_bytes;
  stats_.bytes_written += my_bytes;
  return resp;
}

std::vector<std::byte> IoDaemon::HandleMessage(
    std::span<const std::byte> raw) {
  auto type = PeekType(raw);
  if (!type.ok()) return EncodeResponse(type.status(), {});

  WireReader r(raw);
  (void)r.U32();

  switch (type.value()) {
    case MsgType::kIo: {
      auto req = IoRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      auto resp = Serve(req.value());
      if (!resp.ok()) return EncodeResponse(resp.status(), {});
      return EncodeResponse(Status::Ok(), resp->Encode());
    }
    case MsgType::kRemoveData: {
      auto req = RemoveDataRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      RecoverStore();  // pending intents for the handle die with it
      store_.Remove(req->handle);
      return EncodeResponse(Status::Ok(), {});
    }
    case MsgType::kReplicaSums: {
      auto req = ReplicaSumsRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      RecoverStore();  // manifest must reflect replayed-or-rolled-back state
      ReplicaSumsResponse resp;
      resp.size = store_.SizeOf(req->handle);
      for (const LocalStore::ChunkSum& c : store_.ChunkSums(req->handle)) {
        resp.chunks.push_back({c.chunk_index, c.crc, c.valid});
      }
      stats_.repair_chunks_scanned += resp.chunks.size();
      return EncodeResponse(Status::Ok(), resp.Encode());
    }
    case MsgType::kRepair: {
      auto req = RepairRequest::Decode(r);
      if (!req.ok()) return EncodeResponse(req.status(), {});
      RecoverStore();
      if (req->op == RepairOp::kFetch) {
        if (req->length > LocalStore::kChunkBytes) {
          return EncodeResponse(
              InvalidArgument("repair fetch exceeds chunk size"), {});
        }
        RepairResponse resp;
        resp.payload.resize(req->length);
        Status read = store_.Read(req->handle, req->offset, resp.payload);
        if (!read.ok()) {
          ++stats_.corruptions_detected;
          return EncodeResponse(read, {});
        }
        return EncodeResponse(Status::Ok(), resp.Encode());
      }
      if (req->payload.size() > LocalStore::kChunkBytes) {
        return EncodeResponse(
            InvalidArgument("repair apply exceeds chunk size"), {});
      }
      store_.Write(req->handle, req->offset, req->payload);
      ++stats_.repair_chunks_copied;
      return EncodeResponse(Status::Ok(), {});
    }
    case MsgType::kStats: {
      StatsResponse resp{StatsJson().Dump()};
      return EncodeResponse(Status::Ok(), resp.Encode());
    }
    default:
      return EncodeResponse(
          InvalidArgument("message type not handled by iod"), {});
  }
}

std::vector<std::byte> IoDaemon::HandleSealedMessage(
    std::span<const std::byte> raw) {
  auto opened = OpenFrameWithId(raw);
  if (!opened.ok()) {
    ++stats_.corruptions_detected;
    return SealFrame(EncodeResponse(opened.status(), {}));
  }
  // Adopt the caller's request id so iod-side spans and the sealed
  // response stitch to the client call that caused them.
  obs::RequestIdScope id_scope(opened->request_id);
  PVFS_SPAN("iod.handle");
  return SealFrame(HandleMessage(opened->payload));
}

obs::JsonValue IoDaemon::StatsJson() const {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("role", obs::JsonValue("iod"));
  out.Set("server", obs::JsonValue(static_cast<std::uint64_t>(id_)));
  out.Set("requests", obs::JsonValue(stats_.requests.load()));
  out.Set("regions", obs::JsonValue(stats_.regions.load()));
  out.Set("local_accesses", obs::JsonValue(stats_.local_accesses.load()));
  out.Set("store_ops", obs::JsonValue(stats_.store_ops.load()));
  out.Set("bytes_read", obs::JsonValue(stats_.bytes_read.load()));
  out.Set("bytes_written", obs::JsonValue(stats_.bytes_written.load()));
  out.Set("injected_errors", obs::JsonValue(stats_.injected_errors.load()));
  out.Set("corruptions_detected",
          obs::JsonValue(stats_.corruptions_detected.load()));
  out.Set("journal_replays", obs::JsonValue(stats_.journal_replays.load()));
  out.Set("journal_rollbacks", obs::JsonValue(stats_.journal_rollbacks.load()));
  out.Set("torn_writes", obs::JsonValue(stats_.torn_writes.load()));
  out.Set("scrub_chunks_scanned",
          obs::JsonValue(stats_.scrub_chunks_scanned.load()));
  out.Set("scrub_corruptions", obs::JsonValue(stats_.scrub_corruptions.load()));
  out.Set("scrub_repairs", obs::JsonValue(stats_.scrub_repairs.load()));
  out.Set("repair_chunks_scanned",
          obs::JsonValue(stats_.repair_chunks_scanned.load()));
  out.Set("repair_chunks_copied",
          obs::JsonValue(stats_.repair_chunks_copied.load()));
  return out;
}

void IoDaemon::ExportMetrics(obs::Registry& reg,
                             const obs::Labels& base) const {
  obs::Labels labels = base;
  labels.push_back({"server", std::to_string(id_)});
  reg.Counter("iod.requests", labels).Set(stats_.requests.load());
  reg.Counter("iod.regions", labels).Set(stats_.regions.load());
  reg.Counter("iod.local_accesses", labels).Set(stats_.local_accesses.load());
  reg.Counter("iod.store_ops", labels).Set(stats_.store_ops.load());
  reg.Counter("iod.bytes_read", labels).Set(stats_.bytes_read.load());
  reg.Counter("iod.bytes_written", labels).Set(stats_.bytes_written.load());
  reg.Counter("iod.injected_errors", labels).Set(stats_.injected_errors.load());
  reg.Counter("iod.corruptions_detected", labels)
      .Set(stats_.corruptions_detected.load());
  reg.Counter("iod.journal_replays", labels).Set(stats_.journal_replays.load());
  reg.Counter("iod.journal_rollbacks", labels)
      .Set(stats_.journal_rollbacks.load());
  reg.Counter("iod.torn_writes", labels).Set(stats_.torn_writes.load());
  reg.Counter("iod.scrub_chunks_scanned", labels)
      .Set(stats_.scrub_chunks_scanned.load());
  reg.Counter("iod.scrub_corruptions", labels)
      .Set(stats_.scrub_corruptions.load());
  reg.Counter("iod.scrub_repairs", labels).Set(stats_.scrub_repairs.load());
  reg.Counter("iod.repair.chunks_scanned", labels)
      .Set(stats_.repair_chunks_scanned.load());
  reg.Counter("iod.repair.chunks_copied", labels)
      .Set(stats_.repair_chunks_copied.load());
}

}  // namespace pvfs
