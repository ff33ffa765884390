#include "src/fs/fs_stub.h"

#include <algorithm>

#include "src/base/fault.h"
#include "src/base/metrics.h"
#include "src/sim/trace.h"

namespace solros {
namespace {

// Data ops can be reissued safely: reads and stats have no side effects,
// and writes/truncates put the same bytes at the same place. Namespace
// mutations are not idempotent (a replayed create observes kAlreadyExists).
bool IsIdempotent(FsOp op) {
  switch (op) {
    case FsOp::kOpen:
    case FsOp::kRead:
    case FsOp::kWrite:
    case FsOp::kStat:
    case FsOp::kReaddir:
    case FsOp::kTruncate:
    case FsOp::kFsync:
      return true;
    case FsOp::kCreate:
    case FsOp::kUnlink:
    case FsOp::kMkdir:
    case FsOp::kRmdir:
    case FsOp::kRename:
      return false;
  }
  return false;
}

}  // namespace

FsStub::FsStub(Simulator* sim, const HwParams& params, Processor* phi_cpu,
               std::vector<std::pair<SimRing*, SimRing*>> shard_rings,
               uint32_t client_id)
    : sim_(sim),
      params_(params),
      phi_cpu_(phi_cpu),
      client_id_(client_id) {
  clients_.reserve(shard_rings.size());
  for (auto& [req, resp] : shard_rings) {
    clients_.push_back(
        std::make_unique<RpcClient<FsRequest, FsResponse>>(sim, req, resp));
    clients_.back()->Start();
  }
}

int FsStub::RouteShard(const FsRequest& request) const {
  const int shards = static_cast<int>(clients_.size());
  if (shards <= 1) {
    return 0;
  }
  switch (request.op) {
    case FsOp::kRead:
    case FsOp::kWrite:
      // Block-group striping: large files spread across shards, small
      // files land whole on their inode's shard. DataCall never lets a
      // request cross a stripe, so its start offset names its only owner.
      return ShardOfFileRange(request.ino, request.offset, kFsBlockSize,
                              shards);
    case FsOp::kStat:
      return request.path[0] != '\0' ? ShardOfPath(request.Path(), shards)
                                     : ShardOfInode(request.ino, shards);
    case FsOp::kTruncate:
    case FsOp::kFsync:
      return ShardOfInode(request.ino, shards);
    default:
      // Namespace ops carry a path.
      return ShardOfPath(request.Path(), shards);
  }
}

Task<Result<FsResponse>> FsStub::Call(FsRequest request) {
  ++calls_;
  static Counter* const calls =
      MetricRegistry::Default().GetCounter("fs.stub.calls");
  static LatencyHistogram* const call_ns =
      MetricRegistry::Default().GetHistogram("fs.stub.call_ns");
  calls->Increment();
  SimTime t0 = sim_->now();
  // Root of this request's causal trace: a fresh trace id, carried by the
  // wire message so every downstream span hangs off this one. With no
  // tracer bound the context stays zero and nothing downstream records.
  Tracer* tracer = sim_->tracer();
  TraceContext root_ctx;
  if (tracer != nullptr) {
    root_ctx.trace_id = tracer->NewTraceId();
  }
  ScopedSpan span(sim_, "stub", "fs.stub.call", root_ctx);
  TraceContext ctx = span.context();
  request.trace_id = ctx.trace_id;
  request.parent_span = ctx.parent_span;
  request.client = client_id_;
  if (buffered_ || buffered_inos_.contains(request.ino)) {
    request.flags |= kFsFlagBuffered;
  }
  {
    // The thin stub cost: syscall entry + RPC marshalling on a lean core.
    ScopedSpan cpu(sim_, "stub", "fs.stage.stub_cpu", ctx);
    co_await phi_cpu_->Compute(params_.fs_stub_cpu);
  }
  // Per-attempt timeouts exist only while faults are armed; a fault-free
  // run makes a single untimed attempt with an unchanged schedule. The
  // window scales with the payload: a multi-MiB transfer legitimately runs
  // for tens of milliseconds (the 4 ns/byte allowance is ~4x the slowest
  // data path), and a fixed window would misread it as a lost frame.
  const bool idempotent = IsIdempotent(request.op);
  const Nanos timeout =
      Faults().any_armed() ? retry_.timeout + request.length * 4 : 0;
  Nanos backoff = retry_.backoff;
  RpcClient<FsRequest, FsResponse>& client = *clients_[RouteShard(request)];
  Result<FsResponse> rpc = Status(ErrorCode::kInternal);
  for (int attempt = 1;; ++attempt) {
    {
      ScopedSpan wait(sim_, "stub", "fs.stage.rpc_wait", ctx);
      rpc = co_await client.Call(request, timeout);
    }
    const bool transport_error = !rpc.ok();
    ErrorCode code = transport_error ? rpc.code() : rpc.value().error;
    if (code == ErrorCode::kOk) {
      break;
    }
    // A transport timeout leaves the outcome unknown, so it is safe to
    // reissue anything (at-least-once for namespace ops). Server-reported
    // timeouts / I/O errors mean the op did not apply; reissue only ops
    // that are idempotent anyway.
    const bool retryable =
        idempotent ? (code == ErrorCode::kTimedOut ||
                      code == ErrorCode::kIoError)
                   : (transport_error && code == ErrorCode::kTimedOut);
    if (!retryable || attempt >= retry_.max_attempts) {
      break;
    }
    static Counter* const retries =
        MetricRegistry::Default().GetCounter("fs.stub.retries");
    retries->Increment();
    TRACE_INSTANT(sim_, "stub", "fs.stub.retry");
    co_await Delay(backoff);
    backoff *= 2;
  }
  const ErrorCode final_code = rpc.ok() ? rpc.value().error : rpc.code();
  if (IsSystemError(final_code) && tracer != nullptr && root_ctx.traced()) {
    // A failed call marks the whole trace for retention under tail-based
    // sampling (no-op in full-capture mode), as NetStub::Call does.
    tracer->FlagTrace(root_ctx.trace_id, Tracer::TraceFlag::kError);
  }
  if (!rpc.ok()) {
    co_return rpc.status();
  }
  FsResponse response = std::move(rpc).value();
  if (response.error != ErrorCode::kOk) {
    co_return Status(response.error);
  }
  call_ns->Record(sim_->now() - t0);
  co_return response;
}

Task<Result<uint64_t>> FsStub::Open(const std::string& path) {
  FsRequest request;
  request.op = FsOp::kOpen;
  request.SetPath(path);
  SOLROS_CO_ASSIGN_OR_RETURN(FsResponse r, co_await Call(request));
  co_return r.value;
}

Task<Result<uint64_t>> FsStub::OpenBuffered(const std::string& path) {
  SOLROS_CO_ASSIGN_OR_RETURN(uint64_t ino, co_await Open(path));
  buffered_inos_.insert(ino);
  co_return ino;
}

Task<Result<uint64_t>> FsStub::Create(const std::string& path) {
  FsRequest request;
  request.op = FsOp::kCreate;
  request.SetPath(path);
  SOLROS_CO_ASSIGN_OR_RETURN(FsResponse r, co_await Call(request));
  co_return r.value;
}

Task<Result<uint64_t>> FsStub::Read(uint64_t ino, uint64_t offset,
                                    MemRef target) {
  co_return co_await DataCall(FsOp::kRead, ino, offset, target);
}

Task<Result<uint64_t>> FsStub::Write(uint64_t ino, uint64_t offset,
                                     MemRef source) {
  co_return co_await DataCall(FsOp::kWrite, ino, offset, source);
}

Task<Result<uint64_t>> FsStub::DataCall(FsOp op, uint64_t ino, uint64_t offset,
                                        MemRef memory) {
  const int shards = static_cast<int>(clients_.size());
  uint64_t done = 0;
  do {
    const uint64_t at = offset + done;
    const uint64_t piece = std::min(
        memory.length - done, OwnedRangeEnd(at, kFsBlockSize, shards) - at);
    FsRequest request;
    request.op = op;
    request.ino = ino;
    request.offset = at;
    request.length = piece;
    request.memory = memory.Sub(done, piece);
    SOLROS_CO_ASSIGN_OR_RETURN(FsResponse r, co_await Call(request));
    done += r.value;
    if (r.value < piece) {
      break;  // end of file
    }
  } while (done < memory.length);
  co_return done;
}

Task<Result<FileStat>> FsStub::Stat(const std::string& path) {
  FsRequest request;
  request.op = FsOp::kStat;
  request.SetPath(path);
  SOLROS_CO_ASSIGN_OR_RETURN(FsResponse r, co_await Call(request));
  co_return r.stat;
}

Task<Status> FsStub::Unlink(const std::string& path) {
  FsRequest request;
  request.op = FsOp::kUnlink;
  request.SetPath(path);
  auto r = co_await Call(request);
  co_return r.status();
}

Task<Status> FsStub::Mkdir(const std::string& path) {
  FsRequest request;
  request.op = FsOp::kMkdir;
  request.SetPath(path);
  auto r = co_await Call(request);
  co_return r.status();
}

Task<Status> FsStub::Rmdir(const std::string& path) {
  FsRequest request;
  request.op = FsOp::kRmdir;
  request.SetPath(path);
  auto r = co_await Call(request);
  co_return r.status();
}

Task<Status> FsStub::Rename(const std::string& from, const std::string& to) {
  FsRequest request;
  request.op = FsOp::kRename;
  request.SetPath(from);
  request.SetPath2(to);
  auto r = co_await Call(request);
  co_return r.status();
}

Task<Result<std::vector<DirEntry>>> FsStub::Readdir(const std::string& path) {
  // Chunked zero-copy listing through a co-processor staging buffer.
  constexpr uint64_t kChunkRows = 64;
  DeviceBuffer staging(phi_cpu_->device(), kChunkRows * sizeof(Dirent));
  std::vector<DirEntry> out;
  uint64_t row = 0;
  while (true) {
    FsRequest request;
    request.op = FsOp::kReaddir;
    request.SetPath(path);
    request.offset = row;
    request.memory = MemRef::Of(staging);
    SOLROS_CO_ASSIGN_OR_RETURN(FsResponse r, co_await Call(request));
    uint64_t rows = r.value;
    for (uint64_t i = 0; i < rows; ++i) {
      Dirent ent;
      std::memcpy(&ent, staging.data() + i * sizeof(Dirent), sizeof(Dirent));
      DirEntry entry;
      entry.ino = ent.ino;
      entry.name = ent.Name();
      entry.is_dir = ent.type == (kModeDir >> 12);
      out.push_back(std::move(entry));
    }
    if (rows < kChunkRows) {
      break;
    }
    row += rows;
  }
  co_return out;
}

Task<Status> FsStub::Truncate(uint64_t ino, uint64_t size) {
  FsRequest request;
  request.op = FsOp::kTruncate;
  request.ino = ino;
  request.length = size;
  auto r = co_await Call(request);
  co_return r.status();
}

Task<Status> FsStub::Fsync(uint64_t ino) {
  FsRequest request;
  request.op = FsOp::kFsync;
  request.ino = ino;
  auto r = co_await Call(request);
  co_return r.status();
}

}  // namespace solros
