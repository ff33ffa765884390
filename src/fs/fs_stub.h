// Data-plane file-system stub (§4.3.1).
//
// "A lightweight file system stub transforms a file system call from an
// application to a corresponding RPC, as there exists a one-to-one mapping
// between an RPC and a file system call." The stub charges only its thin
// per-call CPU cost on the (slow) co-processor cores; all real file-system
// work happens in the host proxy. Data never rides the RPC ring: requests
// carry the MemRef of co-processor memory and the proxy arranges the
// zero-copy transfer.
#ifndef SOLROS_SRC_FS_FS_STUB_H_
#define SOLROS_SRC_FS_FS_STUB_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/sharding.h"
#include "src/fs/file_service.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/rpc/messages.h"
#include "src/rpc/rpc.h"
#include "src/transport/sim_ring.h"

namespace solros {

class FsStub : public FileService {
 public:
  // One ring pair per control-plane proxy shard, in shard order.
  // Each call is routed with the same partition functions the shards use —
  // reads/writes by (inode, block-group stripe), path ops by path hash,
  // inode ops by inode range — so a request lands on the shard that owns
  // its cache segment and stream state. A read or write that spans stripes
  // is issued as one RPC per stripe, one after another.
  FsStub(Simulator* sim, const HwParams& params, Processor* phi_cpu,
         std::vector<std::pair<SimRing*, SimRing*>> shard_rings,
         uint32_t client_id);

  // Opens files in buffered (O_BUFFER) mode when set (§4.3.2 ablation;
  // applies to subsequent Open/Create calls and all I/O on this stub).
  void set_buffered(bool buffered) { buffered_ = buffered; }

  // Per-open O_BUFFER (§4.3.2: "files are explicitly opened with our
  // extended flag O_BUFFER"): I/O on the returned inode always takes the
  // buffered path, independent of set_buffered().
  Task<Result<uint64_t>> OpenBuffered(const std::string& path);

  Task<Result<uint64_t>> Open(const std::string& path) override;
  Task<Result<uint64_t>> Create(const std::string& path) override;
  Task<Result<uint64_t>> Read(uint64_t ino, uint64_t offset,
                              MemRef target) override;
  Task<Result<uint64_t>> Write(uint64_t ino, uint64_t offset,
                               MemRef source) override;
  Task<Result<FileStat>> Stat(const std::string& path) override;
  Task<Status> Unlink(const std::string& path) override;
  Task<Status> Mkdir(const std::string& path) override;
  Task<Status> Rmdir(const std::string& path) override;
  Task<Status> Rename(const std::string& from, const std::string& to) override;
  Task<Result<std::vector<DirEntry>>> Readdir(const std::string& path) override;
  Task<Status> Truncate(uint64_t ino, uint64_t size) override;
  Task<Status> Fsync(uint64_t ino) override;

  uint64_t calls_issued() const { return calls_; }

 private:
  // One RPC, retried per kRpcRetry while fault injection is armed. Data
  // ops (read/write/stat/open/readdir/truncate/fsync) are idempotent and
  // retry on a transient error; namespace ops (create/unlink/mkdir/rmdir/
  // rename) retry only on a transport timeout, which gives them
  // at-least-once semantics under response loss (a retried create may see
  // kAlreadyExists).
  Task<Result<FsResponse>> Call(FsRequest request);
  // A read or write of `memory` at `offset`, one RPC per owned run. Returns
  // the bytes up to the first short piece; any failed piece fails the call.
  Task<Result<uint64_t>> DataCall(FsOp op, uint64_t ino, uint64_t offset,
                                  MemRef memory);
  // Which proxy shard (client index) serves this request.
  int RouteShard(const FsRequest& request) const;

  Simulator* sim_;
  HwParams params_;
  Processor* phi_cpu_;
  // One RPC client per proxy shard; exactly one for an unsharded proxy.
  std::vector<std::unique_ptr<RpcClient<FsRequest, FsResponse>>> clients_;
  uint32_t client_id_;
  bool buffered_ = false;
  std::set<uint64_t> buffered_inos_;  // opened with O_BUFFER
  uint64_t calls_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_FS_STUB_H_
