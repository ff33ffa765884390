// The data-plane view of a file service.
//
// Every configuration the paper evaluates implements this interface, so the
// benchmarks and applications can swap them freely:
//  * FsStub         — Solros: thin RPC stub -> control-plane proxy (§4.3)
//  * LocalFsService — a full file system on one processor's cores: on the
//                     Phi over a virtio-style remote block device (the
//                     co-processor-centric baseline), or on the host with
//                     data landing in host memory (the upper bound)
//  * NfsClientFs    — NFS-style baseline: per-call RPC to the host FS with
//                     chunked data transfer over the Phi's TCP stack
//
// Data-carrying calls use MemRef targets (the zero-copy "physical address"
// convention): the caller owns a DeviceBuffer on its own device and the
// service moves bytes into/out of it, charging whatever its architecture
// actually costs.
#ifndef SOLROS_SRC_FS_FILE_SERVICE_H_
#define SOLROS_SRC_FS_FILE_SERVICE_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/fs/layout.h"
#include "src/hw/memory.h"
#include "src/sim/task.h"

namespace solros {

class FileService {
 public:
  virtual ~FileService() = default;

  virtual Task<Result<uint64_t>> Open(const std::string& path) = 0;
  virtual Task<Result<uint64_t>> Create(const std::string& path) = 0;
  // Returns bytes transferred; `target`/`source` length bounds the I/O.
  virtual Task<Result<uint64_t>> Read(uint64_t ino, uint64_t offset,
                                      MemRef target) = 0;
  virtual Task<Result<uint64_t>> Write(uint64_t ino, uint64_t offset,
                                       MemRef source) = 0;
  virtual Task<Result<FileStat>> Stat(const std::string& path) = 0;
  virtual Task<Status> Unlink(const std::string& path) = 0;
  virtual Task<Status> Mkdir(const std::string& path) = 0;
  virtual Task<Status> Rmdir(const std::string& path) = 0;
  virtual Task<Status> Rename(const std::string& from,
                              const std::string& to) = 0;
  virtual Task<Result<std::vector<DirEntry>>> Readdir(
      const std::string& path) = 0;
  virtual Task<Status> Truncate(uint64_t ino, uint64_t size) = 0;
  virtual Task<Status> Fsync(uint64_t ino) = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_FILE_SERVICE_H_
