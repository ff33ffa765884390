// Baseline file-service configurations the paper compares against (§6.1.2).
//
//  * VirtioBlockStore + LocalFsService on a Phi core — the
//    co-processor-centric stock path:
//    "ext4 file system is running on Xeon Phi and controls an NVMe SSD as a
//    virtual block device (virtblk). An SCIF kernel module on the host
//    drives the NVMe SSD according to requests from the Xeon Phi. An
//    interrupt signal is designated for notification of virtblk." Every
//    block request pays a Phi->host kick, host-side kernel handling, a
//    non-coalesced NVMe command, and a *CPU-relay copy* of the data across
//    PCIe (Fig. 13(a)'s dominant "Block/Transport" bar) — and all
//    file-system code runs on the slow co-processor cores.
//
//  * NfsClientFs — the NFS-over-PCIe stock path: per-call protocol costs on
//    both ends, data chunked at the NFS transfer unit and pushed through
//    the Phi's TCP stack segment by segment.
//
//  * LocalFsService on a host core — the host upper bound: full file system
//    on fast cores, NVMe DMA into host memory.
#ifndef SOLROS_SRC_FS_BASELINE_FS_H_
#define SOLROS_SRC_FS_BASELINE_FS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fs/block_store.h"
#include "src/fs/file_service.h"
#include "src/fs/solros_fs.h"
#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/nvme/nvme_device.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"

namespace solros {

// A block device as seen from the co-processor through the virtio relay.
class VirtioBlockStore : public BlockStore {
 public:
  VirtioBlockStore(Simulator* sim, const HwParams& params, NvmeDevice* nvme,
                   Processor* host_cpu, Processor* phi_cpu);

  uint32_t block_size() const override;
  uint64_t block_count() const override;
  Task<Status> Read(uint64_t lba, uint32_t nblocks,
                    std::span<uint8_t> out) override;
  Task<Status> Write(uint64_t lba, uint32_t nblocks,
                     std::span<const uint8_t> in) override;
  Task<Status> Flush() override;

  uint64_t requests() const { return requests_; }

 private:
  Task<Status> Relay(uint64_t lba, uint32_t nblocks, std::span<uint8_t> out,
                     std::span<const uint8_t> in, bool is_read);

  Simulator* sim_;
  HwParams params_;
  NvmeDevice* nvme_;
  Processor* host_cpu_;
  Processor* phi_cpu_;
  // The SCIF/virtio backend is one host kernel thread: every request's
  // handling and relay copy serialize through it — why the stock path is
  // flat at ~0.1-0.2 GB/s no matter how many Phi threads issue I/O
  // (Figs. 11/12).
  MultiServerResource backend_;
  uint64_t requests_ = 0;
};

// Shared adapter: a FileService facade over a SolrosFs instance whose
// calls run on `cpu` at the full-file-system CPU cost, with data landing
// via plain local copies (both the Phi-local and the host-local baseline).
class LocalFsService : public FileService {
 public:
  LocalFsService(const HwParams& params, SolrosFs* fs, Processor* cpu);

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
  Task<Result<std::vector<DirEntry>>> Readdir(
      const std::string& path) override;
  Task<Status> Truncate(uint64_t ino, uint64_t size) override;
  Task<Status> Fsync(uint64_t ino) override;

  SolrosFs* fs() { return fs_; }

 private:
  Task<void> ChargeCall();

  HwParams params_;
  SolrosFs* fs_;
  Processor* cpu_;
};

// NFS-style client on the co-processor, talking to a host-side SolrosFs.
class NfsClientFs : public FileService {
 public:
  NfsClientFs(Simulator* sim, PcieFabric* fabric, const HwParams& params,
              SolrosFs* host_fs, Processor* host_cpu, Processor* phi_cpu,
              DeviceId phi_device);

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
  Task<Result<std::vector<DirEntry>>> Readdir(
      const std::string& path) override;
  Task<Status> Truncate(uint64_t ino, uint64_t size) override;
  Task<Status> Fsync(uint64_t ino) override;

 private:
  // One NFS round trip: protocol CPU on both ends plus `payload` bytes
  // through the Phi TCP stack and across the PCIe link.
  Task<void> RoundTrip(uint64_t payload_to_phi, uint64_t payload_to_host);

  Simulator* sim_;
  PcieFabric* fabric_;
  HwParams params_;
  SolrosFs* host_fs_;
  Processor* host_cpu_;
  Processor* phi_cpu_;
  DeviceId phi_device_;
  // One NFS client transport context (rpciod + a single TCP connection):
  // chunk transfers serialize.
  MultiServerResource transport_;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_BASELINE_FS_H_
