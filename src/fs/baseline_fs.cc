#include "src/fs/baseline_fs.h"

#include <algorithm>
#include <cstring>

#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/hw/memory.h"
#include "src/sim/trace.h"

namespace solros {

// ---------------------------------------------------------------------------
// VirtioBlockStore
// ---------------------------------------------------------------------------

VirtioBlockStore::VirtioBlockStore(Simulator* sim, const HwParams& params,
                                   NvmeDevice* nvme, Processor* host_cpu,
                                   Processor* phi_cpu)
    : sim_(sim),
      params_(params),
      nvme_(nvme),
      host_cpu_(host_cpu),
      phi_cpu_(phi_cpu),
      backend_(sim, 1) {}

uint32_t VirtioBlockStore::block_size() const { return nvme_->block_size(); }
uint64_t VirtioBlockStore::block_count() const {
  return nvme_->block_count();
}

Task<Status> VirtioBlockStore::Relay(uint64_t lba, uint32_t nblocks,
                                     std::span<uint8_t> out,
                                     std::span<const uint8_t> in,
                                     bool is_read) {
  ++requests_;
  static Counter* const relays =
      MetricRegistry::Default().GetCounter("baseline.virtio.requests");
  relays->Increment();
  TRACE_SPAN(sim_, "virtio", "virtio.relay");
  uint64_t bytes = uint64_t{nblocks} * block_size();
  // Guest (Phi) virtio driver: build the descriptor, kick the host.
  co_await phi_cpu_->Compute(Microseconds(1));
  // The single host SCIF/virtio backend thread handles the request and
  // performs the relay copy — all requests serialize here.
  co_await backend_.Use(params_.virtio_request_cpu +
                        TransferTime(bytes, params_.virtio_copy_bw));

  // The host stages the data in its own memory; one NVMe command per
  // request, never coalesced, one interrupt each.
  DeviceBuffer staging(host_cpu_->device(), bytes);
  if (!is_read) {
    std::memcpy(staging.data(), in.data(), bytes);
  }
  NvmeCommand command{is_read ? NvmeCommand::Op::kRead
                              : NvmeCommand::Op::kWrite,
                      lba, nblocks, MemRef::Of(staging)};
  SOLROS_CO_RETURN_IF_ERROR(co_await nvme_->SubmitOne(command, host_cpu_));
  if (is_read) {
    // Relay copy host -> Phi by the backend CPU (Fig. 13(a)'s dominant
    // cost), serialized like the request handling.
    co_await backend_.Use(TransferTime(bytes, params_.virtio_copy_bw));
    std::memcpy(out.data(), staging.data(), bytes);
  }
  // Completion interrupt delivered to the guest.
  co_await phi_cpu_->Compute(Microseconds(2));
  co_return OkStatus();
}

Task<Status> VirtioBlockStore::Read(uint64_t lba, uint32_t nblocks,
                                    std::span<uint8_t> out) {
  if (out.size() < uint64_t{nblocks} * block_size()) {
    co_return InvalidArgumentError("virtio read span too short");
  }
  co_return co_await Relay(lba, nblocks, out, {}, /*is_read=*/true);
}

Task<Status> VirtioBlockStore::Write(uint64_t lba, uint32_t nblocks,
                                     std::span<const uint8_t> in) {
  if (in.size() < uint64_t{nblocks} * block_size()) {
    co_return InvalidArgumentError("virtio write span too short");
  }
  co_return co_await Relay(lba, nblocks, {}, in, /*is_read=*/false);
}

Task<Status> VirtioBlockStore::Flush() { co_return OkStatus(); }

// ---------------------------------------------------------------------------
// LocalFsService
// ---------------------------------------------------------------------------

LocalFsService::LocalFsService(const HwParams& params, SolrosFs* fs,
                               Processor* cpu)
    : params_(params), fs_(fs), cpu_(cpu) {}

Task<void> LocalFsService::ChargeCall() {
  static Counter* const calls =
      MetricRegistry::Default().GetCounter("baseline.localfs.calls");
  calls->Increment();
  Simulator* sim = co_await CurrentSimulator();
  // The full file-system stack runs on this processor; on Phi cores the
  // speed factor makes this ~8x more expensive (§3: branchy OS code on
  // lean cores).
  ScopedSpan cpu(sim, "fullfs", "fs.stage.fullfs_cpu");
  co_await cpu_->Compute(params_.fs_full_call_cpu);
}

Task<Result<uint64_t>> LocalFsService::Open(const std::string& path) {
  co_await ChargeCall();
  co_return co_await fs_->Lookup(path);
}

Task<Result<uint64_t>> LocalFsService::Create(const std::string& path) {
  co_await ChargeCall();
  co_return co_await fs_->Create(path);
}

Task<Result<uint64_t>> LocalFsService::Read(uint64_t ino, uint64_t offset,
                                            MemRef target) {
  co_await ChargeCall();
  co_return co_await fs_->ReadAt(ino, offset, target.span());
}

Task<Result<uint64_t>> LocalFsService::Write(uint64_t ino, uint64_t offset,
                                             MemRef source) {
  co_await ChargeCall();
  co_return co_await fs_->WriteAt(ino, offset, source.span());
}

Task<Result<FileStat>> LocalFsService::Stat(const std::string& path) {
  co_await ChargeCall();
  co_return co_await fs_->Stat(path);
}

Task<Status> LocalFsService::Unlink(const std::string& path) {
  co_await ChargeCall();
  co_return co_await fs_->Unlink(path);
}

Task<Status> LocalFsService::Mkdir(const std::string& path) {
  co_await ChargeCall();
  co_return co_await fs_->Mkdir(path);
}

Task<Status> LocalFsService::Rmdir(const std::string& path) {
  co_await ChargeCall();
  co_return co_await fs_->Rmdir(path);
}

Task<Status> LocalFsService::Rename(const std::string& from,
                                    const std::string& to) {
  co_await ChargeCall();
  co_return co_await fs_->Rename(from, to);
}

Task<Result<std::vector<DirEntry>>> LocalFsService::Readdir(
    const std::string& path) {
  co_await ChargeCall();
  co_return co_await fs_->Readdir(path);
}

Task<Status> LocalFsService::Truncate(uint64_t ino, uint64_t size) {
  co_await ChargeCall();
  co_return co_await fs_->Truncate(ino, size);
}

Task<Status> LocalFsService::Fsync(uint64_t ino) {
  co_await ChargeCall();
  co_return co_await fs_->Sync();
}

// ---------------------------------------------------------------------------
// NfsClientFs
// ---------------------------------------------------------------------------

NfsClientFs::NfsClientFs(Simulator* sim, PcieFabric* fabric,
                         const HwParams& params, SolrosFs* host_fs,
                         Processor* host_cpu, Processor* phi_cpu,
                         DeviceId phi_device)
    : sim_(sim),
      fabric_(fabric),
      params_(params),
      host_fs_(host_fs),
      host_cpu_(host_cpu),
      phi_cpu_(phi_cpu),
      phi_device_(phi_device),
      transport_(sim, 1) {}

Task<void> NfsClientFs::RoundTrip(uint64_t payload_to_phi,
                                  uint64_t payload_to_host) {
  // Protocol processing on both ends (XDR, RPC, NFS state).
  co_await phi_cpu_->Compute(params_.nfs_call_cpu);
  co_await host_cpu_->Compute(params_.nfs_call_cpu / 2);
  // TCP-over-PCIe: every ~1.5 KB segment is pushed through the Phi's
  // software TCP stack (the co-processor-centric bottleneck).
  constexpr uint64_t kMss = 1448;
  uint64_t total = payload_to_phi + payload_to_host;
  uint64_t segments = (total + kMss - 1) / kMss;
  // One TCP connection: the Phi's per-segment stack work is ordered.
  co_await transport_.Use(
      phi_cpu_->ScaledTime(segments * params_.tcp_segment_cpu));
  co_await host_cpu_->Compute(segments * params_.tcp_segment_cpu / 2);
  if (payload_to_phi != 0) {
    co_await fabric_->Transfer(fabric_->HostDevice(0), phi_device_,
                               payload_to_phi, /*initiator_rate=*/0.0,
                               /*peer_to_peer=*/false);
  }
  if (payload_to_host != 0) {
    co_await fabric_->Transfer(phi_device_, fabric_->HostDevice(0),
                               payload_to_host, 0.0, false);
  }
}

Task<Result<uint64_t>> NfsClientFs::Open(const std::string& path) {
  co_await RoundTrip(0, 0);
  co_return co_await host_fs_->Lookup(path);
}

Task<Result<uint64_t>> NfsClientFs::Create(const std::string& path) {
  co_await RoundTrip(0, 0);
  co_return co_await host_fs_->Create(path);
}

Task<Result<uint64_t>> NfsClientFs::Read(uint64_t ino, uint64_t offset,
                                         MemRef target) {
  uint64_t done = 0;
  while (done < target.length) {
    uint64_t chunk =
        std::min<uint64_t>(params_.nfs_transfer_unit, target.length - done);
    std::vector<uint8_t> staging(chunk);
    SOLROS_CO_ASSIGN_OR_RETURN(
        uint64_t n, co_await host_fs_->ReadAt(ino, offset + done, staging));
    co_await RoundTrip(/*payload_to_phi=*/n, /*payload_to_host=*/0);
    std::memcpy(target.span().data() + done, staging.data(), n);
    done += n;
    if (n < chunk) {
      break;  // EOF
    }
  }
  co_return done;
}

Task<Result<uint64_t>> NfsClientFs::Write(uint64_t ino, uint64_t offset,
                                          MemRef source) {
  uint64_t done = 0;
  while (done < source.length) {
    uint64_t chunk =
        std::min<uint64_t>(params_.nfs_transfer_unit, source.length - done);
    co_await RoundTrip(0, /*payload_to_host=*/chunk);
    auto span = source.span();
    SOLROS_CO_ASSIGN_OR_RETURN(
        uint64_t n,
        co_await host_fs_->WriteAt(
            ino, offset + done,
            {span.data() + done, static_cast<size_t>(chunk)}));
    done += n;
  }
  co_return done;
}

Task<Result<FileStat>> NfsClientFs::Stat(const std::string& path) {
  co_await RoundTrip(0, 0);
  co_return co_await host_fs_->Stat(path);
}

Task<Status> NfsClientFs::Unlink(const std::string& path) {
  co_await RoundTrip(0, 0);
  co_return co_await host_fs_->Unlink(path);
}

Task<Status> NfsClientFs::Mkdir(const std::string& path) {
  co_await RoundTrip(0, 0);
  co_return co_await host_fs_->Mkdir(path);
}

Task<Status> NfsClientFs::Rmdir(const std::string& path) {
  co_await RoundTrip(0, 0);
  co_return co_await host_fs_->Rmdir(path);
}

Task<Status> NfsClientFs::Rename(const std::string& from,
                                 const std::string& to) {
  co_await RoundTrip(0, 0);
  co_return co_await host_fs_->Rename(from, to);
}

Task<Result<std::vector<DirEntry>>> NfsClientFs::Readdir(
    const std::string& path) {
  co_await RoundTrip(KiB(4), 0);
  co_return co_await host_fs_->Readdir(path);
}

Task<Status> NfsClientFs::Truncate(uint64_t ino, uint64_t size) {
  co_await RoundTrip(0, 0);
  co_return co_await host_fs_->Truncate(ino, size);
}

Task<Status> NfsClientFs::Fsync(uint64_t ino) {
  co_await RoundTrip(0, 0);
  co_return co_await host_fs_->Sync();
}

}  // namespace solros
