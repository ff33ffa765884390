// Shared measurement configurations for Figs. 1(a), 11 and 12: the four
// server-side file-service setups of the paper's evaluation, measured with
// the common random-I/O driver.
#ifndef SOLROS_BENCH_FS_CONFIGS_H_
#define SOLROS_BENCH_FS_CONFIGS_H_

#include <algorithm>
#include <iostream>

#include "bench/bench_util.h"
#include "bench/fs_workload.h"

namespace solros {


constexpr uint64_t kFileBytes = MiB(512);

MachineConfig BenchMachine() {
  MachineConfig config;
  config.num_phis = 1;
  config.nvme_capacity = GiB(1);
  config.enable_network = false;
  // Cold-cache runs: a modest cache that cannot hold the working set.
  config.fs_options.cache_blocks = 8192;  // 32 MiB
  // SOLROS_JOURNAL=metadata|data: measure the crash-consistency ablation.
  Result<JournalMode> journal = BenchJournalMode();
  CHECK_OK(journal);
  config.journal_mode = *journal;
  return config;
}

double MeasureSolros(uint64_t block, int threads, bool is_write) {
  Machine machine(BenchMachine());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/work", kFileBytes));
  CHECK_OK(ino);
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(4, 64 / threads);
  config.is_write = is_write;
  return RunFsWorkload(&machine.sim(), &machine.fs_stub(0), *ino,
                       machine.phi_device(0), config)
      .bandwidth();
}

// The staged (buffered) path under O_BUFFER: every request goes through the
// host shared buffer cache — the path the cache overhaul targets. Under
// --telemetry-out each measured point also emits a labeled bottleneck
// report (the staged path is where "what binds?" is non-obvious).
double MeasureSolrosBuffered(uint64_t block, int threads, bool is_write) {
  MachineConfig machine_config = BenchMachine();
  MaybeEnableTelemetry(machine_config);
  Machine machine(std::move(machine_config));
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/work", kFileBytes));
  CHECK_OK(ino);
  machine.fs_stub(0).set_buffered(true);
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(4, 64 / threads);
  config.is_write = is_write;
  // Report the measured workload, not the workload-file prep above.
  ResetTelemetry(machine);
  double bandwidth =
      RunFsWorkload(&machine.sim(), &machine.fs_stub(0), *ino,
                    machine.phi_device(0), config)
          .bandwidth();
  AppendTelemetryReport(std::string(is_write ? "fs-write" : "fs-read") +
                            "/buffered/" + HumanSize(block) + "x" +
                            std::to_string(threads),
                        machine);
  return bandwidth;
}

double MeasureHost(uint64_t block, int threads, bool is_write) {
  Machine machine(BenchMachine());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/work", kFileBytes));
  CHECK_OK(ino);
  LocalFsService service(machine.params(), &machine.fs(),
                         &machine.host_cpu());
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(4, 64 / threads);
  config.is_write = is_write;
  return RunFsWorkload(&machine.sim(), &service, *ino,
                       machine.host_device(), config)
      .bandwidth();
}

double MeasureVirtio(uint64_t block, int threads, bool is_write) {
  Machine machine(BenchMachine());
  VirtioBlockStore virtio(&machine.sim(), machine.params(), &machine.nvme(),
                          &machine.host_cpu(), &machine.phi_cpu(0));
  SolrosFs phi_fs(&virtio, &machine.sim());
  CHECK_OK(RunSim(machine.sim(), phi_fs.Format(1024)));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&phi_fs, "/work", kFileBytes));
  CHECK_OK(ino);
  LocalFsService service(machine.params(), &phi_fs, &machine.phi_cpu(0));
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(2, 16 / threads);
  config.is_write = is_write;
  return RunFsWorkload(&machine.sim(), &service, *ino,
                       machine.phi_device(0), config)
      .bandwidth();
}

double MeasureNfs(uint64_t block, int threads, bool is_write) {
  Machine machine(BenchMachine());
  CHECK_OK(RunSim(machine.sim(), machine.FormatFs()));
  auto ino = RunSim(machine.sim(),
                    PrepareWorkloadFile(&machine.fs(), "/work", kFileBytes));
  CHECK_OK(ino);
  NfsClientFs service(&machine.sim(), &machine.fabric(), machine.params(),
                      &machine.fs(), &machine.host_cpu(),
                      &machine.phi_cpu(0), machine.phi_device(0));
  FsWorkloadConfig config;
  config.file_bytes = kFileBytes;
  config.block_size = block;
  config.threads = threads;
  config.ops_per_thread = std::max<int>(2, 16 / threads);
  config.is_write = is_write;
  return RunFsWorkload(&machine.sim(), &service, *ino,
                       machine.phi_device(0), config)
      .bandwidth();
}

void RunFsFigure(bool is_write) {
  // Quick mode (SOLROS_BENCH_QUICK): CI smoke matrix — enough points for
  // regression tracking without the full figure sweep.
  const std::vector<int> thread_list =
      BenchQuickMode() ? std::vector<int>{1, 8}
                       : std::vector<int>{1, 4, 8, 32, 61};
  const std::vector<uint64_t> block_list =
      BenchQuickMode()
          ? std::vector<uint64_t>{KiB(32), KiB(256), MiB(1)}
          : std::vector<uint64_t>{KiB(32), KiB(64), KiB(128), KiB(256),
                                  KiB(512), MiB(1), MiB(2), MiB(4)};
  for (int threads : thread_list) {
    TablePrinter table({"block", "Host GB/s", "Phi-Solros GB/s",
                        "Phi-Solros O_BUFFER GB/s", "Phi-virtio GB/s",
                        "Phi-NFS GB/s"});
    for (uint64_t block : block_list) {
      table.AddRow({HumanSize(block),
                    GBps3(MeasureHost(block, threads, is_write)),
                    GBps3(MeasureSolros(block, threads, is_write)),
                    GBps3(MeasureSolrosBuffered(block, threads, is_write)),
                    GBps3(MeasureVirtio(block, threads, is_write)),
                    GBps3(MeasureNfs(block, threads, is_write))});
    }
    EmitTable(std::to_string(threads) + " thread(s)", table);
  }
}


}  // namespace solros

#endif  // SOLROS_BENCH_FS_CONFIGS_H_
