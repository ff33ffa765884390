#include "src/nvme/nvme_device.h"

#include <cstring>
#include <utility>

#include "src/base/fault.h"
#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/sim/trace.h"

namespace solros {

NvmeDevice::NvmeDevice(Simulator* sim, PcieFabric* fabric,
                       const HwParams& params, DeviceId self,
                       uint64_t capacity_bytes, Processor* interrupt_cpu)
    : sim_(sim),
      fabric_(fabric),
      params_(params),
      self_(self),
      interrupt_cpu_(interrupt_cpu),
      flash_(self, capacity_bytes),
      queue_slots_(sim, params.nvme_queue_depth) {
  CHECK(fabric->TypeOf(self) == DeviceType::kNvme);
  CHECK_EQ(capacity_bytes % params.nvme_block_size, 0u);
  CHECK(interrupt_cpu != nullptr);
  if (sim->telemetry() != nullptr) {
    use_ = sim->telemetry()->GetSeries(fabric->NameOf(self));
  }
}

Status NvmeDevice::Validate(const NvmeCommand& command) const {
  if (command.op == NvmeCommand::Op::kFlush) {
    if (command.nblocks != 0 || command.target.valid()) {
      return InvalidArgumentError("nvme flush carries no range or target");
    }
    return OkStatus();
  }
  if (command.nblocks == 0) {
    return InvalidArgumentError("zero-length nvme command");
  }
  if (command.lba + command.nblocks > block_count()) {
    return OutOfRangeError("nvme command beyond device capacity");
  }
  if (!command.target.valid() ||
      command.target.length !=
          uint64_t{command.nblocks} * params_.nvme_block_size) {
    return InvalidArgumentError("nvme target length mismatch");
  }
  return OkStatus();
}

void NvmeDevice::LosePower() {
  // Reverse order: overlapping writes to the same range roll back to the
  // bytes that were stable at the last Flush.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    std::memcpy(flash_.data() + it->flash_off, it->pre.data(),
                it->pre.size());
  }
  undo_.clear();
  crashed_ = true;
}

Task<Status> NvmeDevice::Execute(NvmeCommand command, TraceContext ctx) {
  static Gauge* const depth =
      MetricRegistry::Default().GetGauge("nvme.queue.depth");
  static Counter* const commands =
      MetricRegistry::Default().GetCounter("nvme.commands");
  static LatencyHistogram* const cmd_ns =
      MetricRegistry::Default().GetHistogram("nvme.cmd_ns");
  SimTime arrived = sim_->now();
  if (use_ != nullptr) {
    use_->QueueDelta(arrived, +1);
  }
  co_await queue_slots_.Acquire();
  depth->Add(1);
  commands->Increment();
  SimTime cmd_start = sim_->now();
  ScopedSpan span(sim_, "nvme", "nvme.cmd", ctx);

  // Injected command faults fire before any data is transferred, so a failed
  // command never partially applies (real controllers report such errors via
  // the completion queue before acknowledging the data).
  static FaultPoint* const cmd_timeout = Faults().GetPoint("nvme.cmd.timeout");
  static FaultPoint* const cmd_fail = Faults().GetPoint("nvme.cmd.fail");
  if (cmd_timeout->ShouldFire()) {
    static Counter* const timeouts =
        MetricRegistry::Default().GetCounter("nvme.cmd.timeouts");
    timeouts->Increment();
    TRACE_INSTANT(sim_, "nvme", "fault.nvme.timeout");
    // The command holds its queue slot for the full timeout window.
    co_await Delay(params_.nvme_timeout);
    depth->Add(-1);
    queue_slots_.Release();
    if (use_ != nullptr) {
      use_->QueueDelta(sim_->now(), -1);
      use_->AddError(sim_->now());
    }
    co_return TimedOutError("injected nvme command timeout");
  }
  if (cmd_fail->ShouldFire()) {
    static Counter* const failures =
        MetricRegistry::Default().GetCounter("nvme.cmd.failures");
    failures->Increment();
    TRACE_INSTANT(sim_, "nvme", "fault.nvme.fail");
    depth->Add(-1);
    queue_slots_.Release();
    if (use_ != nullptr) {
      use_->QueueDelta(sim_->now(), -1);
      use_->AddError(sim_->now());
    }
    co_return IoError("injected nvme media error");
  }

  static FaultPoint* const powercut = Faults().GetPoint("nvme.powercut");
  static FaultPoint* const tornwrite = Faults().GetPoint("nvme.tornwrite");
  // A crashed device completes nothing until PowerCycle(). The planned
  // crash errors use kFailedPrecondition precisely so the block store's
  // retry layer does not treat them as transient.
  if (crashed_) {
    depth->Add(-1);
    queue_slots_.Release();
    if (use_ != nullptr) {
      use_->QueueDelta(sim_->now(), -1);
      use_->AddError(sim_->now());
    }
    co_return FailedPreconditionError("nvme device lost power");
  }

  if (command.op == NvmeCommand::Op::kFlush) {
    static Counter* const flushes =
        MetricRegistry::Default().GetCounter("nvme.flush.commands");
    static LatencyHistogram* const flush_ns =
        MetricRegistry::Default().GetHistogram("nvme.flush.cmd_ns");
    if (powercut->ShouldFire()) {
      static Counter* const powercuts =
          MetricRegistry::Default().GetCounter("nvme.powercuts");
      powercuts->Increment();
      TRACE_INSTANT(sim_, "nvme", "fault.nvme.powercut");
      LosePower();
      depth->Add(-1);
      queue_slots_.Release();
      if (use_ != nullptr) {
        use_->QueueDelta(sim_->now(), -1);
        use_->AddError(sim_->now());
      }
      co_return FailedPreconditionError("injected nvme power cut");
    }
    co_await Delay(params_.nvme_flush_latency);
    if (crashed_) {
      // Another in-flight command's cut landed during the drain: the
      // flush must not acknowledge durability it no longer provides.
      depth->Add(-1);
      queue_slots_.Release();
      if (use_ != nullptr) {
        use_->QueueDelta(sim_->now(), -1);
        use_->AddError(sim_->now());
      }
      co_return FailedPreconditionError("nvme device lost power");
    }
    undo_.clear();  // the write buffer reached stable media
    flushes->Increment();
    flush_ns->Record(sim_->now() - cmd_start);
    ++commands_completed_;
    cmd_ns->Record(sim_->now() - cmd_start);
    depth->Add(-1);
    queue_slots_.Release();
    if (use_ != nullptr) {
      use_->QueueDelta(sim_->now(), -1);
      use_->CompleteOp(sim_->now(), cmd_start - arrived);
    }
    co_return OkStatus();
  }

  uint64_t bytes = uint64_t{command.nblocks} * params_.nvme_block_size;
  uint64_t flash_off = command.lba * params_.nvme_block_size;
  // P2P when the data buffer is not host DRAM: the SSD's DMA engine then
  // targets the co-processor's system-mapped window directly.
  bool p2p = fabric_->TypeOf(command.target.device()) != DeviceType::kHost;

  // Flash access latency overlaps across queued commands; sustained
  // bandwidth is enforced by the device's fabric link, whose per-direction
  // rates are the flash read/write ceilings (flash and wire pipeline).
  if (command.op == NvmeCommand::Op::kRead) {
    co_await Delay(params_.nvme_read_latency);
    co_await fabric_->Transfer(self_, command.target.device(), bytes,
                               /*initiator_rate=*/0.0, p2p);
    if (crashed_) {
      // The cut fired while this read was in flight.
      depth->Add(-1);
      queue_slots_.Release();
      if (use_ != nullptr) {
        use_->QueueDelta(sim_->now(), -1);
        use_->AddError(sim_->now());
      }
      co_return FailedPreconditionError("nvme device lost power");
    }
    std::memcpy(command.target.span().data(), flash_.data() + flash_off,
                bytes);
    bytes_read_ += bytes;
    static Counter* const read_bytes =
        MetricRegistry::Default().GetCounter("nvme.bytes_read");
    read_bytes->Increment(bytes);
  } else {
    co_await Delay(params_.nvme_write_latency);
    co_await fabric_->Transfer(command.target.device(), self_, bytes,
                               /*initiator_rate=*/0.0, p2p);
    if (crashed_) {
      // The cut fired while this write was in flight: its data never
      // reached the write buffer.
      depth->Add(-1);
      queue_slots_.Release();
      if (use_ != nullptr) {
        use_->QueueDelta(sim_->now(), -1);
        use_->AddError(sim_->now());
      }
      co_return FailedPreconditionError("nvme device lost power");
    }
    // While a crash fault is armed, remember the pre-image so a later cut
    // can roll this (still volatile) write back. armed() is a relaxed
    // load, so fault-free runs pay one branch here.
    if (powercut->armed() || tornwrite->armed()) {
      undo_.push_back(UndoEntry{
          flash_off,
          {flash_.data() + flash_off, flash_.data() + flash_off + bytes}});
    }
    if (powercut->ShouldFire()) {
      static Counter* const powercuts =
          MetricRegistry::Default().GetCounter("nvme.powercuts");
      powercuts->Increment();
      TRACE_INSTANT(sim_, "nvme", "fault.nvme.powercut");
      LosePower();
      depth->Add(-1);
      queue_slots_.Release();
      if (use_ != nullptr) {
        use_->QueueDelta(sim_->now(), -1);
        use_->AddError(sim_->now());
      }
      co_return FailedPreconditionError("injected nvme power cut");
    }
    if (tornwrite->ShouldFire()) {
      static Counter* const tornwrites =
          MetricRegistry::Default().GetCounter("nvme.tornwrites");
      tornwrites->Increment();
      TRACE_INSTANT(sim_, "nvme", "fault.nvme.tornwrite");
      // Lose everything volatile, then persist a deterministic
      // sector-aligned prefix of the interrupted command — the classic
      // torn write a checksummed commit record must catch.
      uint64_t sectors = bytes / 512;
      uint64_t h = 0xcbf29ce484222325ull;
      for (uint64_t v : {Faults().seed(), tornwrite->fires(), command.lba}) {
        for (int i = 0; i < 8; ++i) {
          h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
        }
      }
      uint64_t torn_bytes = (h % (sectors + 1)) * 512;
      LosePower();
      std::memcpy(flash_.data() + flash_off, command.target.span().data(),
                  torn_bytes);
      depth->Add(-1);
      queue_slots_.Release();
      if (use_ != nullptr) {
        use_->QueueDelta(sim_->now(), -1);
        use_->AddError(sim_->now());
      }
      co_return FailedPreconditionError("injected nvme torn write");
    }
    std::memcpy(flash_.data() + flash_off, command.target.span().data(),
                bytes);
    bytes_written_ += bytes;
    static Counter* const written_bytes =
        MetricRegistry::Default().GetCounter("nvme.bytes_written");
    written_bytes->Increment(bytes);
  }
  ++commands_completed_;
  cmd_ns->Record(sim_->now() - cmd_start);
  depth->Add(-1);
  queue_slots_.Release();
  if (use_ != nullptr) {
    use_->QueueDelta(sim_->now(), -1);
    use_->CompleteOp(sim_->now(), cmd_start - arrived);
  }
  co_return OkStatus();
}

namespace {

Task<void> ExecuteJoined(Task<Status> op, Status* out,
                         WaitGroup* wg) {
  Status status = co_await std::move(op);
  if (!status.ok() && out->ok()) {
    *out = status;
  }
  wg->Done();
}

}  // namespace

Task<Status> NvmeDevice::Submit(std::vector<NvmeCommand> commands,
                                bool coalesce, Processor* submitter_cpu,
                                TraceContext ctx) {
  if (commands.empty()) {
    co_return OkStatus();
  }
  for (const NvmeCommand& command : commands) {
    Status status = Validate(command);
    if (!status.ok()) {
      co_return status;
    }
  }

  static Counter* const batches =
      MetricRegistry::Default().GetCounter("nvme.batches");
  static Counter* const doorbell_count =
      MetricRegistry::Default().GetCounter("nvme.doorbells");
  static Counter* const interrupt_count =
      MetricRegistry::Default().GetCounter("nvme.interrupts");
  batches->Increment();
  // The batch span is the "device time" unit of stage attribution; the
  // per-command spans below nest under it in the causal tree.
  ScopedSpan span(sim_, "nvme", "nvme.batch", ctx);
  TraceContext batch_ctx = span.context();

  Status first_error;
  WaitGroup wg(sim_);
  uint64_t doorbells = coalesce ? 1 : commands.size();
  uint64_t interrupts = coalesce ? 1 : commands.size();

  // Doorbell MMIO writes from the submitting CPU.
  for (uint64_t i = 0; i < doorbells; ++i) {
    ++doorbells_;
    doorbell_count->Increment();
    if (submitter_cpu != nullptr) {
      co_await submitter_cpu->Compute(params_.nvme_doorbell_cost);
    }
  }

  for (NvmeCommand& command : commands) {
    wg.Add(1);
    Spawn(*sim_,
          ExecuteJoined(Execute(command, batch_ctx), &first_error, &wg));
  }
  co_await wg.Wait();

  // Completion interrupts serviced by the host CPU (§5: coalescing
  // "reduces the number of interrupts raised by ringing the doorbell").
  for (uint64_t i = 0; i < interrupts; ++i) {
    ++interrupts_;
    interrupt_count->Increment();
    co_await interrupt_cpu_->Compute(params_.nvme_interrupt_cost);
  }
  co_return first_error;
}

Task<Status> NvmeDevice::SubmitOne(NvmeCommand command,
                                   Processor* submitter_cpu) {
  std::vector<NvmeCommand> commands;
  commands.push_back(command);
  co_return co_await Submit(std::move(commands), /*coalesce=*/false,
                            submitter_cpu);
}

}  // namespace solros
