// Time-shared resources: FIFO servers and bandwidth links.
//
// These model the hardware queueing behaviour that matters for the paper's
// numbers: a DMA channel serves one transfer at a time, a PCIe link carries
// bytes at a fixed rate, an SSD's flash backend sustains a bounded rate.
// Service is FIFO in arrival (await) order — adequate because no model in
// this repository preempts in-flight transfers.
#ifndef SOLROS_SRC_SIM_RESOURCE_H_
#define SOLROS_SRC_SIM_RESOURCE_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/base/metrics.h"
#include "src/base/units.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {

// k identical FIFO servers (e.g. the 8 DMA channels of a Xeon or Xeon Phi;
// k = 1 for a ring's control line or a link). `Use(d)` reserves the
// earliest-available server for `d` ns starting at max(now, that server's
// previous reservation end) and resumes the caller when its service
// completes.
class MultiServerResource {
 public:
  MultiServerResource(Simulator* sim, size_t servers, std::string name = "")
      : sim_(sim), busy_until_(servers, 0), name_(std::move(name)) {
    DCHECK(sim != nullptr);
    CHECK_GT(servers, 0u);
  }
  MultiServerResource(const MultiServerResource&) = delete;
  MultiServerResource& operator=(const MultiServerResource&) = delete;

  struct UseAwaiter {
    MultiServerResource* resource;
    Nanos duration;
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> handle) {
      Simulator* sim = resource->sim_;
      size_t best = 0;
      for (size_t i = 1; i < resource->busy_until_.size(); ++i) {
        if (resource->busy_until_[i] < resource->busy_until_[best]) {
          best = i;
        }
      }
      SimTime start = std::max(sim->now(), resource->busy_until_[best]);
      SimTime end = start + duration;
      resource->busy_until_[best] = end;
      resource->busy_time_ += duration;
      ++resource->uses_;
      if (resource->use_ != nullptr) {
        resource->use_->RecordUse(sim->now(), start, end);
      }
      sim->ResumeAt(end, handle);
    }
    void await_resume() const noexcept {}
  };

  // co_await resource.Use(duration);
  UseAwaiter Use(Nanos duration) { return UseAwaiter{this, duration}; }

  // Optional USE telemetry target; every reservation is reported as one
  // busy interval (with its queueing wait). Register it with capacity ==
  // server_count() so utilization is normalized per server. Null = off.
  void set_use_series(UseSeries* use) { use_ = use; }

  size_t server_count() const { return busy_until_.size(); }
  Nanos total_busy_time() const { return busy_time_; }
  uint64_t use_count() const { return uses_; }
  const std::string& name() const { return name_; }

 private:
  Simulator* sim_;
  std::vector<SimTime> busy_until_;
  Nanos busy_time_ = 0;
  uint64_t uses_ = 0;
  std::string name_;
  UseSeries* use_ = nullptr;
};

// A fixed-rate link. Transfer(bytes) occupies the link for bytes/rate and
// resumes when the last byte has passed; an optional fixed per-transfer
// latency (propagation + protocol overhead) is added after the transfer.
class BandwidthResource {
 public:
  BandwidthResource(Simulator* sim, double bytes_per_sec, Nanos latency = 0,
                    std::string name = "")
      : server_(sim, 1, std::move(name)),
        rate_(bytes_per_sec),
        latency_(latency) {
    CHECK_GT(bytes_per_sec, 0.0);
  }

  Task<void> Transfer(uint64_t bytes) {
    co_await server_.Use(TransferTime(bytes, rate_));
    if (latency_ != 0) {
      co_await Delay(latency_);
    }
    bytes_moved_ += bytes;
  }

  // Occupancy time for a transfer of `bytes`, without performing it.
  Nanos TimeFor(uint64_t bytes) const {
    return TransferTime(bytes, rate_) + latency_;
  }

  double rate() const { return rate_; }
  Nanos latency() const { return latency_; }
  uint64_t bytes_moved() const { return bytes_moved_; }
  Nanos total_busy_time() const { return server_.total_busy_time(); }
  void set_use_series(UseSeries* use) { server_.set_use_series(use); }

 private:
  MultiServerResource server_;
  double rate_;
  Nanos latency_;
  uint64_t bytes_moved_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_SIM_RESOURCE_H_
