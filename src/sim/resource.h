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
#include <functional>
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
// completes. The servers are identical and simulated time never goes
// backwards, so a server whose reservation has ended is interchangeable with
// every other idle one: only the busy servers' reservation ends are kept, as
// a min-heap, beside a count of idle servers. A pick costs O(log busy), not
// O(log k), which matters for the Phi's 244 hardware threads, few of which
// are busy at once.
class MultiServerResource {
 public:
  MultiServerResource(Simulator* sim, size_t servers)
      : sim_(sim), idle_(servers) {
    DCHECK(sim != nullptr);
    CHECK_GT(servers, 0u);
    busy_until_.reserve(servers);
  }
  MultiServerResource(const MultiServerResource&) = delete;
  MultiServerResource& operator=(const MultiServerResource&) = delete;

  // Reserves the earliest-available server for `duration` from max(now,
  // its previous reservation end) and returns the end of that service.
  SimTime Reserve(Nanos duration) {
    const SimTime now = sim_->now();
    while (!busy_until_.empty() && busy_until_.front() <= now) {
      std::pop_heap(busy_until_.begin(), busy_until_.end(), std::greater<>());
      busy_until_.pop_back();
      ++idle_;
    }
    SimTime start = now;
    if (idle_ > 0) {
      --idle_;
    } else {
      std::pop_heap(busy_until_.begin(), busy_until_.end(), std::greater<>());
      start = busy_until_.back();
      busy_until_.pop_back();
    }
    const SimTime end = start + duration;
    busy_until_.push_back(end);
    std::push_heap(busy_until_.begin(), busy_until_.end(), std::greater<>());
    busy_time_ += duration;
    ++uses_;
    if (use_ != nullptr) {
      use_->RecordUse(now, start, end);
    }
    return end;
  }

  struct UseAwaiter {
    MultiServerResource* resource;
    Nanos duration;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      resource->sim_->ResumeAt(resource->Reserve(duration), handle);
    }
    void await_resume() const noexcept {}
  };

  // co_await resource.Use(duration);
  UseAwaiter Use(Nanos duration) { return UseAwaiter{this, duration}; }

  // Optional USE telemetry target; every reservation is reported as one
  // busy interval (with its queueing wait). Register it with capacity ==
  // server_count() so utilization is normalized per server. Null = off.
  void set_use_series(UseSeries* use) { use_ = use; }

  size_t server_count() const { return busy_until_.size() + idle_; }
  Nanos total_busy_time() const { return busy_time_; }
  uint64_t use_count() const { return uses_; }

 private:
  Simulator* sim_;
  size_t idle_;  // servers whose last reservation has been retired
  // Ends of the reservations not yet retired (every end after now is here),
  // a min-heap on std::greater; with idle_, it sums to the pool size.
  std::vector<SimTime> busy_until_;
  Nanos busy_time_ = 0;
  uint64_t uses_ = 0;
  UseSeries* use_ = nullptr;
};

// A fixed-rate link. Transfer(bytes) occupies the link for bytes/rate and
// resumes when the last byte has passed; an optional fixed per-transfer
// latency (propagation + protocol overhead) is added after the transfer.
class BandwidthResource {
 public:
  BandwidthResource(Simulator* sim, double bytes_per_sec, Nanos latency = 0)
      : server_(sim, 1), rate_(bytes_per_sec), latency_(latency) {
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
