// Request/response RPC over a SimRing pair.
//
// The data-plane stub is the client; the control-plane proxy is the server
// (§4: "the data-plane OS is a minimal RPC stub that calls several OS
// services present in the control-plane OS"). Master ring placement follows
// §4.3.1: both RPC rings are created at the co-processor ("RPC operations
// by a co-processor are local memory operations; meanwhile, the host pulls
// requests and pushes their corresponding results across the PCIe").
//
// Multiple outstanding calls are supported: each call carries a tag; a pump
// task on the client dispatches responses to per-tag waiters, and the
// server pump spawns one handler task per request.
#ifndef SOLROS_SRC_RPC_RPC_H_
#define SOLROS_SRC_RPC_RPC_H_

#include <concepts>
#include <functional>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "src/base/fault.h"
#include "src/base/logging.h"
#include "src/base/units.h"
#include "src/base/metrics.h"
#include "src/base/status.h"
#include "src/rpc/messages.h"
#include "src/sim/retry.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"
#include "src/transport/sim_ring.h"

namespace solros {

// Wire messages that carry a causal trace context (FsRequest/FsResponse,
// NetRequest/NetResponse). The RPC layer stays generic: messages without
// these fields simply skip the queue-wait spans and context echo.
template <typename T>
concept HasTraceContext = requires(T t) {
  { t.trace_id } -> std::convertible_to<uint64_t>;
  { t.parent_span } -> std::convertible_to<uint64_t>;
};

// The data-plane stubs' bounded retry (src/sim/retry.h) and per-attempt
// call timeout, both engaged only while fault injection is armed.
inline constexpr RetryPolicy kRpcRetry{.max_attempts = 4,
                                       .backoff = Microseconds(20)};
inline constexpr Nanos kRpcCallTimeout = Milliseconds(2);

// Client end: Call() serializes the request, sends it on `request_ring`,
// and suspends until the matching response arrives on `response_ring`.
template <typename Request, typename Response>
class RpcClient {
 public:
  RpcClient(Simulator* sim, SimRing* request_ring, SimRing* response_ring)
      : sim_(sim),
        request_ring_(request_ring),
        response_ring_(response_ring) {}

  // Starts the response pump; call once after construction.
  void Start() { Spawn(*sim_, Pump(this)); }

  void Stop() { response_ring_->Close(); }

  // With `timeout` > 0 the call resolves kTimedOut once that much sim time
  // passes without a response (the tag stays retired, so a late response is
  // counted as stale and dropped). Callers pass a timeout only when fault
  // injection is armed: an armed run may drop frames, and a pending timer
  // at shutdown would perturb fault-free schedules.
  Task<Result<Response>> Call(Request request, Nanos timeout = 0) {
    uint64_t tag = next_tag_++;
    request.tag = tag;
    Waiter waiter(sim_);
    waiters_[tag] = &waiter;
    // The ring copies the frame straight from `request` into its slot.
    const FrameTrailer trailer = SealFrame(request);
    static FaultPoint* const corrupt =
        Faults().GetPoint("rpc.corrupt.request");
    if (corrupt->ShouldFire()) {
      static Counter* const corrupted =
          MetricRegistry::Default().GetCounter("rpc.corrupted_requests");
      corrupted->Increment();
      TRACE_INSTANT(sim_, "rpc", "fault.rpc.corrupt_request");
      CorruptFrame(&request);
    }
    Status sent =
        co_await request_ring_->Send(PodBytes(request), trailer.bytes());
    if (!sent.ok()) {
      waiters_.erase(tag);
      co_return sent;
    }
    if (timeout > 0) {
      Spawn(*sim_, TimeoutKick(this, tag, timeout));
    }
    while (!waiter.ready) {
      co_await waiter.cond.Wait();
    }
    waiters_.erase(tag);
    if (waiter.timed_out) {
      co_return TimedOutError("rpc call timed out");
    }
    co_return waiter.response;
  }

 private:
  struct Waiter {
    explicit Waiter(Simulator* sim) : cond(sim) {}
    Condition cond;
    Response response;
    bool ready = false;
    bool timed_out = false;
  };

  // Looks the waiter up by tag at fire time: the Waiter lives on Call's
  // coroutine frame, so holding a pointer across the delay would dangle if
  // the response won the race.
  static Task<void> TimeoutKick(RpcClient* self, uint64_t tag,
                                Nanos timeout) {
    co_await Delay(timeout);
    auto it = self->waiters_.find(tag);
    if (it == self->waiters_.end() || it->second->ready) {
      co_return;
    }
    static Counter* const timeouts =
        MetricRegistry::Default().GetCounter("rpc.call_timeouts");
    timeouts->Increment();
    TRACE_INSTANT(self->sim_, "rpc", "rpc.call_timeout");
    it->second->timed_out = true;
    it->second->ready = true;
    it->second->cond.NotifyAll();
  }

  static Task<void> Pump(RpcClient* self) {
    std::vector<uint8_t> message;  // reused: each Receive overwrites it
    while (true) {
      Status received = co_await self->response_ring_->Receive(&message);
      if (!received.ok()) {
        break;  // ring closed
      }
      std::optional<Response> response = DecodeFrame<Response>(message);
      if (!response.has_value()) {
        static Counter* const dropped = MetricRegistry::Default().GetCounter(
            "rpc.corrupt_responses_dropped");
        dropped->Increment();
        TRACE_INSTANT(self->sim_, "rpc", "rpc.corrupt_response_dropped");
        continue;  // retry layer recovers via timeout
      }
      // Retroactive queue-wait span: how long the decoded response sat
      // ready in the ring before this pump claimed it (the ring only keeps
      // stamps while a tracer is bound; untraced responses carry id 0).
      if constexpr (HasTraceContext<Response>) {
        Tracer* tracer = self->sim_->tracer();
        if (tracer != nullptr && response->trace_id != 0) {
          auto stamp = self->response_ring_->last_dequeue_stamp();
          if (stamp.has_value()) {
            tracer->RecordSpan(
                "ring", "rpc.queue.resp", stamp->ready_at, stamp->dequeue_at,
                TraceContext{response->trace_id, response->parent_span});
          }
        }
      }
      auto it = self->waiters_.find(response->tag);
      if (it == self->waiters_.end()) {
        // Usually a response that lost the race with its call's timeout.
        static Counter* const stale =
            MetricRegistry::Default().GetCounter("rpc.stale_responses");
        stale->Increment();
        LOG(DEBUG) << "rpc response with unknown tag " << response->tag;
        continue;
      }
      it->second->response = *response;
      it->second->ready = true;
      it->second->cond.NotifyAll();
    }
  }

  Simulator* sim_;
  SimRing* request_ring_;
  SimRing* response_ring_;
  uint64_t next_tag_ = 1;
  // In-flight calls by tag. Nodes come from a pool that keeps freed ones,
  // so once warm a call allocates nothing.
  std::pmr::unsynchronized_pool_resource waiter_pool_;
  std::pmr::unordered_map<uint64_t, Waiter*> waiters_{&waiter_pool_};
};

// Server end: Serve() pumps requests and spawns `handler` per request; the
// handler returns the response (with .tag already echoed by this layer).
template <typename Request, typename Response>
class RpcServer {
 public:
  // The handler may suspend (it runs as its own task).
  using Handler = std::function<Task<Response>(Request)>;

  RpcServer(Simulator* sim, SimRing* request_ring, SimRing* response_ring,
            Handler handler)
      : sim_(sim),
        request_ring_(request_ring),
        response_ring_(response_ring),
        handler_(std::move(handler)) {}

  void Start() { Spawn(*sim_, Pump(this)); }

  void Stop() { request_ring_->Close(); }

  uint64_t requests_served() const { return served_; }

 private:
  static Task<void> HandleOne(RpcServer* self, Request request) {
    uint64_t tag = request.tag;
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
    if constexpr (HasTraceContext<Request>) {
      trace_id = request.trace_id;
      parent_span = request.parent_span;
    }
    Response response = co_await self->handler_(std::move(request));
    response.tag = tag;
    // Echo the trace context so the client pump can attribute the
    // response's ring queue wait to the right request.
    if constexpr (HasTraceContext<Response>) {
      response.trace_id = trace_id;
      response.parent_span = parent_span;
    }
    static FaultPoint* const drop = Faults().GetPoint("rpc.drop.response");
    if (drop->ShouldFire()) {
      static Counter* const drops =
          MetricRegistry::Default().GetCounter("rpc.dropped_responses");
      drops->Increment();
      TRACE_INSTANT(self->sim_, "rpc", "fault.rpc.drop_response");
      ++self->served_;
      co_return;  // the client recovers via its call timeout
    }
    const FrameTrailer trailer = SealFrame(response);
    static FaultPoint* const corrupt =
        Faults().GetPoint("rpc.corrupt.response");
    if (corrupt->ShouldFire()) {
      static Counter* const corrupted =
          MetricRegistry::Default().GetCounter("rpc.corrupted_responses");
      corrupted->Increment();
      TRACE_INSTANT(self->sim_, "rpc", "fault.rpc.corrupt_response");
      CorruptFrame(&response);
    }
    Status sent = co_await self->response_ring_->Send(PodBytes(response),
                                                      trailer.bytes());
    if (!sent.ok()) {
      LOG(WARNING) << "rpc response send failed: " << sent.ToString();
    }
    ++self->served_;
  }

  static Task<void> Pump(RpcServer* self) {
    std::vector<uint8_t> message;  // reused: each Receive overwrites it
    while (true) {
      Status received = co_await self->request_ring_->Receive(&message);
      if (!received.ok()) {
        break;  // ring closed
      }
      static FaultPoint* const drop = Faults().GetPoint("rpc.drop.request");
      if (drop->ShouldFire()) {
        static Counter* const drops =
            MetricRegistry::Default().GetCounter("rpc.dropped_requests");
        drops->Increment();
        TRACE_INSTANT(self->sim_, "rpc", "fault.rpc.drop_request");
        continue;
      }
      std::optional<Request> request = DecodeFrame<Request>(message);
      if (!request.has_value()) {
        static Counter* const dropped = MetricRegistry::Default().GetCounter(
            "rpc.corrupt_requests_dropped");
        dropped->Increment();
        TRACE_INSTANT(self->sim_, "rpc", "rpc.corrupt_request_dropped");
        continue;
      }
      // Retroactive queue-wait span (see the client pump's counterpart).
      if constexpr (HasTraceContext<Request>) {
        Tracer* tracer = self->sim_->tracer();
        if (tracer != nullptr && request->trace_id != 0) {
          auto stamp = self->request_ring_->last_dequeue_stamp();
          if (stamp.has_value()) {
            tracer->RecordSpan(
                "ring", "rpc.queue.req", stamp->ready_at, stamp->dequeue_at,
                TraceContext{request->trace_id, request->parent_span});
          }
        }
      }
      Spawn(*self->sim_, HandleOne(self, std::move(*request)));
    }
  }

  Simulator* sim_;
  SimRing* request_ring_;
  SimRing* response_ring_;
  Handler handler_;
  uint64_t served_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_RPC_RPC_H_
