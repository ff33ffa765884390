// Data-plane network stub (§4.4.1–4.4.2).
//
// A thin INET-family shim on the co-processor: socket calls become RPCs to
// the TCP proxy; inbound events (new connections, data arrival) stream over
// the inbound ring and are routed to per-socket event queues by a single
// dispatcher task — "this design alleviates contention on the inbound ring
// buffer by using a single-thread event dispatcher and maximizes parallel
// access ... from multiple threads" (§4.4.2). Outbound data is enqueued on
// the outbound ring (master at the co-processor) for the host to pull.
#ifndef SOLROS_SRC_NET_NET_STUB_H_
#define SOLROS_SRC_NET_NET_STUB_H_

#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/id_table.h"
#include "src/base/metrics.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/net/net_frame.h"
#include "src/net/net_options.h"
#include "src/net/net_plug.h"
#include "src/net/server_api.h"
#include "src/rpc/messages.h"
#include "src/rpc/rpc.h"
#include "src/transport/sim_ring.h"

namespace solros {

class NetStub : public ServerSocketApi {
 public:
  NetStub(Simulator* sim, const HwParams& params, Processor* phi_cpu,
          SimRing* rpc_request, SimRing* rpc_response, SimRing* inbound,
          SimRing* outbound, const NetPathOptions& net_options = {});

  // -- ServerSocketApi --------------------------------------------------------
  Task<Result<int64_t>> Listen(uint16_t port, int backlog) override;
  Task<Result<int64_t>> Accept(int64_t listener) override;
  Task<Result<std::vector<uint8_t>>> Recv(int64_t sock) override;
  Task<Status> Send(int64_t sock, std::span<const uint8_t> data) override;
  Task<Status> Close(int64_t sock) override;

  uint64_t events_dispatched() const { return events_; }
  // Messages handed to per-socket recv queues by this stub instance (one
  // per client message, however the events were batched on the ring) —
  // the per-phi fairness signal fig19 reports.
  uint64_t messages_delivered() const { return messages_delivered_; }

  // Retry/timeout policy applied while fault injection is armed. Net RPCs
  // mutate connection state, so only a transport timeout (outcome unknown,
  // at-least-once) is retried; a replayed kSocket that did reach the proxy
  // may leave an orphaned proxy-side handle, which Close() later reaps.
  void set_retry_options(const RpcRetryOptions& options) {
    retry_ = options;
  }
  const RpcRetryOptions& retry_options() const { return retry_; }

 private:
  // One received message plus the trace context it rode in with, so the
  // application-side Recv knows which trace its eventual reply belongs to.
  // Deliberately NOT an aggregate: GCC 12 miscompiles aggregate coroutine
  // by-value parameters (the Channel::Send frame copy aliases the caller's
  // temporary, whose destruction then frees the received payload).
  struct RecvItem {
    RecvItem() = default;
    RecvItem(std::vector<uint8_t> d, uint64_t trace, uint64_t parent)
        : data(std::move(d)), trace_id(trace), parent_span(parent) {}
    std::vector<uint8_t> data;
    uint64_t trace_id = 0;
    uint64_t parent_span = 0;
  };
  static_assert(!std::is_aggregate_v<RecvItem>,
                "GCC 12 miscompiles aggregate coroutine by-value parameters");
  // A connected socket, created when its kAccepted event arrives. Close
  // marks it closed but keeps it: a task parked in Recv on its queue
  // still runs on the queue after the close wakes it.
  struct ConnSocket {
    explicit ConnSocket(Simulator* sim) : recv_queue(sim, 0) {}
    Channel<RecvItem> recv_queue;
    // Context of the last message Recv returned; the next Send on this
    // socket attributes its reply to it (request/response protocols).
    uint64_t reply_trace_id = 0;
    uint64_t reply_parent = 0;
    bool closed = false;
  };
  // A listening socket, created by Listen; kept after Close likewise.
  struct ListenSocket {
    explicit ListenSocket(Simulator* sim) : accept_queue(sim, 0) {}
    Channel<int64_t> accept_queue;
    bool closed = false;
  };

  static Task<void> EventDispatcher(NetStub* self);
  // Delivers one inbound event: data to its socket's recv queue, a new
  // connection to its listener's accept queue, a peer close as end of
  // stream. An event for a socket this stub has closed is dropped.
  // `frame` aliases the record the dispatcher holds; every event of a
  // kBatch record shares the record's dequeue `stamp`.
  Task<void> DispatchEvent(NetFrameView frame,
                           std::optional<SimRing::DequeueStamp> stamp);
  // The open socket or listener for `handle`; null when this stub never
  // created it or it was closed.
  ConnSocket* FindSocket(int64_t handle);
  ListenSocket* FindListener(int64_t handle);

  // rpc_.Call with the stub's timeout/retry policy (see set_retry_options).
  Task<Result<NetResponse>> Call(NetRequest request);

  Simulator* sim_;
  HwParams params_;
  Processor* phi_cpu_;
  RpcClient<NetRequest, NetResponse> rpc_;
  RpcRetryOptions retry_;
  SimRing* inbound_;
  SimRing* outbound_;
  // Send side of the outbound ring (DESIGN.md §5.5); one ring push per
  // send when the plug window is zero.
  std::unique_ptr<NetPlug> plug_;
  // Both keyed by the proxy's handles. Only handles the proxy issued are
  // inserted; a handle from the application is only looked up.
  IdTable<int64_t, ConnSocket> sockets_;
  IdTable<int64_t, ListenSocket> listeners_;
  uint64_t events_ = 0;
  uint64_t messages_delivered_ = 0;
  // Process counters, resolved once instead of per event/call (see
  // TcpProxy; same hoisting).
  Counter* const c_events_;
  Counter* const c_retries_;
  Counter* const c_recvs_;
  Counter* const c_sends_;
  Counter* const c_send_bytes_;
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_NET_STUB_H_
