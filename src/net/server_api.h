// Server-side socket API shared by all three server configurations.
//
// An application (echo server, key-value store, image-search frontend) is
// written once against ServerSocketApi and runs unchanged on:
//  * NetStub      — Solros data-plane stub on a co-processor (§4.4)
//  * DirectServer — in its Phi-Linux configuration, the stock
//    co-processor-centric TCP stack on the Phi; in its Host configuration,
//    a host-resident server (the latency upper bound)
//
// Message-granular semantics: Recv returns one message sent by the peer
// (byte-stream reassembly is out of scope, DESIGN.md §7).
#ifndef SOLROS_SRC_NET_SERVER_API_H_
#define SOLROS_SRC_NET_SERVER_API_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/sim/task.h"

namespace solros {

// One received message plus the trace context it rode in with, so a
// server's Recv knows which trace its eventual reply belongs to.
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

class ServerSocketApi {
 public:
  virtual ~ServerSocketApi() = default;

  // socket() + bind() + listen() in one call; returns the listener handle.
  virtual Task<Result<int64_t>> Listen(uint16_t port, int backlog) = 0;
  // Waits for a client connection; returns a connected socket handle.
  virtual Task<Result<int64_t>> Accept(int64_t listener) = 0;
  // Waits for the next message from the peer; kConnectionReset after close.
  virtual Task<Result<std::vector<uint8_t>>> Recv(int64_t sock) = 0;
  virtual Task<Status> Send(int64_t sock, std::span<const uint8_t> data) = 0;
  // Closes a connected socket or a listener. Closing a listener frees its
  // port, resets the connections not yet accepted and wakes a parked
  // Accept with kConnectionReset.
  virtual Task<Status> Close(int64_t sock) = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_SERVER_API_H_
