// DirectServer: the direct (non-Solros) server stacks. Both terminate TCP
// on a single processor; its Config says which one runs the stack and
// whether frames take an extra bridged hop over PCIe:
//
//  * Host — `stack_cpu` is a host processor, no bridge (the paper's "Host"
//    line, the latency/throughput upper bound);
//  * Phi-Linux — `stack_cpu` is the co-processor, bridged by a host
//    `bridge_cpu`: "we configured a bridge in our server so our client
//    machine can directly access a Xeon Phi with a designated IP address"
//    (§6). The host forwards every frame over PCIe and the full TCP stack
//    runs on slow co-processor cores — the co-processor-centric baseline of
//    Fig. 1(b), with one softirq queue (`single_rx_queue`).
#ifndef SOLROS_SRC_NET_DIRECT_SERVER_H_
#define SOLROS_SRC_NET_DIRECT_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/hw/fabric.h"
#include "src/hw/params.h"
#include "src/hw/processor.h"
#include "src/net/ethernet.h"
#include "src/net/server_api.h"
#include "src/sim/resource.h"
#include "src/sim/sync.h"

namespace solros {

class DirectServer : public ServerPort, public ServerSocketApi {
 public:
  struct Config {
    Processor* stack_cpu = nullptr;  // runs the TCP stack + the app
    // Bridged path (Phi-Linux): frames are relayed by this host CPU and
    // cross the PCIe fabric to `stack_device`.
    Processor* bridge_cpu = nullptr;
    DeviceId stack_device;            // device hosting the stack
    DeviceId bridge_device;           // host side of the bridge
    // Stock Phi-Linux funnels receive processing through one softirq
    // context; that single queue is where Fig. 1(b)'s long tail comes
    // from. Host stacks use RSS (parallel queues).
    bool single_rx_queue = false;
  };

  DirectServer(Simulator* sim, PcieFabric* fabric, const HwParams& params,
               EthernetFabric* ethernet, const Config& config);

  // -- ServerSocketApi (the application side) --------------------------------
  Task<Result<int64_t>> Listen(uint16_t port, int backlog) override;
  Task<Result<int64_t>> Accept(int64_t listener) override;
  Task<Result<std::vector<uint8_t>>> Recv(int64_t sock) override;
  Task<Status> Send(int64_t sock, std::span<const uint8_t> data) override;
  Task<Status> Close(int64_t sock) override;

  // -- ServerPort (the wire side) ---------------------------------------------
  Task<Status> OnConnect(uint64_t conn_id, uint16_t port,
                         uint32_t client_addr) override;
  Task<void> OnClientData(uint64_t conn_id, std::vector<uint8_t> data,
                          TraceContext ctx) override;
  Task<void> OnClientClose(uint64_t conn_id) override;

 private:
  // Close keeps a listener, as it keeps a socket: a task parked in Accept
  // still runs on its queue after the close wakes it.
  struct Listener {
    uint16_t port;
    std::unique_ptr<Channel<int64_t>> accept_queue;
    bool closed = false;
  };
  struct Socket {
    uint64_t conn_id = 0;
    std::unique_ptr<Channel<RecvItem>> recv_queue;
    bool open = true;
    // Closed by the application. Close keeps the socket: a task parked in
    // Recv still runs on its queue after the close wakes it.
    bool closed = false;
    // Context of the last message Recv returned; the next Send replies to it.
    uint64_t reply_trace_id = 0;
    uint64_t reply_parent = 0;
  };

  // Closes a connected socket from the server side and resets its peer.
  void CloseSocket(Socket& socket);
  // Inbound/outbound hop costs for this configuration.
  Task<void> InboundStack(uint64_t bytes);
  Task<void> OutboundStack(uint64_t bytes);

  Simulator* sim_;
  PcieFabric* fabric_;
  HwParams params_;
  EthernetFabric* ethernet_;
  Config config_;
  MultiServerResource rx_queue_;
  int64_t next_handle_ = 1;
  std::map<int64_t, Listener> listeners_;
  std::map<uint16_t, int64_t> port_to_listener_;
  std::map<int64_t, Socket> sockets_;
  std::map<uint64_t, int64_t> conn_to_sock_;
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_DIRECT_SERVER_H_
