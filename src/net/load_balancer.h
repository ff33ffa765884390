// Pluggable forwarding policies for the shared listening socket (§4.4.3).
//
// "Solros provides a pluggable structure to enable packet forwarding rules
// for an address and port pair, which can either be connection-based (i.e.,
// for every new client connection) or content-based... In addition, a user
// can use other extra information, such as load on each co-processor, to
// make a forwarding decision."
#ifndef SOLROS_SRC_NET_LOAD_BALANCER_H_
#define SOLROS_SRC_NET_LOAD_BALANCER_H_

#include <cstdint>
#include <span>
#include <string_view>

namespace solros {

// One candidate co-processor listener on a shared port.
struct BalanceTarget {
  uint32_t dataplane = 0;       // data-plane OS id
  uint64_t active_conns = 0;    // currently assigned connections
  uint64_t total_assigned = 0;  // lifetime assignments
  // Live backlog the proxy refreshes at pick time: inbound bytes sent to
  // this data plane but not yet drained from its ring, plus the bytes its
  // plug still holds. Connection counts age; this is what the target's
  // service loop actually has queued right now.
  uint64_t queue_depth = 0;
};

class ForwardingPolicy {
 public:
  virtual ~ForwardingPolicy() = default;
  // Picks an index into `targets` (non-empty) for a new connection from
  // `client_addr` to `port`.
  virtual size_t Pick(uint32_t client_addr, uint16_t port,
                      std::span<const BalanceTarget> targets) = 0;
  virtual std::string_view name() const = 0;
};

// Connection-based round robin (the policy implemented in the paper's
// prototype, §5).
class RoundRobinPolicy : public ForwardingPolicy {
 public:
  size_t Pick(uint32_t client_addr, uint16_t port,
              std::span<const BalanceTarget> targets) override {
    return next_++ % targets.size();
  }
  std::string_view name() const override { return "round-robin"; }

 private:
  size_t next_ = 0;
};

// Load-aware: least active connections.
class LeastLoadedPolicy : public ForwardingPolicy {
 public:
  size_t Pick(uint32_t client_addr, uint16_t port,
              std::span<const BalanceTarget> targets) override {
    size_t best = 0;
    for (size_t i = 1; i < targets.size(); ++i) {
      if (targets[i].active_conns < targets[best].active_conns) {
        best = i;
      }
    }
    return best;
  }
  std::string_view name() const override { return "least-loaded"; }
};

// Load-aware on the *live* depth signal: least queued inbound bytes at
// pick time, connection count as the tie-break. Unlike LeastLoadedPolicy,
// a target whose long-lived connections have gone idle is preferred over
// one with few but hot connections — "load on each co-processor" (§4.4.3)
// measured as what its service loop has queued right now.
class LiveLeastLoadedPolicy : public ForwardingPolicy {
 public:
  size_t Pick(uint32_t client_addr, uint16_t port,
              std::span<const BalanceTarget> targets) override {
    size_t best = 0;
    for (size_t i = 1; i < targets.size(); ++i) {
      if (targets[i].queue_depth < targets[best].queue_depth ||
          (targets[i].queue_depth == targets[best].queue_depth &&
           targets[i].active_conns < targets[best].active_conns)) {
        best = i;
      }
    }
    return best;
  }
  std::string_view name() const override { return "live-least-loaded"; }
};

// Content-based: clients stick to a co-processor by address hash (the
// paper's example: per-key routing for a key/value store).
class ContentHashPolicy : public ForwardingPolicy {
 public:
  size_t Pick(uint32_t client_addr, uint16_t port,
              std::span<const BalanceTarget> targets) override {
    uint64_t h = (uint64_t{client_addr} << 16) | port;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<size_t>(h % targets.size());
  }
  std::string_view name() const override { return "content-hash"; }
};

}  // namespace solros

#endif  // SOLROS_SRC_NET_LOAD_BALANCER_H_
