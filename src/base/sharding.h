// Partitioning keys for the sharded control plane.
//
// The control-plane proxies (FsProxy, TcpProxy) can run as N independent
// shards, each pinned to a dedicated host core with isolated state (§4's
// "applications should control sharing", applied to the control plane
// itself: partition first, share only what must be shared). These helpers
// define the partition keys and the shard count; stubs and proxies must
// agree on them, so they live here, depending only on src/base.
//
//   inode range   namespace/metadata ops on an inode: consecutive runs of
//                 64 inodes map to one shard, so a directory's worth of
//                 files tends to stay together.
//   block group   data ops: the file's offset space is striped round-robin
//                 across shards in kShardStripeBlocks-block groups, mixed
//                 with the inode so different files start on different
//                 shards. Round-robin (not hashed) striping makes the load
//                 split exact for sequential and strided workloads. A data
//                 request never crosses a stripe (OwnedRangeEnd), so the
//                 stripe's shard is the only one that caches its blocks.
//   path hash     namespace ops that carry only a path (FNV-1a).
//   connection    TCP connections: a 64-bit mix of the wire connection id.
//
// Every helper degenerates to shard 0 when `shards <= 1`, so unsharded
// configurations take the exact same code path.
#ifndef SOLROS_SRC_BASE_SHARDING_H_
#define SOLROS_SRC_BASE_SHARDING_H_

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "src/base/status.h"

namespace solros {

// Most control-plane shards a machine runs (each is a dedicated host core).
inline constexpr int kMaxProxyShards = 16;

// SOLROS_PROXY_SHARDS as a shard count: 1 when unset or empty, otherwise a
// decimal integer in [1, kMaxProxyShards]. Anything else is an error that
// names the bad value.
inline Result<int> ProxyShardsFromEnv() {
  const char* env = std::getenv("SOLROS_PROXY_SHARDS");
  std::string_view value = env != nullptr ? env : "";
  if (value.empty()) {
    return 1;
  }
  int shards = 0;
  const char* end = value.data() + value.size();
  auto [parsed_end, ec] = std::from_chars(value.data(), end, shards);
  if (ec != std::errc() || parsed_end != end || shards < 1 ||
      shards > kMaxProxyShards) {
    return InvalidArgumentError("SOLROS_PROXY_SHARDS: bad value \"" +
                                std::string(value) + "\" (want a count in 1.." +
                                std::to_string(kMaxProxyShards) + ")");
  }
  return shards;
}

// Stripe width for block-group routing, in file-system blocks (64 blocks =
// 256 KiB at 4 KiB blocks): as wide as the largest readahead window,
// narrow enough that a multi-MiB file spreads over every shard.
inline constexpr uint64_t kShardStripeBlocks = 64;

// Consecutive inodes per range before the owner advances.
inline constexpr uint64_t kShardInodeRange = 64;

// Owner of an inode's metadata (stat-by-ino, truncate, fsync routing).
inline constexpr int ShardOfInode(uint64_t ino, int shards) {
  if (shards <= 1) {
    return 0;
  }
  return static_cast<int>((ino / kShardInodeRange) %
                          static_cast<uint64_t>(shards));
}

// Owner of a file's data at `offset` (reads/writes). `block_size` is the
// fs block size in bytes. The inode term staggers file starts across
// shards; the offset term round-robins the file's groups.
inline constexpr int ShardOfFileRange(uint64_t ino, uint64_t offset,
                                      uint32_t block_size, int shards) {
  if (shards <= 1) {
    return 0;
  }
  uint64_t group = offset / (kShardStripeBlocks * uint64_t{block_size});
  return static_cast<int>((ino + group) % static_cast<uint64_t>(shards));
}

// End (exclusive) of the byte range owned by the shard serving `offset`:
// the end of its stripe, or unbounded when `shards <= 1`. A data request
// that stays below it has exactly one owner, so each cached block lives in
// one shard's cache.
inline constexpr uint64_t OwnedRangeEnd(uint64_t offset, uint32_t block_size,
                                        int shards) {
  if (shards <= 1) {
    return std::numeric_limits<uint64_t>::max();
  }
  uint64_t stripe = kShardStripeBlocks * uint64_t{block_size};
  return (offset / stripe + 1) * stripe;
}

// Owner of a path-only namespace op (create/unlink/mkdir/...): FNV-1a.
inline int ShardOfPath(std::string_view path, int shards) {
  if (shards <= 1) {
    return 0;
  }
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : path) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return static_cast<int>(h % static_cast<uint64_t>(shards));
}

// Owner of a TCP connection: the TcpProxy event-loop shard that serves it.
inline constexpr int ShardOfConnection(uint64_t conn_id, int shards) {
  if (shards <= 1) {
    return 0;
  }
  uint64_t h = conn_id;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<int>(h % static_cast<uint64_t>(shards));
}

// Display label for shard k of `service`: the bare service name when the
// service is unsharded, "<service>[k]" otherwise — the bottleneck analyzer
// and solros_top group on the "name[k]" pattern.
inline std::string ShardLabel(std::string_view service, int k, int shards) {
  std::string label(service);
  if (shards > 1) {
    label.append("[").append(std::to_string(k)).append("]");
  }
  return label;
}

}  // namespace solros

#endif  // SOLROS_SRC_BASE_SHARDING_H_
