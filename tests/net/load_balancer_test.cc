// Forwarding-policy unit tests (§4.4.3) and the PickShardForDepths
// regression: the shallow-primary early-out must behave identically to the
// always-scan reference implementation.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "src/base/prng.h"
#include "src/net/load_balancer.h"
#include "src/net/tcp_proxy.h"

namespace solros {
namespace {

std::vector<BalanceTarget> MakeTargets(size_t n) {
  std::vector<BalanceTarget> targets(n);
  for (size_t i = 0; i < n; ++i) {
    targets[i].dataplane = static_cast<uint32_t>(i);
  }
  return targets;
}

TEST(RoundRobinPolicyTest, CyclesThroughTargetsInOrder) {
  RoundRobinPolicy policy;
  auto targets = MakeTargets(4);
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < targets.size(); ++i) {
      EXPECT_EQ(policy.Pick(0x0a000001, 7000, targets), i);
    }
  }
}

TEST(RoundRobinPolicyTest, IgnoresLoadSignals) {
  RoundRobinPolicy policy;
  auto targets = MakeTargets(3);
  targets[1].active_conns = 1000;
  targets[1].queue_depth = 1000;
  EXPECT_EQ(policy.Pick(1, 7000, targets), 0u);
  EXPECT_EQ(policy.Pick(2, 7000, targets), 1u);  // still visits the hot one
  EXPECT_EQ(policy.Pick(3, 7000, targets), 2u);
}

TEST(LeastLoadedPolicyTest, PicksFewestActiveConnections) {
  LeastLoadedPolicy policy;
  auto targets = MakeTargets(4);
  targets[0].active_conns = 5;
  targets[1].active_conns = 2;
  targets[2].active_conns = 9;
  targets[3].active_conns = 4;
  EXPECT_EQ(policy.Pick(1, 7000, targets), 1u);
}

TEST(LeastLoadedPolicyTest, TieBreaksToFirstTarget) {
  LeastLoadedPolicy policy;
  auto targets = MakeTargets(3);
  targets[0].active_conns = 3;
  targets[1].active_conns = 3;
  targets[2].active_conns = 3;
  EXPECT_EQ(policy.Pick(1, 7000, targets), 0u);
}

TEST(LiveLeastLoadedPolicyTest, DivergesFromConnectionCounts) {
  // Target 0 holds many long-lived but idle connections; target 1 has few
  // connections but a deep live backlog. Connection-count balancing picks
  // 1; the live-depth signal correctly picks 0.
  auto targets = MakeTargets(2);
  targets[0].active_conns = 100;
  targets[0].queue_depth = 0;
  targets[1].active_conns = 2;
  targets[1].queue_depth = 50;
  LeastLoadedPolicy by_conns;
  LiveLeastLoadedPolicy by_depth;
  EXPECT_EQ(by_conns.Pick(1, 7000, targets), 1u);
  EXPECT_EQ(by_depth.Pick(1, 7000, targets), 0u);
}

TEST(LiveLeastLoadedPolicyTest, EqualDepthFallsBackToConnections) {
  LiveLeastLoadedPolicy policy;
  auto targets = MakeTargets(3);
  targets[0].queue_depth = 4;
  targets[0].active_conns = 8;
  targets[1].queue_depth = 4;
  targets[1].active_conns = 3;
  targets[2].queue_depth = 4;
  targets[2].active_conns = 5;
  EXPECT_EQ(policy.Pick(1, 7000, targets), 1u);
}

TEST(ContentHashPolicyTest, SameClientAlwaysLandsOnSameTarget) {
  ContentHashPolicy policy;
  auto targets = MakeTargets(4);
  for (uint32_t addr : {0x0a000001u, 0x0a00ffffu, 0xc0a80101u}) {
    const size_t first = policy.Pick(addr, 7000, targets);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(policy.Pick(addr, 7000, targets), first);
    }
  }
}

TEST(ContentHashPolicyTest, SpreadsClientsAcrossTargets) {
  ContentHashPolicy policy;
  auto targets = MakeTargets(4);
  std::map<size_t, int> hits;
  const int clients = 4000;
  for (int c = 0; c < clients; ++c) {
    ++hits[policy.Pick(0x0a000000u + static_cast<uint32_t>(c), 7000,
                       targets)];
  }
  ASSERT_EQ(hits.size(), targets.size());
  for (const auto& [target, count] : hits) {
    // A decent hash keeps every target within 20% of the even share.
    EXPECT_GT(count, clients / 4 * 8 / 10) << "target " << target;
    EXPECT_LT(count, clients / 4 * 12 / 10) << "target " << target;
  }
}

// The always-scan reference PickShardForDepths behavior, as implemented
// before the shallow-primary early-out.
template <typename DepthFn>
int ReferencePickShard(int primary, int count, DepthFn&& depth,
                       bool* handoff) {
  *handoff = false;
  if (count <= 1) {
    return 0;
  }
  int lightest = 0;
  for (int k = 1; k < count; ++k) {
    if (depth(k) < depth(lightest)) {
      lightest = k;
    }
  }
  if (primary != lightest && depth(primary) > 2 * depth(lightest) + 1) {
    *handoff = true;
    return lightest;
  }
  return primary;
}

TEST(PickShardForDepthsTest, MatchesAlwaysScanReferenceOnRandomDepths) {
  Prng prng(0x51ab);
  for (int count : {1, 2, 3, 4, 8}) {
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<int64_t> depths(static_cast<size_t>(count));
      for (int64_t& d : depths) {
        // Mostly shallow (the steady-state the early-out serves), with
        // occasional runaway loops.
        d = static_cast<int64_t>(prng.NextInRange(0, 4));
        if (prng.NextInRange(0, 10) == 0) {
          d = static_cast<int64_t>(prng.NextInRange(0, 200));
        }
      }
      // NextInRange is inclusive: the primary is a valid shard index.
      const int primary = static_cast<int>(
          prng.NextInRange(0, static_cast<uint64_t>(count - 1)));
      auto depth = [&](int k) { return depths[static_cast<size_t>(k)]; };
      bool fast_handoff = false;
      bool ref_handoff = false;
      const int fast =
          PickShardForDepths(primary, count, depth, &fast_handoff);
      const int ref =
          ReferencePickShard(primary, count, depth, &ref_handoff);
      ASSERT_EQ(fast, ref) << "count=" << count << " primary=" << primary;
      ASSERT_EQ(fast_handoff, ref_handoff)
          << "count=" << count << " primary=" << primary;
    }
  }
}

TEST(PickShardForDepthsTest, ShallowPrimaryStaysPut) {
  // Depth 0 or 1 on the primary can never satisfy the handoff inequality,
  // so the early-out returns the primary without scanning.
  bool handoff = true;
  int calls = 0;
  auto depth = [&](int k) {
    ++calls;
    return k == 2 ? 1 : 0;
  };
  EXPECT_EQ(PickShardForDepths(2, 8, depth, &handoff), 2);
  EXPECT_FALSE(handoff);
  EXPECT_EQ(calls, 1);  // only the primary was probed
}

}  // namespace
}  // namespace solros
