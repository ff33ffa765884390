// Forwarding-policy unit tests (§4.4.3).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/net/load_balancer.h"

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

}  // namespace
}  // namespace solros
