#include "src/base/id_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace solros {
namespace {

TEST(IdTableTest, EmplaceFindErase) {
  IdTable<uint64_t, int> table;
  table.Emplace(1, 10);
  table.Emplace(3, 30);
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.Find(1), nullptr);
  EXPECT_EQ(*table.Find(1), 10);
  EXPECT_EQ(table.Find(2), nullptr);
  EXPECT_TRUE(table.Erase(1));
  EXPECT_FALSE(table.Erase(1));
  EXPECT_EQ(table.Find(1), nullptr);
  EXPECT_EQ(table.size(), 1u);
}

TEST(IdTableTest, FindNeverGrowsTheTable) {
  IdTable<int64_t, int> table;
  EXPECT_EQ(table.Find(5), nullptr);
  EXPECT_EQ(table.Find(int64_t{1} << 40), nullptr);
  EXPECT_EQ(table.Find(-1), nullptr);
  EXPECT_FALSE(table.Erase(7));
  EXPECT_EQ(table.slot_count(), 0u);
  table.Emplace(2, 20);
  const size_t slots = table.slot_count();
  EXPECT_EQ(table.Find(int64_t{1} << 40), nullptr);
  EXPECT_EQ(table.Find(-2), nullptr);
  EXPECT_EQ(table.slot_count(), slots);
}

TEST(IdTableTest, ReferencesSurviveGrowth) {
  IdTable<uint64_t, uint64_t> table;
  uint64_t& first = table.Emplace(1, 1);
  for (uint64_t id = 2; id <= 10 * table.kChunkSlots; ++id) {
    table.Emplace(id, id);
  }
  EXPECT_EQ(&first, table.Find(1));
  EXPECT_EQ(first, 1u);
}

TEST(IdTableTest, ForEachVisitsLiveValuesInIdOrder) {
  IdTable<uint64_t, uint64_t> table;
  for (uint64_t id : {700u, 3u, 260u, 9u}) {
    table.Emplace(id, id);
  }
  table.Erase(9);
  std::vector<uint64_t> seen;
  table.ForEach([&](uint64_t value) { seen.push_back(value); });
  EXPECT_EQ(seen, (std::vector<uint64_t>{3, 260, 700}));
}

}  // namespace
}  // namespace solros
