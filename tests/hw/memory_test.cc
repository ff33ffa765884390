// DeviceBuffer's two allocation paths: calloc below 2 MiB, a huge-page
// mapping of its own from 2 MiB up.
#include "src/hw/memory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/base/units.h"
#include "src/hw/fabric.h"

namespace solros {
namespace {

constexpr size_t kHuge = DeviceBuffer::kHugePageBytes;
constexpr DeviceId kDevice{3};

bool AllZero(std::span<const uint8_t> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](uint8_t b) { return b == 0; });
}

class LargeDeviceBufferTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LargeDeviceBufferTest, MappedZeroedAndBounded) {
  const size_t size = GetParam();
  DeviceBuffer buffer(kDevice, size);
  ASSERT_EQ(buffer.size(), size);
  EXPECT_EQ(buffer.device(), kDevice);
  if (size < kHuge) {
    EXPECT_EQ(buffer.mapped_bytes(), 0u);
  } else {
    EXPECT_EQ(buffer.mapped_bytes(), (size + kHuge - 1) / kHuge * kHuge);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % kHuge, 0u);
  }
  EXPECT_TRUE(AllZero(buffer.Span(0, size)));

  // A write in the middle touches only its own bytes.
  const size_t mid = size / 2;
  buffer.data()[mid] = 0xa5;
  EXPECT_TRUE(AllZero(buffer.Span(0, mid)));
  EXPECT_EQ(buffer.data()[mid], 0xa5);
  EXPECT_TRUE(AllZero(buffer.Span(mid + 1, size - mid - 1)));

  EXPECT_EQ(buffer.Span(size - 1, 1).size(), 1u);
  EXPECT_TRUE(buffer.Span(size, 0).empty());
  EXPECT_DEATH(buffer.Span(size - 1, 2), "Check failed");
  EXPECT_DEATH(buffer.Span(size + 1, 0), "Check failed");
#if defined(__SANITIZE_ADDRESS__)
  // Past size() is poisoned: a calloc redzone, or a mapping's rounding
  // slack.
  if (size % kHuge != 0) {
    volatile uint8_t* bytes = buffer.data();
    EXPECT_DEATH(bytes[size] = 1, "AddressSanitizer");
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(AroundTheHugePage, LargeDeviceBufferTest,
                         ::testing::Values(kHuge - 1, kHuge, kHuge + 1,
                                           MiB(64)));

TEST(DeviceBufferTest, ZeroSizeAndSmallBuffersComeFromCalloc) {
  for (size_t size : {size_t{0}, size_t{1}, size_t{4096}}) {
    DeviceBuffer buffer(kDevice, size);
    EXPECT_EQ(buffer.mapped_bytes(), 0u) << size << " bytes";
    EXPECT_NE(buffer.data(), nullptr) << size << " bytes";
    EXPECT_TRUE(AllZero(buffer.Span(0, size))) << size << " bytes";
  }
}

}  // namespace
}  // namespace solros
