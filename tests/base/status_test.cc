#include "src/base/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace solros {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("no such file: /a/b");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NOT_FOUND: no such file: /a/b");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
  // Compared as a value: EXPECT_TRUE(result.status().ok()) makes GCC 12
  // warn (-Wmaybe-uninitialized) that the variant's destructor may read an
  // unset Status alternative.
  EXPECT_EQ(result.status(), OkStatus());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = IoError("disk gone");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kIoError);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(5);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 5);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) {
    return InvalidArgumentError("not positive");
  }
  return x;
}

Result<int> DoubleOf(int x) {
  SOLROS_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(DoubleOf(21).value(), 42);
  EXPECT_EQ(DoubleOf(-1).code(), ErrorCode::kInvalidArgument);
}

Status FailIfOdd(int x) {
  if (x % 2 == 1) {
    return InvalidArgumentError("odd");
  }
  return OkStatus();
}

Status CheckAll(int a, int b) {
  SOLROS_RETURN_IF_ERROR(FailIfOdd(a));
  SOLROS_RETURN_IF_ERROR(FailIfOdd(b));
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(CheckAll(2, 4).ok());
  EXPECT_EQ(CheckAll(2, 3).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(CheckAll(1, 4).code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace solros
