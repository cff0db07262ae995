#include "common/status.h"

#include <gtest/gtest.h>

namespace cfcm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad k").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NumericalError("x").code(), StatusCode::kNumericalError);
  EXPECT_FALSE(Status::InvalidArgument("bad k").ok());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  const Status s = Status::InvalidArgument("k must be positive");
  EXPECT_EQ(s.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("payload"));
  ASSERT_TRUE(v.ok());
  const std::string s = std::move(v).value();
  EXPECT_EQ(s, "payload");
}

TEST(StatusOrTest, ArrowOperator) {
  StatusOr<std::string> v(std::string("abc"));
  EXPECT_EQ(v->size(), 3u);
}

// Reading the value of an error StatusOr must abort with the status in
// every build type (a Release build compiles out assert()).
TEST(StatusOrDeathTest, ValueOnErrorAbortsWithStatus) {
  StatusOr<std::string> v(Status::NotFound("missing graph"));
  EXPECT_DEATH((void)v.value(), "NotFound: missing graph");
  EXPECT_DEATH((void)*v, "NotFound: missing graph");
  EXPECT_DEATH((void)v->size(), "NotFound: missing graph");
  EXPECT_DEATH((void)std::move(v).value(), "NotFound: missing graph");
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() { return Status::IoError("disk"); };
  auto outer = [&]() -> Status {
    CFCM_RETURN_IF_ERROR(inner());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIoError);
}

TEST(StatusTest, ReturnIfErrorMacroPassesOk) {
  auto inner = []() { return Status::Ok(); };
  auto outer = [&]() -> Status {
    CFCM_RETURN_IF_ERROR(inner());
    return Status::InvalidArgument("reached end");
  };
  EXPECT_EQ(outer().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cfcm
