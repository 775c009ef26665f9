#include "forecast/metrics.h"

#include <gtest/gtest.h>

namespace icewafl {
namespace forecast {
namespace {

TEST(MetricsTest, MaeBasic) {
  EXPECT_DOUBLE_EQ(
      MeanAbsoluteError({1, 2, 3}, {1, 2, 3}).ValueOrDie(), 0.0);
  EXPECT_DOUBLE_EQ(
      MeanAbsoluteError({1, 2, 3}, {2, 1, 5}).ValueOrDie(), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({-5}, {5}).ValueOrDie(), 10.0);
}

TEST(MetricsTest, SizeMismatchRejected) {
  EXPECT_FALSE(MeanAbsoluteError({1, 2}, {1}).ok());
  EXPECT_FALSE(MeanAbsoluteError({}, {}).ok());
}

}  // namespace
}  // namespace forecast
}  // namespace icewafl
