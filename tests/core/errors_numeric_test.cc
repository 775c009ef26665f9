#include "core/errors_numeric.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "test_helpers.h"

namespace icewafl {
namespace {

using testing_helpers::ContextFor;
using testing_helpers::SensorSchema;
using testing_helpers::SensorTuple;

TEST(GaussianNoiseErrorTest, AdditiveNoiseHasExpectedSpread) {
  SchemaPtr schema = SensorSchema();
  Rng rng(1);
  GaussianNoiseError error(2.0);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Tuple t = SensorTuple(schema, 10, 50.0);
    auto ctx = ContextFor(t, &rng);
    error.Apply(&t, {1}, &ctx);
    const double v = t.value(1).AsDouble();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 50.0, 0.1);
  EXPECT_NEAR(std::sqrt(sum2 / n - mean * mean), 2.0, 0.1);
}

TEST(GaussianNoiseErrorTest, MultiplicativeScalesWithValue) {
  SchemaPtr schema = SensorSchema();
  Rng rng(2);
  GaussianNoiseError error(0.1, /*multiplicative=*/true);
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Tuple t = SensorTuple(schema, 10, 100.0);
    auto ctx = ContextFor(t, &rng);
    error.Apply(&t, {1}, &ctx);
    const double d = t.value(1).AsDouble() - 100.0;
    sum2 += d * d;
  }
  EXPECT_NEAR(std::sqrt(sum2 / n), 10.0, 0.5);  // 10% of 100
}

TEST(GaussianNoiseErrorTest, SeverityScalesStddev) {
  SchemaPtr schema = SensorSchema();
  Rng rng(3);
  GaussianNoiseError error(10.0);
  double sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Tuple t = SensorTuple(schema, 10, 0.0);
    auto ctx = ContextFor(t, &rng);
    ctx.severity = 0.2;
    error.Apply(&t, {1}, &ctx);
    sum2 += t.value(1).AsDouble() * t.value(1).AsDouble();
  }
  EXPECT_NEAR(std::sqrt(sum2 / n), 2.0, 0.1);  // 10 * 0.2
}

/// One instance of every numeric error family that rewrites values in
/// place, for the per-family edge cases below.
std::vector<ErrorFunctionPtr> NumericFamilies() {
  std::vector<ErrorFunctionPtr> families;
  families.push_back(std::make_unique<GaussianNoiseError>(5.0));
  families.push_back(std::make_unique<UniformNoiseError>(0.2, 0.5));
  families.push_back(std::make_unique<ScaleError>(2.5));
  families.push_back(std::make_unique<OffsetError>(3.5));
  families.push_back(std::make_unique<RoundError>(1));
  families.push_back(
      std::make_unique<UnitConversionError>(100000.0, "km", "cm"));
  families.push_back(std::make_unique<OutlierError>(2.0, 5.0));
  families.push_back(std::make_unique<SignFlipError>());
  return families;
}

TEST(GaussianNoiseErrorTest, NullSkippedNonNumericRejected) {
  SchemaPtr schema = SensorSchema();
  Rng rng(4);
  // Every numeric family leaves a NULL target and a target whose runtime
  // type diverged from the column's (a string in a double column) alone.
  for (const ErrorFunctionPtr& error : NumericFamilies()) {
    for (const Value& target : {Value::Null(), Value("diverged")}) {
      Tuple t = SensorTuple(schema, 10);
      t.set_value(1, target);
      auto ctx = ContextFor(t, &rng);
      error->Apply(&t, {1}, &ctx);
      EXPECT_TRUE(t.value(1) == target) << error->name();
      EXPECT_EQ(t.value(1).type(), target.type()) << error->name();
    }
  }
  // Targeting the string attribute is a configuration error, caught at
  // bind time with the attribute's name in the message.
  GaussianNoiseError error(1.0);
  BindContext bind_ctx(*schema);
  const Status status = error.Bind(bind_ctx, {3});
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_NE(status.message().find("label"), std::string::npos);
}

TEST(GaussianNoiseErrorTest, IntegerAttributeStaysInteger) {
  SchemaPtr schema = SensorSchema();
  Rng rng(5);
  for (const ErrorFunctionPtr& error : NumericFamilies()) {
    Tuple t = SensorTuple(schema, 10, 20.0, 100);
    auto ctx = ContextFor(t, &rng);
    error->Apply(&t, {2}, &ctx);
    EXPECT_TRUE(t.value(2).is_int64()) << error->name();
  }
}

TEST(GaussianNoiseErrorTest, OutOfRangeIndexSkipped) {
  SchemaPtr schema = SensorSchema();
  Rng rng(6);
  GaussianNoiseError error(1.0);
  Tuple t = SensorTuple(schema, 10);
  const Tuple original = t;
  auto ctx = ContextFor(t, &rng);
  // A stale index beyond the tuple is ignored rather than dereferenced.
  error.Apply(&t, {99}, &ctx);
  EXPECT_EQ(t.value(1).AsDouble(), original.value(1).AsDouble());
}

TEST(UniformNoiseErrorTest, FactorWithinBoundsAndBothDirections) {
  SchemaPtr schema = SensorSchema();
  Rng rng(7);
  UniformNoiseError error(0.2, 0.5);
  int increased = 0;
  int decreased = 0;
  for (int i = 0; i < 5000; ++i) {
    Tuple t = SensorTuple(schema, 10, 100.0);
    auto ctx = ContextFor(t, &rng);
    error.Apply(&t, {1}, &ctx);
    const double v = t.value(1).AsDouble();
    // v = 100 * (1 +- f), f in [0.2, 0.5).
    if (v > 100.0) {
      ++increased;
      ASSERT_GE(v, 120.0 - 1e-9);
      ASSERT_LT(v, 150.0);
    } else {
      ++decreased;
      ASSERT_LE(v, 80.0 + 1e-9);
      ASSERT_GT(v, 50.0);
    }
  }
  // The coin is fair.
  EXPECT_NEAR(static_cast<double>(increased) / 5000.0, 0.5, 0.05);
  EXPECT_GT(decreased, 0);
}

TEST(UniformNoiseErrorTest, SeverityShrinksBounds) {
  SchemaPtr schema = SensorSchema();
  Rng rng(8);
  UniformNoiseError error(0.0, 1.0);
  for (int i = 0; i < 2000; ++i) {
    Tuple t = SensorTuple(schema, 10, 100.0);
    auto ctx = ContextFor(t, &rng);
    ctx.severity = 0.1;
    error.Apply(&t, {1}, &ctx);
    ASSERT_NEAR(t.value(1).AsDouble(), 100.0, 10.0 + 1e-9);
  }
}

TEST(ScaleErrorTest, ScalesByFactor) {
  SchemaPtr schema = SensorSchema();
  Rng rng(9);
  ScaleError error(0.125);
  Tuple t = SensorTuple(schema, 10, 80.0);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1}, &ctx);
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), 10.0);
}

TEST(ScaleErrorTest, SeverityInterpolatesTowardsIdentity) {
  SchemaPtr schema = SensorSchema();
  Rng rng(10);
  ScaleError error(3.0);
  Tuple t = SensorTuple(schema, 10, 10.0);
  auto ctx = ContextFor(t, &rng);
  ctx.severity = 0.5;  // factor 1 + (3-1)*0.5 = 2
  error.Apply(&t, {1}, &ctx);
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), 20.0);
}

TEST(ScaleErrorTest, MultipleAttributesAllScaled) {
  SchemaPtr schema = SensorSchema();
  Rng rng(11);
  ScaleError error(2.0);
  Tuple t = SensorTuple(schema, 10, 5.0, 7);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1, 2}, &ctx);
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), 10.0);
  EXPECT_EQ(t.value(2).AsInt64(), 14);
}

TEST(OffsetErrorTest, AddsDelta) {
  SchemaPtr schema = SensorSchema();
  Rng rng(12);
  OffsetError error(-3.5);
  Tuple t = SensorTuple(schema, 10, 20.0);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1}, &ctx);
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), 16.5);
}

TEST(RoundErrorTest, RoundsToPrecision) {
  SchemaPtr schema = SensorSchema();
  Rng rng(13);
  RoundError error(2);
  Tuple t = SensorTuple(schema, 10, 3.14159);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1}, &ctx);
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), 3.14);
}

TEST(RoundErrorTest, ZeroPrecisionRoundsToInteger) {
  SchemaPtr schema = SensorSchema();
  Rng rng(14);
  RoundError error(0);
  Tuple t = SensorTuple(schema, 10, 2.718);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1}, &ctx);
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), 3.0);
}

TEST(UnitConversionErrorTest, KmToCm) {
  SchemaPtr schema = SensorSchema();
  Rng rng(15);
  UnitConversionError error(100000.0, "km", "cm");
  Tuple t = SensorTuple(schema, 10, 1.5);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1}, &ctx);
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), 150000.0);
  const Json j = error.ToJson();
  EXPECT_EQ(j.GetString("from_unit", ""), "km");
  EXPECT_EQ(j.GetString("to_unit", ""), "cm");
}

TEST(OutlierErrorTest, ProducesSpikesInEitherDirection) {
  SchemaPtr schema = SensorSchema();
  Rng rng(16);
  OutlierError error(5.0, 10.0);
  int up = 0;
  int down = 0;
  for (int i = 0; i < 2000; ++i) {
    Tuple t = SensorTuple(schema, 10, 100.0);
    auto ctx = ContextFor(t, &rng);
    error.Apply(&t, {1}, &ctx);
    const double v = t.value(1).AsDouble();
    if (v > 100.0) {
      ++up;
      ASSERT_GE(v, 500.0 - 1e-6);
      ASSERT_LE(v, 1000.0 + 1e-6);
    } else {
      ++down;
      ASSERT_LE(v, 20.0 + 1e-6);
      ASSERT_GE(v, 10.0 - 1e-6);
    }
  }
  EXPECT_GT(up, 0);
  EXPECT_GT(down, 0);
}

TEST(DigitSwapErrorTest, SwapsAdjacentDigits) {
  SchemaPtr schema = SensorSchema();
  Rng rng(18);
  DigitSwapError error;
  int changed = 0;
  for (int i = 0; i < 500; ++i) {
    Tuple t = SensorTuple(schema, 10, 12.34);
    auto ctx = ContextFor(t, &rng);
    error.Apply(&t, {1}, &ctx);
    const double v = t.value(1).AsDouble();
    // "12.34": swappable pairs are (1,2) and (3,4).
    ASSERT_TRUE(v == 21.34 || v == 12.43) << v;
    if (v != 12.34) ++changed;
  }
  EXPECT_EQ(changed, 500);
}

TEST(DigitSwapErrorTest, IntegersStayIntegers) {
  SchemaPtr schema = SensorSchema();
  Rng rng(19);
  DigitSwapError error;
  Tuple t = SensorTuple(schema, 10, 20.0, 123);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {2}, &ctx);
  ASSERT_TRUE(t.value(2).is_int64());
  const int64_t v = t.value(2).AsInt64();
  EXPECT_TRUE(v == 213 || v == 132) << v;
}

TEST(DigitSwapErrorTest, SingleRepeatedDigitUnchanged) {
  SchemaPtr schema = SensorSchema();
  Rng rng(20);
  DigitSwapError error;
  for (double value : {7.0, 111.0, 0.0}) {
    Tuple t = SensorTuple(schema, 10, value);
    auto ctx = ContextFor(t, &rng);
    error.Apply(&t, {1}, &ctx);
    EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), value);
  }
}

TEST(SignFlipErrorTest, NegatesValues) {
  SchemaPtr schema = SensorSchema();
  Rng rng(21);
  SignFlipError error;
  Tuple t = SensorTuple(schema, 10, 21.5, -3);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1, 2}, &ctx);
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), -21.5);
  EXPECT_EQ(t.value(2).AsInt64(), 3);
}

TEST(NumericErrorsTest, SeverityZeroGatesDiscreteErrors) {
  SchemaPtr schema = SensorSchema();
  Rng rng(17);
  RoundError round_error(0);
  UnitConversionError unit_error(1000.0, "a", "b");
  OutlierError outlier_error(5.0, 10.0);
  for (int i = 0; i < 100; ++i) {
    Tuple t = SensorTuple(schema, 10, 3.14159);
    auto ctx = ContextFor(t, &rng);
    ctx.severity = 0.0;
    round_error.Apply(&t, {1}, &ctx);
    unit_error.Apply(&t, {1}, &ctx);
    outlier_error.Apply(&t, {1}, &ctx);
    ASSERT_DOUBLE_EQ(t.value(1).AsDouble(), 3.14159);
  }
}

TEST(NumericErrorsTest, CloneProducesEquivalentError) {
  GaussianNoiseError original(2.5, true);
  ErrorFunctionPtr clone = original.Clone();
  EXPECT_EQ(clone->name(), "gaussian_noise");
  EXPECT_EQ(clone->ToJson(), original.ToJson());
}

}  // namespace
}  // namespace icewafl
