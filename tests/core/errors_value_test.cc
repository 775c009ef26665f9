#include "core/errors_value.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace icewafl {
namespace {

using testing_helpers::ContextFor;
using testing_helpers::SensorSchema;
using testing_helpers::SensorTuple;

TEST(MissingValueErrorTest, SetsTargetsToNull) {
  SchemaPtr schema = SensorSchema();
  Rng rng(1);
  MissingValueError error;
  Tuple t = SensorTuple(schema, 10);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1, 2}, &ctx);
  EXPECT_TRUE(t.value(1).is_null());
  EXPECT_TRUE(t.value(2).is_null());
  EXPECT_FALSE(t.value(3).is_null());  // untargeted attribute untouched
}

TEST(MissingValueErrorTest, SeverityActsAsProbability) {
  SchemaPtr schema = SensorSchema();
  Rng rng(2);
  MissingValueError error;
  int nulled = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Tuple t = SensorTuple(schema, 10);
    auto ctx = ContextFor(t, &rng);
    ctx.severity = 0.3;
    error.Apply(&t, {1}, &ctx);
    if (t.value(1).is_null()) ++nulled;
  }
  EXPECT_NEAR(static_cast<double>(nulled) / n, 0.3, 0.02);
}

TEST(SetConstantErrorTest, OverwritesWithConstant) {
  SchemaPtr schema = SensorSchema();
  Rng rng(3);
  SetConstantError error(Value(0.0));
  Tuple t = SensorTuple(schema, 10, 120.0);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1}, &ctx);
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), 0.0);
}

TEST(SetConstantErrorTest, CanSetNullAndString) {
  SchemaPtr schema = SensorSchema();
  Rng rng(4);
  Tuple t = SensorTuple(schema, 10);
  auto ctx = ContextFor(t, &rng);
  SetConstantError to_null{Value::Null()};
  to_null.Apply(&t, {1}, &ctx);
  EXPECT_TRUE(t.value(1).is_null());
  SetConstantError to_string{Value("broken")};
  to_string.Apply(&t, {3}, &ctx);
  EXPECT_EQ(t.value(3).AsString(), "broken");
}

// The value families overwrite whatever the target holds: a NULL, a
// value whose runtime type diverged from the column's, and an int64
// all become the family's output, typed as that output.
TEST(SetConstantErrorTest, OverwritesNullDivergedAndIntegerTargets) {
  SchemaPtr schema = SensorSchema();
  Rng rng(5);
  struct Family {
    ErrorFunctionPtr error;
    Value expected;
  };
  Family families[] = {
      {std::make_unique<MissingValueError>(), Value::Null()},
      {std::make_unique<SetConstantError>(Value(60.0)), Value(60.0)},
  };
  for (const Family& family : families) {
    for (const Value& target :
         {Value::Null(), Value("diverged"), Value(int64_t{100})}) {
      Tuple t = SensorTuple(schema, 10);
      t.set_value(1, target);
      auto ctx = ContextFor(t, &rng);
      family.error->Apply(&t, {1}, &ctx);
      EXPECT_TRUE(t.value(1) == family.expected) << family.error->name();
      EXPECT_EQ(t.value(1).type(), family.expected.type())
          << family.error->name();
    }
  }
}

TEST(IncorrectCategoryErrorTest, AlwaysProducesDifferentCategory) {
  SchemaPtr schema = SensorSchema();
  Rng rng(5);
  IncorrectCategoryError error({"ok", "warn", "fail"});
  for (int i = 0; i < 500; ++i) {
    Tuple t = SensorTuple(schema, 10, 20.0, 100, "ok");
    auto ctx = ContextFor(t, &rng);
    error.Apply(&t, {3}, &ctx);
    const std::string v = t.value(3).AsString();
    ASSERT_NE(v, "ok");
    ASSERT_TRUE(v == "warn" || v == "fail");
  }
}

TEST(IncorrectCategoryErrorTest, ValueOutsideDomainReplaced) {
  SchemaPtr schema = SensorSchema();
  Rng rng(6);
  IncorrectCategoryError error({"a", "b"});
  Tuple t = SensorTuple(schema, 10, 20.0, 100, "zzz");
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {3}, &ctx);
  const std::string v = t.value(3).AsString();
  EXPECT_TRUE(v == "a" || v == "b");
}

TEST(IncorrectCategoryErrorTest, TooFewCategoriesRejected) {
  SchemaPtr schema = SensorSchema();
  Rng rng(7);
  IncorrectCategoryError error({"only"});
  BindContext bind_ctx(*schema);
  EXPECT_EQ(error.Bind(bind_ctx, {3}).code(), StatusCode::kInvalidArgument);
}

TEST(IncorrectCategoryErrorTest, NonStringTargetRejectedNullSkipped) {
  SchemaPtr schema = SensorSchema();
  Rng rng(8);
  IncorrectCategoryError error({"a", "b"});
  // Targeting the numeric column is a misconfiguration, caught at bind.
  BindContext bind_ctx(*schema);
  EXPECT_EQ(error.Bind(bind_ctx, {1}).code(), StatusCode::kTypeError);
  // NULL values are skipped at apply time.
  Tuple t = SensorTuple(schema, 10);
  auto ctx = ContextFor(t, &rng);
  t.set_value(3, Value::Null());
  error.Apply(&t, {3}, &ctx);
  EXPECT_TRUE(t.value(3).is_null());
}

TEST(TypoErrorTest, IntroducesSingleEditOnStrings) {
  SchemaPtr schema = SensorSchema();
  Rng rng(9);
  TypoError error;
  int changed = 0;
  for (int i = 0; i < 500; ++i) {
    Tuple t = SensorTuple(schema, 10, 20.0, 100, "sensor-yard");
    auto ctx = ContextFor(t, &rng);
    error.Apply(&t, {3}, &ctx);
    const std::string v = t.value(3).AsString();
    // Single edit: length changes by at most 1.
    ASSERT_GE(v.size(), 10u);
    ASSERT_LE(v.size(), 12u);
    if (v != "sensor-yard") ++changed;
  }
  // Most edits visibly change the string (swap of equal chars or replace
  // with the same letter can no-op occasionally).
  EXPECT_GT(changed, 400);
}

TEST(TypoErrorTest, EmptyStringUntouched) {
  SchemaPtr schema = SensorSchema();
  Rng rng(10);
  TypoError error;
  Tuple t = SensorTuple(schema, 10, 20.0, 100, "");
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {3}, &ctx);
  EXPECT_EQ(t.value(3).AsString(), "");
}

TEST(SwapAttributesErrorTest, SwapsValues) {
  SchemaPtr schema = SensorSchema();
  Rng rng(11);
  SwapAttributesError error;
  Tuple t = SensorTuple(schema, 10, 20.5, 99);
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {1, 2}, &ctx);
  EXPECT_EQ(t.value(1).AsInt64(), 99);
  EXPECT_DOUBLE_EQ(t.value(2).AsDouble(), 20.5);
}

TEST(SwapAttributesErrorTest, RequiresExactlyTwoTargets) {
  SchemaPtr schema = SensorSchema();
  SwapAttributesError error;
  BindContext one(*schema);
  EXPECT_EQ(error.Bind(one, {1}).code(), StatusCode::kInvalidArgument);
  BindContext three(*schema);
  EXPECT_EQ(error.Bind(three, {1, 2, 3}).code(),
            StatusCode::kInvalidArgument);
}

TEST(CaseErrorTest, FlipsLetterCase) {
  SchemaPtr schema = SensorSchema();
  Rng rng(20);
  CaseError error(1.0);  // flip every letter
  Tuple t = SensorTuple(schema, 10, 20.0, 100, "Sensor-42a");
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {3}, &ctx);
  EXPECT_EQ(t.value(3).AsString(), "sENSOR-42A");
}

TEST(CaseErrorTest, ZeroProbabilityIsNoOp) {
  SchemaPtr schema = SensorSchema();
  Rng rng(21);
  CaseError error(0.0);
  Tuple t = SensorTuple(schema, 10, 20.0, 100, "MiXeD");
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {3}, &ctx);
  EXPECT_EQ(t.value(3).AsString(), "MiXeD");
}

TEST(TruncateErrorTest, CutsLongStrings) {
  SchemaPtr schema = SensorSchema();
  Rng rng(22);
  TruncateError error(4);
  Tuple t = SensorTuple(schema, 10, 20.0, 100, "overflowing");
  auto ctx = ContextFor(t, &rng);
  error.Apply(&t, {3}, &ctx);
  EXPECT_EQ(t.value(3).AsString(), "over");
  // Already-short strings are untouched.
  Tuple t2 = SensorTuple(schema, 10, 20.0, 100, "ok");
  auto ctx2 = ContextFor(t2, &rng);
  error.Apply(&t2, {3}, &ctx2);
  EXPECT_EQ(t2.value(3).AsString(), "ok");
}

TEST(ValueErrorsTest, ToJsonRoundTripsType) {
  EXPECT_EQ(MissingValueError().ToJson().GetString("type", ""),
            "missing_value");
  EXPECT_EQ(SetConstantError(Value(1)).ToJson().GetString("type", ""),
            "set_constant");
  EXPECT_EQ(SetConstantError(Value(1)).ToJson().GetString("value_type", ""),
            "int64");
  EXPECT_EQ(TypoError().ToJson().GetString("type", ""), "typo");
}

TEST(ValueErrorsTest, ClonesAreIndependent) {
  IncorrectCategoryError original({"x", "y"});
  ErrorFunctionPtr clone = original.Clone();
  EXPECT_EQ(clone->ToJson(), original.ToJson());
}

}  // namespace
}  // namespace icewafl
