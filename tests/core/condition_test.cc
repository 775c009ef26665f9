#include "core/condition.h"

#include <gtest/gtest.h>

#include "core/config.h"
#include "test_helpers.h"

namespace icewafl {
namespace {

using testing_helpers::ContextFor;
using testing_helpers::SensorSchema;
using testing_helpers::SensorTuple;

// Binds `condition` against `schema` at the root path, as the pipeline
// Bind pass does before any Evaluate call.
Status BindTo(Condition* condition, const SchemaPtr& schema) {
  BindContext ctx(*schema);
  return condition->Bind(ctx);
}

TEST(AlwaysNeverConditionTest, Constants) {
  SchemaPtr schema = SensorSchema();
  Rng rng(1);
  Tuple t = SensorTuple(schema, 10);
  auto ctx = ContextFor(t, &rng);
  EXPECT_TRUE(AlwaysCondition().Evaluate(t, &ctx));
  EXPECT_FALSE(NeverCondition().Evaluate(t, &ctx));
}

TEST(RandomConditionTest, FiresWithConfiguredProbability) {
  SchemaPtr schema = SensorSchema();
  Rng rng(2);
  RandomCondition condition(0.2);
  Tuple t = SensorTuple(schema, 10);
  int fired = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    auto ctx = ContextFor(t, &rng);
    if (condition.Evaluate(t, &ctx)) ++fired;
  }
  EXPECT_NEAR(static_cast<double>(fired) / n, 0.2, 0.01);
}

// p is checked where it loads (IW203), not clamped by the condition.
TEST(RandomConditionTest, LoaderRefusesProbabilityOutsideUnitInterval) {
  for (const char* text :
       {R"({"type": "random", "p": 1.7})", R"({"type": "random", "p": -0.3})"}) {
    Diagnostics diags;
    EXPECT_FALSE(
        ConditionFromJson(Json::Parse(text).ValueOrDie(), "/c", &diags).ok())
        << text;
    EXPECT_TRUE(diags.HasCode("IW203")) << diags.ToReport();
  }
  EXPECT_DOUBLE_EQ(RandomCondition(0.25).probability(), 0.25);
}

TEST(RandomConditionTest, NeverFiresWithoutRng) {
  SchemaPtr schema = SensorSchema();
  RandomCondition condition(1.0);
  Tuple t = SensorTuple(schema, 10);
  PollutionContext ctx;  // no rng: no reproducible draw to make
  EXPECT_FALSE(condition.Evaluate(t, &ctx));
}

TEST(ValueConditionTest, NumericComparisons) {
  SchemaPtr schema = SensorSchema();
  Rng rng(3);
  Tuple t = SensorTuple(schema, 10, 120.0);
  auto ctx = ContextFor(t, &rng);
  // The paper's "BPM > 100" style condition.
  const struct {
    CompareOp op;
    double operand;
    bool expected;
  } cases[] = {
      {CompareOp::kGt, 100.0, true}, {CompareOp::kGt, 120.0, false},
      {CompareOp::kGe, 120.0, true}, {CompareOp::kLt, 121.0, true},
      {CompareOp::kLe, 120.0, true}, {CompareOp::kEq, 120.0, true},
      {CompareOp::kNe, 0.0, true},
  };
  for (const auto& c : cases) {
    ValueCondition condition("temp", c.op, Value(c.operand));
    ASSERT_TRUE(BindTo(&condition, schema).ok());
    EXPECT_EQ(condition.Evaluate(t, &ctx), c.expected)
        << CompareOpName(c.op) << " " << c.operand;
  }
}

TEST(ValueConditionTest, UnboundNeverFires) {
  SchemaPtr schema = SensorSchema();
  Rng rng(3);
  Tuple t = SensorTuple(schema, 10, 120.0);
  auto ctx = ContextFor(t, &rng);
  // Without Bind there is no resolved column to read.
  EXPECT_FALSE(
      ValueCondition("temp", CompareOp::kGt, Value(100.0)).Evaluate(t, &ctx));
}

TEST(ValueConditionTest, IntDoubleCrossComparison) {
  SchemaPtr schema = SensorSchema();
  Rng rng(4);
  Tuple t = SensorTuple(schema, 10, 20.0, 100);
  auto ctx = ContextFor(t, &rng);
  // count is int64(100); operand double 100.0 compares equal numerically.
  ValueCondition condition("count", CompareOp::kEq, Value(100.0));
  ASSERT_TRUE(BindTo(&condition, schema).ok());
  EXPECT_TRUE(condition.Evaluate(t, &ctx));
}

TEST(ValueConditionTest, StringComparison) {
  SchemaPtr schema = SensorSchema();
  Rng rng(5);
  Tuple t = SensorTuple(schema, 10, 20.0, 100, "42");
  auto ctx = ContextFor(t, &rng);
  // The paper's Figure 2 example: "if attribute1.value == 42 then pollute".
  ValueCondition eq42("label", CompareOp::kEq, Value("42"));
  ValueCondition eq43("label", CompareOp::kEq, Value("43"));
  ASSERT_TRUE(BindTo(&eq42, schema).ok());
  ASSERT_TRUE(BindTo(&eq43, schema).ok());
  EXPECT_TRUE(eq42.Evaluate(t, &ctx));
  EXPECT_FALSE(eq43.Evaluate(t, &ctx));
}

TEST(ValueConditionTest, NullHandling) {
  SchemaPtr schema = SensorSchema();
  Rng rng(6);
  Tuple t = SensorTuple(schema, 10);
  t.set_value(1, Value::Null());
  auto ctx = ContextFor(t, &rng);
  const struct {
    const char* attribute;
    CompareOp op;
    Value operand;
    bool expected;
  } cases[] = {
      {"temp", CompareOp::kIsNull, Value(), true},
      {"temp", CompareOp::kNotNull, Value(), false},
      // Ordering against NULL is false (SQL-like), equality with explicit
      // NULL operand is true.
      {"temp", CompareOp::kGt, Value(0.0), false},
      {"temp", CompareOp::kEq, Value::Null(), true},
      {"count", CompareOp::kNe, Value::Null(), true},
  };
  for (const auto& c : cases) {
    ValueCondition condition(c.attribute, c.op, c.operand);
    ASSERT_TRUE(BindTo(&condition, schema).ok());
    EXPECT_EQ(condition.Evaluate(t, &ctx), c.expected)
        << c.attribute << " " << CompareOpName(c.op);
  }
}

TEST(ValueConditionTest, UnknownAttributeRejectedAtBind) {
  SchemaPtr schema = SensorSchema();
  ValueCondition condition("bogus", CompareOp::kEq, Value(1));
  const Status status = BindTo(&condition, schema);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("bogus"), std::string::npos);
}

TEST(ValueConditionTest, OperandColumnTypeMismatchRejectedAtBind) {
  SchemaPtr schema = SensorSchema();
  // Numeric operand against the string column and vice versa.
  ValueCondition numeric_on_string("label", CompareOp::kGt, Value(1.0));
  EXPECT_EQ(BindTo(&numeric_on_string, schema).code(), StatusCode::kTypeError);
  ValueCondition string_on_numeric("temp", CompareOp::kEq, Value("hot"));
  EXPECT_EQ(BindTo(&string_on_numeric, schema).code(), StatusCode::kTypeError);
}

TEST(CompareOpTest, ParseAndNameRoundTrip) {
  for (const char* text :
       {"==", "!=", "<", "<=", ">", ">=", "is_null", "not_null"}) {
    auto op = ParseCompareOp(text);
    ASSERT_TRUE(op.ok()) << text;
    EXPECT_STREQ(CompareOpName(op.ValueOrDie()), text);
  }
  EXPECT_FALSE(ParseCompareOp("~=").ok());
}

TEST(TimeWindowConditionTest, HalfOpenWindowOnEventTime) {
  SchemaPtr schema = SensorSchema();
  Rng rng(8);
  const Timestamp start = TimestampFromCivil({2016, 3, 1, 10, 0, 0});
  const Timestamp end = TimestampFromCivil({2016, 3, 1, 12, 0, 0});
  TimeWindowCondition condition(start, end);
  for (int hour : {9, 10, 11, 12, 13}) {
    Tuple t = SensorTuple(schema, hour);
    auto ctx = ContextFor(t, &rng);
    const bool expected = hour >= 10 && hour < 12;
    EXPECT_EQ(condition.Evaluate(t, &ctx), expected) << hour;
  }
}

TEST(TimeWindowConditionTest, AfterFactoryIsOpenEnded) {
  SchemaPtr schema = SensorSchema();
  Rng rng(9);
  ConditionPtr condition =
      TimeWindowCondition::After(TimestampFromCivil({2016, 3, 1, 5, 0, 0}));
  Tuple before = SensorTuple(schema, 4);
  Tuple at = SensorTuple(schema, 5);
  Tuple after = SensorTuple(schema, 23);
  auto ctx_b = ContextFor(before, &rng);
  auto ctx_at = ContextFor(at, &rng);
  auto ctx_a = ContextFor(after, &rng);
  EXPECT_FALSE(condition->Evaluate(before, &ctx_b));
  EXPECT_TRUE(condition->Evaluate(at, &ctx_at));
  EXPECT_TRUE(condition->Evaluate(after, &ctx_a));
}

TEST(DailyWindowConditionTest, MatchesPaperNetworkScenarioWindow) {
  SchemaPtr schema = SensorSchema();
  Rng rng(10);
  // 13:00-14:59 (Experiment 3.1.3).
  DailyWindowCondition condition(13 * 60, 14 * 60 + 59);
  for (int hour = 0; hour < 24; ++hour) {
    Tuple t = SensorTuple(schema, hour);
    auto ctx = ContextFor(t, &rng);
    const bool expected = hour == 13 || hour == 14;
    EXPECT_EQ(condition.Evaluate(t, &ctx), expected) << hour;
  }
}

TEST(DailyWindowConditionTest, WrapsAroundMidnight) {
  SchemaPtr schema = SensorSchema();
  Rng rng(11);
  DailyWindowCondition condition(23 * 60, 1 * 60);  // 23:00-01:00
  for (int hour : {22, 23, 0, 1, 2}) {
    Tuple t = SensorTuple(schema, hour);
    auto ctx = ContextFor(t, &rng);
    const bool expected = hour == 23 || hour == 0 || hour == 1;
    EXPECT_EQ(condition.Evaluate(t, &ctx), expected) << hour;
  }
}

TEST(ProfileProbabilityConditionTest, SinusoidalDailyErrorRate) {
  SchemaPtr schema = SensorSchema();
  Rng rng(12);
  // Experiment 3.1.1's p(t) = 0.25 cos(pi/12 t) + 0.25.
  ProfileProbabilityCondition condition(
      std::make_unique<SinusoidalProfile>(24.0, 0.25, 0.25));
  const int n = 20000;
  int fired_midnight = 0;
  int fired_noon = 0;
  for (int i = 0; i < n; ++i) {
    Tuple midnight = SensorTuple(schema, 0);
    Tuple noon = SensorTuple(schema, 12);
    auto ctx_m = ContextFor(midnight, &rng);
    auto ctx_n = ContextFor(noon, &rng);
    if (condition.Evaluate(midnight, &ctx_m)) ++fired_midnight;
    if (condition.Evaluate(noon, &ctx_n)) ++fired_noon;
  }
  EXPECT_NEAR(static_cast<double>(fired_midnight) / n, 0.5, 0.02);
  EXPECT_EQ(fired_noon, 0);
}

TEST(CompositeConditionTest, BindRecursesIntoChildren) {
  SchemaPtr schema = SensorSchema();
  std::vector<ConditionPtr> children;
  children.push_back(std::make_unique<NeverCondition>());
  children.push_back(
      std::make_unique<ValueCondition>("missing", CompareOp::kEq, Value(1)));
  AndCondition condition(std::move(children));
  // The bad child is rejected at bind time with its path, even though
  // evaluation would short-circuit before reaching it.
  const Status status = BindTo(&condition, schema);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("missing"), std::string::npos);
}

TEST(CompositeConditionTest, AndRequiresAll) {
  SchemaPtr schema = SensorSchema();
  Rng rng(14);
  // The paper's nested network-error condition: daily window AND p=0.2.
  std::vector<ConditionPtr> children;
  children.push_back(std::make_unique<DailyWindowCondition>(13 * 60, 899));
  children.push_back(std::make_unique<RandomCondition>(0.2));
  AndCondition condition(std::move(children));
  ASSERT_TRUE(BindTo(&condition, schema).ok());
  int fired_in_window = 0;
  int fired_outside = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Tuple in_window = SensorTuple(schema, 13);
    Tuple outside = SensorTuple(schema, 9);
    auto ctx_i = ContextFor(in_window, &rng);
    auto ctx_o = ContextFor(outside, &rng);
    if (condition.Evaluate(in_window, &ctx_i)) ++fired_in_window;
    if (condition.Evaluate(outside, &ctx_o)) ++fired_outside;
  }
  EXPECT_NEAR(static_cast<double>(fired_in_window) / n, 0.2, 0.02);
  EXPECT_EQ(fired_outside, 0);
}

TEST(CompositeConditionTest, OrFiresOnAny) {
  SchemaPtr schema = SensorSchema();
  Rng rng(15);
  std::vector<ConditionPtr> children;
  children.push_back(std::make_unique<NeverCondition>());
  children.push_back(
      std::make_unique<ValueCondition>("temp", CompareOp::kGt, Value(15.0)));
  OrCondition condition(std::move(children));
  ASSERT_TRUE(BindTo(&condition, schema).ok());
  Tuple hot = SensorTuple(schema, 10, 20.0);
  Tuple cold = SensorTuple(schema, 10, 10.0);
  auto ctx_h = ContextFor(hot, &rng);
  auto ctx_c = ContextFor(cold, &rng);
  EXPECT_TRUE(condition.Evaluate(hot, &ctx_h));
  EXPECT_FALSE(condition.Evaluate(cold, &ctx_c));
}

TEST(CompositeConditionTest, NotInverts) {
  SchemaPtr schema = SensorSchema();
  Rng rng(16);
  NotCondition condition(std::make_unique<NeverCondition>());
  Tuple t = SensorTuple(schema, 10);
  auto ctx = ContextFor(t, &rng);
  EXPECT_TRUE(condition.Evaluate(t, &ctx));
}

TEST(CompositeConditionTest, EmptyAndIsTrueEmptyOrIsFalse) {
  SchemaPtr schema = SensorSchema();
  Rng rng(17);
  Tuple t = SensorTuple(schema, 10);
  auto ctx = ContextFor(t, &rng);
  EXPECT_TRUE(AndCondition({}).Evaluate(t, &ctx));
  EXPECT_FALSE(OrCondition({}).Evaluate(t, &ctx));
}

TEST(WindowAggregateConditionTest, MotivatingExampleAvgTemp) {
  // Figure 1: "if Avg(Temp) > 20 then ...". Evaluate over a 3-hour
  // trailing window.
  SchemaPtr schema = SensorSchema();
  Rng rng(30);
  WindowAggregateCondition condition("temp", 3 * 3600, WindowAgg::kMean,
                                     CompareOp::kGt, 20.0);
  ASSERT_TRUE(BindTo(&condition, schema).ok());
  const std::vector<double> temps = {16, 17, 30, 29, 21, 10, 5, 5};
  std::vector<bool> fired;
  for (size_t h = 0; h < temps.size(); ++h) {
    Tuple t = SensorTuple(schema, static_cast<int>(h), temps[h]);
    auto ctx = ContextFor(t, &rng);
    fired.push_back(condition.Evaluate(t, &ctx));
  }
  // Trailing 3h means (incl. current): 16, 16.5, 21, 25.3, 26.7, 20, 12,
  // 6.7 -> fires at hours 2-4 only... (mean at h=5 is (29+21+10)/3 = 20,
  // not > 20).
  const std::vector<bool> expected = {false, false, true, true,
                                      true,  false, false, false};
  EXPECT_EQ(fired, expected);
}

TEST(WindowAggregateConditionTest, CountAndSumAggregates) {
  SchemaPtr schema = SensorSchema();
  Rng rng(31);
  WindowAggregateCondition count_cond("temp", 2 * 3600, WindowAgg::kCount,
                                      CompareOp::kGe, 2.0);
  WindowAggregateCondition sum_cond("temp", 3 * 3600, WindowAgg::kSum,
                                    CompareOp::kGt, 45.0);
  ASSERT_TRUE(BindTo(&count_cond, schema).ok());
  ASSERT_TRUE(BindTo(&sum_cond, schema).ok());
  for (int h = 0; h < 3; ++h) {
    Tuple t = SensorTuple(schema, h, 20.0);
    auto ctx = ContextFor(t, &rng);
    const bool count_fired = count_cond.Evaluate(t, &ctx);
    const bool sum_fired = sum_cond.Evaluate(t, &ctx);
    EXPECT_EQ(count_fired, h >= 1) << h;   // window holds 2+ from hour 1
    EXPECT_EQ(sum_fired, h >= 2) << h;     // sum 60 > 45 from hour 2
  }
}

TEST(WindowAggregateConditionTest, MinMaxAggregates) {
  SchemaPtr schema = SensorSchema();
  Rng rng(32);
  WindowAggregateCondition max_cond("temp", 2 * 3600, WindowAgg::kMax,
                                    CompareOp::kGe, 100.0);
  ASSERT_TRUE(BindTo(&max_cond, schema).ok());
  const std::vector<double> temps = {50, 120, 50, 50, 50};
  std::vector<bool> fired;
  for (size_t h = 0; h < temps.size(); ++h) {
    Tuple t = SensorTuple(schema, static_cast<int>(h), temps[h]);
    auto ctx = ContextFor(t, &rng);
    fired.push_back(max_cond.Evaluate(t, &ctx));
  }
  // The 120 spike keeps max >= 100 while it remains inside the
  // half-open 2h window (hours 1-2; at hour 3 it is evicted).
  EXPECT_EQ(fired, (std::vector<bool>{false, true, true, false, false}));
}

TEST(WindowAggregateConditionTest, NullValuesSkipped) {
  SchemaPtr schema = SensorSchema();
  Rng rng(33);
  WindowAggregateCondition condition("temp", 10 * 3600, WindowAgg::kMean,
                                     CompareOp::kGt, 0.0);
  ASSERT_TRUE(BindTo(&condition, schema).ok());
  Tuple t = SensorTuple(schema, 0);
  t.set_value(1, Value::Null());
  auto ctx = ContextFor(t, &rng);
  // Empty window -> mean never fires.
  EXPECT_FALSE(condition.Evaluate(t, &ctx));
}

TEST(WindowAggregateConditionTest, NullOperatorRejectedAtBind) {
  SchemaPtr schema = SensorSchema();
  WindowAggregateCondition condition("temp", 3600, WindowAgg::kMean,
                                     CompareOp::kIsNull, 0.0);
  EXPECT_EQ(BindTo(&condition, schema).code(), StatusCode::kInvalidArgument);
}

TEST(WindowAggregateConditionTest, NonNumericColumnRejectedAtBind) {
  SchemaPtr schema = SensorSchema();
  WindowAggregateCondition condition("label", 3600, WindowAgg::kMean,
                                     CompareOp::kGt, 0.0);
  EXPECT_EQ(BindTo(&condition, schema).code(), StatusCode::kTypeError);
}

TEST(WindowAggregateConditionTest, CloneStartsEmptyAndJsonRoundTrips) {
  WindowAggregateCondition condition("temp", 3600, WindowAgg::kMax,
                                     CompareOp::kGt, 5.0);
  ConditionPtr clone = condition.Clone();
  EXPECT_EQ(clone->ToJson(), condition.ToJson());
  EXPECT_EQ(condition.ToJson().GetString("agg", ""), "max");
  EXPECT_EQ(condition.ToJson().GetString("op", ""), ">");
}

TEST(WindowAggParseTest, RoundTrip) {
  for (const char* text : {"mean", "min", "max", "sum", "count"}) {
    auto agg = ParseWindowAgg(text);
    ASSERT_TRUE(agg.ok()) << text;
    EXPECT_STREQ(WindowAggName(agg.ValueOrDie()), text);
  }
  EXPECT_FALSE(ParseWindowAgg("median").ok());
}

TEST(HoldConditionTest, StaysActiveForHoldWindow) {
  SchemaPtr schema = SensorSchema();
  Rng rng(20);
  // Trigger exactly at hour 5; hold for 4 hours of event time.
  HoldCondition condition(
      std::make_unique<TimeWindowCondition>(
          TimestampFromCivil({2016, 3, 1, 5, 0, 0}),
          TimestampFromCivil({2016, 3, 1, 6, 0, 0})),
      4 * 3600);
  std::vector<bool> fired;
  for (int hour = 0; hour < 12; ++hour) {
    Tuple t = SensorTuple(schema, hour);
    auto ctx = ContextFor(t, &rng);
    fired.push_back(condition.Evaluate(t, &ctx));
  }
  // Active at the trigger (5) and while held (6, 7, 8); off afterwards.
  const std::vector<bool> expected = {false, false, false, false, false,
                                      true,  true,  true,  true,  false,
                                      false, false};
  EXPECT_EQ(fired, expected);
}

TEST(HoldConditionTest, RetriggersAfterExpiry) {
  SchemaPtr schema = SensorSchema();
  Rng rng(21);
  HoldCondition condition(std::make_unique<AlwaysCondition>(), 3600);
  // Always retriggering: every tuple fires.
  for (int hour = 0; hour < 5; ++hour) {
    Tuple t = SensorTuple(schema, hour);
    auto ctx = ContextFor(t, &rng);
    EXPECT_TRUE(condition.Evaluate(t, &ctx));
  }
}

TEST(HoldConditionTest, CloneStartsInactive) {
  SchemaPtr schema = SensorSchema();
  Rng rng(22);
  HoldCondition condition(std::make_unique<NeverCondition>(), 1000000);
  ConditionPtr clone = condition.Clone();
  Tuple t = SensorTuple(schema, 0);
  auto ctx = ContextFor(t, &rng);
  EXPECT_FALSE(clone->Evaluate(t, &ctx));
  EXPECT_EQ(clone->ToJson().GetString("type", ""), "hold");
}

TEST(ConditionTest, CloneIsDeepAndEquivalent) {
  std::vector<ConditionPtr> children;
  children.push_back(std::make_unique<RandomCondition>(0.2));
  children.push_back(std::make_unique<DailyWindowCondition>(780, 899));
  AndCondition original(std::move(children));
  ConditionPtr clone = original.Clone();
  EXPECT_EQ(clone->ToJson(), original.ToJson());
  EXPECT_EQ(clone->name(), "and");
}

TEST(ConditionTest, CloneKeepsBoundState) {
  SchemaPtr schema = SensorSchema();
  Rng rng(23);
  ValueCondition condition("temp", CompareOp::kGt, Value(15.0));
  ASSERT_TRUE(BindTo(&condition, schema).ok());
  // Workers clone the bound plan; the clone must evaluate without a
  // fresh Bind call.
  ConditionPtr clone = condition.Clone();
  Tuple hot = SensorTuple(schema, 10, 20.0);
  auto ctx = ContextFor(hot, &rng);
  EXPECT_TRUE(clone->Evaluate(hot, &ctx));
}

TEST(ConditionTest, ToJsonShapes) {
  EXPECT_EQ(RandomCondition(0.3).ToJson().GetString("type", ""), "random");
  EXPECT_DOUBLE_EQ(RandomCondition(0.3).ToJson().GetDouble("p", 0), 0.3);
  const Json vc =
      ValueCondition("BPM", CompareOp::kGt, Value(100.0)).ToJson();
  EXPECT_EQ(vc.GetString("attribute", ""), "BPM");
  EXPECT_EQ(vc.GetString("op", ""), ">");
  EXPECT_DOUBLE_EQ(vc.GetDouble("operand", 0), 100.0);
}

}  // namespace
}  // namespace icewafl
