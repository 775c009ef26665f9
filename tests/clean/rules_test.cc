#include "clean/rules.h"

#include <gtest/gtest.h>

#include "stream/bind.h"

namespace icewafl {
namespace clean {
namespace {

SchemaPtr WearableLikeSchema() {
  return Schema::Make({{"Time", ValueType::kInt64},
                       {"BPM", ValueType::kDouble},
                       {"Steps", ValueType::kInt64},
                       {"Distance", ValueType::kDouble},
                       {"Device", ValueType::kString}},
                      "Time")
      .ValueOrDie();
}

Tuple Row(const SchemaPtr& schema, int64_t t, Value bpm, int64_t steps,
          Value distance, std::string device = "watch") {
  Tuple tuple(schema, {Value(t), std::move(bpm), Value(steps),
                       std::move(distance), Value(std::move(device))});
  tuple.set_id(static_cast<TupleId>(t));
  tuple.set_event_time(t);
  return tuple;
}

Status BindRule(CleanRule* rule, const SchemaPtr& schema) {
  BindContext ctx(*schema);
  BindContext::Scope rules_scope(ctx, "rules");
  BindContext::Scope index_scope(ctx, size_t{0});
  return rule->Bind(ctx);
}

TEST(RepairActionTest, NamesRoundTrip) {
  for (RepairAction action :
       {RepairAction::kDrop, RepairAction::kSetNull, RepairAction::kClamp,
        RepairAction::kLastGood, RepairAction::kWindowMean,
        RepairAction::kWindowMedian}) {
    Result<RepairAction> back = RepairActionFromName(RepairActionName(action));
    ASSERT_TRUE(back.ok()) << RepairActionName(action);
    EXPECT_EQ(back.ValueOrDie(), action);
  }
  EXPECT_FALSE(RepairActionFromName("mend").ok());
}

TEST(RepairActionTest, HistoryNeedClassifiesWindowedRepairs) {
  EXPECT_FALSE(RepairNeedsHistory(RepairAction::kDrop));
  EXPECT_FALSE(RepairNeedsHistory(RepairAction::kSetNull));
  EXPECT_FALSE(RepairNeedsHistory(RepairAction::kClamp));
  EXPECT_TRUE(RepairNeedsHistory(RepairAction::kLastGood));
  EXPECT_TRUE(RepairNeedsHistory(RepairAction::kWindowMean));
  EXPECT_TRUE(RepairNeedsHistory(RepairAction::kWindowMedian));
}

TEST(CompareOpTest, NamesAndEvaluation) {
  for (CompareOp op : {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                       CompareOp::kGe, CompareOp::kEq, CompareOp::kNe}) {
    Result<CompareOp> back = CompareOpFromName(CompareOpName(op));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.ValueOrDie(), op);
  }
  EXPECT_TRUE(EvalCompareOp(CompareOp::kLt, 1.0, 2.0));
  EXPECT_FALSE(EvalCompareOp(CompareOp::kLt, 2.0, 2.0));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kLe, 2.0, 2.0));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kGt, 3.0, 2.0));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kGe, 2.0, 2.0));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kEq, 2.0, 2.0));
  EXPECT_TRUE(EvalCompareOp(CompareOp::kNe, 1.0, 2.0));
}

TEST(ValueHistoryTest, RingEvictsOldest) {
  ValueHistory history(3);
  EXPECT_TRUE(history.empty());
  history.Push(1.0);
  history.Push(2.0);
  history.Push(3.0);
  history.Push(4.0);  // evicts 1.0
  EXPECT_EQ(history.size(), 3u);
  EXPECT_DOUBLE_EQ(history.Recent(0), 4.0);
  EXPECT_DOUBLE_EQ(history.Recent(1), 3.0);
  EXPECT_DOUBLE_EQ(history.Recent(2), 2.0);
  EXPECT_DOUBLE_EQ(history.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(history.Median(), 3.0);
  history.Clear();
  EXPECT_TRUE(history.empty());
}

TEST(ValueHistoryTest, MedianMidpointForEvenCounts) {
  ValueHistory history(4);
  history.Push(1.0);
  history.Push(2.0);
  history.Push(10.0);
  history.Push(100.0);
  EXPECT_DOUBLE_EQ(history.Median(), 6.0);
}

TEST(RangeRuleTest, ViolationsAndClampBounds) {
  SchemaPtr schema = WearableLikeSchema();
  RangeRule rule("bpm", "BPM", 20.0, 250.0, RepairAction::kClamp);
  ASSERT_TRUE(BindRule(&rule, schema).ok());

  EXPECT_FALSE(
      rule.Violates(Row(schema, 0, Value(70.0), 0, Value(0.0)), nullptr));
  EXPECT_TRUE(
      rule.Violates(Row(schema, 1, Value(300.0), 0, Value(0.0)), nullptr));
  EXPECT_TRUE(
      rule.Violates(Row(schema, 2, Value(10.0), 0, Value(0.0)), nullptr));
  // NULL never violates a numeric rule — not_null's job.
  EXPECT_FALSE(
      rule.Violates(Row(schema, 3, Value::Null(), 0, Value(0.0)), nullptr));

  double lo = 0, hi = 0;
  ASSERT_TRUE(rule.ClampBounds(&lo, &hi));
  EXPECT_DOUBLE_EQ(lo, 20.0);
  EXPECT_DOUBLE_EQ(hi, 250.0);
  EXPECT_FALSE(rule.stateful());
}

TEST(NotNullRuleTest, FiresOnNullOnly) {
  SchemaPtr schema = WearableLikeSchema();
  NotNullRule rule("bpm", "BPM", RepairAction::kLastGood);
  ASSERT_TRUE(BindRule(&rule, schema).ok());
  EXPECT_TRUE(
      rule.Violates(Row(schema, 0, Value::Null(), 0, Value(0.0)), nullptr));
  EXPECT_FALSE(
      rule.Violates(Row(schema, 1, Value(70.0), 0, Value(0.0)), nullptr));
  // last_good needs history, so the rule is stateful despite a
  // stateless detect.
  EXPECT_TRUE(rule.stateful());
  EXPECT_FALSE(rule.windowed());
}

TEST(NotNullRuleTest, BindsStringColumnsToo) {
  SchemaPtr schema = WearableLikeSchema();
  NotNullRule rule("dev", "Device", RepairAction::kDrop);
  EXPECT_TRUE(BindRule(&rule, schema).ok());
}

TEST(RegexRuleTest, FiresWhenRenderedValueFailsToMatch) {
  SchemaPtr schema = WearableLikeSchema();
  // The pattern describes what a HEALTHY value looks like (full
  // precision); a truncated rendering fails the anchored match.
  RegexRule rule("precision", "Distance",
                 Regex::Compile("\\d+\\.\\d{3,}").ValueOrDie(),
                 RepairAction::kSetNull);
  ASSERT_TRUE(BindRule(&rule, schema).ok());
  EXPECT_FALSE(
      rule.Violates(Row(schema, 0, Value(70.0), 0, Value(1.2345)), nullptr));
  EXPECT_TRUE(
      rule.Violates(Row(schema, 1, Value(70.0), 0, Value(1.25)), nullptr));
  // NULLs are skipped.
  EXPECT_FALSE(
      rule.Violates(Row(schema, 2, Value(70.0), 0, Value::Null()), nullptr));
}

TEST(TypeRuleTest, FiresOnMismatchedType) {
  SchemaPtr schema = WearableLikeSchema();
  TypeRule rule("bpm_type", "BPM", ValueType::kDouble, RepairAction::kSetNull);
  ASSERT_TRUE(BindRule(&rule, schema).ok());
  EXPECT_FALSE(
      rule.Violates(Row(schema, 0, Value(70.0), 0, Value(0.0)), nullptr));
  EXPECT_TRUE(rule.Violates(
      Row(schema, 1, Value(std::string("seventy")), 0, Value(0.0)), nullptr));
  // NULL carries no type — never a violation.
  EXPECT_FALSE(
      rule.Violates(Row(schema, 2, Value::Null(), 0, Value(0.0)), nullptr));
}

TEST(CrossFieldRuleTest, InvariantMustHold) {
  SchemaPtr schema = WearableLikeSchema();
  // Distance must be <= Steps (violated when distance > steps).
  CrossFieldRule rule("dist", "Distance", CompareOp::kLe, "Steps",
                      RepairAction::kSetNull);
  ASSERT_TRUE(BindRule(&rule, schema).ok());
  EXPECT_FALSE(
      rule.Violates(Row(schema, 0, Value(70.0), 100, Value(1.0)), nullptr));
  EXPECT_TRUE(
      rule.Violates(Row(schema, 1, Value(70.0), 100, Value(5000.0)), nullptr));
  // Either side NULL: no violation.
  EXPECT_FALSE(
      rule.Violates(Row(schema, 2, Value(70.0), 100, Value::Null()), nullptr));
}

TEST(RateOfChangeRuleTest, NeedsHistoryAndThreshold) {
  SchemaPtr schema = WearableLikeSchema();
  RateOfChangeRule rule("jump", "BPM", 30.0, RepairAction::kLastGood);
  ASSERT_TRUE(BindRule(&rule, schema).ok());
  EXPECT_TRUE(rule.windowed());
  EXPECT_TRUE(rule.stateful());

  // Empty history never fires.
  ValueHistory empty(4);
  EXPECT_FALSE(
      rule.Violates(Row(schema, 0, Value(200.0), 0, Value(0.0)), &empty));

  ValueHistory history(4);
  history.Push(70.0);
  EXPECT_FALSE(
      rule.Violates(Row(schema, 1, Value(95.0), 0, Value(0.0)), &history));
  EXPECT_TRUE(
      rule.Violates(Row(schema, 2, Value(170.0), 0, Value(0.0)), &history));
}

TEST(StuckAtRuleTest, FiresAfterMinRepeats) {
  SchemaPtr schema = WearableLikeSchema();
  StuckAtRule rule("stuck", "BPM", 3, RepairAction::kSetNull);
  ASSERT_TRUE(BindRule(&rule, schema).ok());
  EXPECT_TRUE(rule.windowed());

  ValueHistory history(8);
  history.Push(70.0);
  // Only one prior repeat: a second 70 is not yet stuck (needs 3 total).
  EXPECT_FALSE(
      rule.Violates(Row(schema, 0, Value(70.0), 0, Value(0.0)), &history));
  history.Push(70.0);
  EXPECT_TRUE(
      rule.Violates(Row(schema, 1, Value(70.0), 0, Value(0.0)), &history));
  EXPECT_FALSE(
      rule.Violates(Row(schema, 2, Value(71.0), 0, Value(0.0)), &history));
}

TEST(RuleGuardTest, GuardSkipsRuleWhenUnsatisfied) {
  SchemaPtr schema = WearableLikeSchema();
  RangeRule rule("bpm", "BPM", 1.0, 250.0, RepairAction::kSetNull);
  RuleGuard guard;
  guard.column = "Steps";
  guard.op = CompareOp::kGt;
  guard.value = 0.0;
  rule.mutable_guards()->push_back(std::move(guard));
  ASSERT_TRUE(BindRule(&rule, schema).ok());

  EXPECT_TRUE(rule.GuardsPass(Row(schema, 0, Value(0.0), 10, Value(0.0))));
  EXPECT_FALSE(rule.GuardsPass(Row(schema, 1, Value(0.0), 0, Value(0.0))));
  // NULL guard column fails the guard (rule skipped).
  Tuple null_steps(schema, {Value(int64_t{2}), Value(0.0), Value::Null(),
                            Value(0.0), Value(std::string("watch"))});
  EXPECT_FALSE(rule.GuardsPass(null_steps));
}

TEST(BindErrorsTest, UnknownColumnCarriesJsonPointer) {
  SchemaPtr schema = WearableLikeSchema();
  RangeRule rule("bpm", "Heartrate", 20.0, 250.0, RepairAction::kSetNull);
  Status status = BindRule(&rule, schema);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("/rules/0"), std::string::npos)
      << status.message();
}

TEST(BindErrorsTest, StringColumnRejectedForNumericRule) {
  SchemaPtr schema = WearableLikeSchema();
  RangeRule rule("dev", "Device", 0.0, 1.0, RepairAction::kDrop);
  EXPECT_FALSE(BindRule(&rule, schema).ok());
}

TEST(CloneTest, CloneOfBoundRuleIsBound) {
  SchemaPtr schema = WearableLikeSchema();
  RegexRule rule("precision", "Distance",
                 Regex::Compile("\\d+\\.\\d{3,}").ValueOrDie(),
                 RepairAction::kSetNull);
  ASSERT_TRUE(BindRule(&rule, schema).ok());
  std::unique_ptr<CleanRule> clone = rule.Clone();
  // The clone detects without a re-bind: the compiled regex and the
  // accessor travel with the copy.
  EXPECT_FALSE(clone->Violates(Row(schema, 0, Value(70.0), 0, Value(1.2345)),
                               nullptr));
  EXPECT_TRUE(clone->Violates(Row(schema, 1, Value(70.0), 0, Value(1.25)),
                              nullptr));
}

TEST(CleaningRulesTest, ToJsonRoundTripsShape) {
  CleaningRules rules;
  rules.name = "doc";
  rules.history = 8;
  rules.rules.push_back(std::make_unique<RangeRule>(
      "bpm", "BPM", 20.0, 250.0, RepairAction::kClamp));
  rules.rules.push_back(std::make_unique<NotNullRule>(
      "bpm_null", "BPM", RepairAction::kLastGood));
  const Json json = rules.ToJson();
  EXPECT_EQ(json.GetString("name", ""), "doc");
  EXPECT_EQ(json.GetInt("history", 0), 8);
  ASSERT_TRUE(json.Has("rules"));
  EXPECT_EQ(json.Get("rules").ValueOrDie().size(), 2u);
  EXPECT_FALSE(rules.rules[0]->stateful());  // clamp: pure
  EXPECT_TRUE(rules.rules[1]->stateful());   // last_good reads history

  CleaningRules copy = rules.Clone();
  EXPECT_EQ(copy.rules.size(), 2u);
  EXPECT_EQ(copy.ToJson().Dump(), json.Dump());
}

}  // namespace
}  // namespace clean
}  // namespace icewafl
