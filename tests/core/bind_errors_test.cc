// Error paths of the two-phase bind pass (DESIGN.md section 8): every
// rejection carries the JSON pointer of the offending config fragment,
// mirroring the loader errors exercised by config_errors_test. The
// fixtures parse, so the only failure the loaders can report is the
// bind-time one.
#include <gtest/gtest.h>

#include <string>

#include "core/composite_polluter.h"
#include "core/config.h"
#include "core/derived_error.h"
#include "core/errors_temporal.h"
#include "core/errors_value.h"
#include "dq/config.h"
#include "test_helpers.h"
#include "../support/config_text.h"

namespace icewafl {
namespace {

using testing_helpers::SensorSchema;

testing::AssertionResult MessageContains(const Status& status,
                                         const std::string& needle) {
  if (status.ok()) {
    return testing::AssertionFailure() << "expected an error status";
  }
  if (status.message().find(needle) == std::string::npos) {
    return testing::AssertionFailure()
           << "message '" << status.message() << "' lacks '" << needle << "'";
  }
  return testing::AssertionSuccess();
}

// Loads the pipeline and binds it against the sensor schema
// (ts int64 | temp double | count int64 | label string).
Status BindPipeline(const std::string& text) {
  auto pipeline = PipelineFromText(text, SensorSchema());
  return pipeline.status();
}

Status BindSuite(const std::string& text) {
  auto suite = SuiteFromText(text, SensorSchema());
  return suite.status();
}

TEST(BindErrorsTest, ValidPipelineBindsAndRecordsSchema) {
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["temp"],
           "error": {"type": "gaussian_noise", "stddev": 1.0}}]})",
      SensorSchema());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_NE(pipeline.ValueOrDie().bound_schema(), nullptr);
}

TEST(BindErrorsTest, NegativeDelayNamesItsField) {
  // Built in code, past the loader: bind refuses it at the same pointer.
  PollutionPipeline pipeline("t");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "late", std::make_unique<DelayError>(-60),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{}));
  const Status status = pipeline.Bind(SensorSchema());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/error/delay_seconds"));
}

TEST(BindErrorsTest, DerivedNegativeDelayNamesItsBaseField) {
  PollutionPipeline pipeline("t");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "late",
      std::make_unique<DerivedTemporalError>(
          std::make_unique<DelayError>(-60),
          std::make_unique<ConstantProfile>(1.0)),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{}));
  const Status status = pipeline.Bind(SensorSchema());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      MessageContains(status, "/polluters/0/error/base/delay_seconds"));
}

TEST(BindErrorsTest, UnknownPolluterAttributeNamesThePath) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p",
           "attributes": ["temp", "bogus"],
           "error": {"type": "missing_value"}}]})");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/attributes/1"));
  EXPECT_TRUE(MessageContains(status, "bogus"));
}

TEST(BindErrorsTest, NumericErrorOnStringColumnNamesThePath) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["label"],
           "error": {"type": "gaussian_noise", "stddev": 1.0}}]})");
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/error"));
  EXPECT_TRUE(MessageContains(status, "label"));
  EXPECT_TRUE(MessageContains(status, "string"));
}

TEST(BindErrorsTest, StringErrorOnNumericColumnNamesThePath) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["temp"],
           "error": {"type": "typo"}}]})");
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/error"));
  EXPECT_TRUE(MessageContains(status, "temp"));
}

TEST(BindErrorsTest, DerivedErrorNamesItsBasePath) {
  // The base's own bind error sits under the derived error's "base".
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["temp"],
           "error": {"type": "derived",
                     "base": {"type": "case"},
                     "profile": {"type": "constant", "value": 1.0}}}]})");
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_TRUE(MessageContains(status, "at /polluters/0/error/base:"));
  EXPECT_TRUE(MessageContains(status, "temp"));
}

TEST(BindErrorsTest, ConditionUnknownAttributeNamesThePath) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["temp"],
           "error": {"type": "missing_value"},
           "condition": {"type": "value", "attribute": "ghost",
                         "op": ">", "operand": 1.0}}]})");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/condition/attribute"));
  EXPECT_TRUE(MessageContains(status, "ghost"));
}

TEST(BindErrorsTest, ConditionOperandTypeMismatchNamesThePath) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["temp"],
           "error": {"type": "missing_value"},
           "condition": {"type": "value", "attribute": "label",
                         "op": ">", "operand": 1.0}}]})");
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/condition/operand"));
}

TEST(BindErrorsTest, NestedConditionChildNamesThePath) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["temp"],
           "error": {"type": "missing_value"},
           "condition": {"type": "and", "children": [
             {"type": "random", "p": 0.5},
             {"type": "value", "attribute": "ghost",
              "op": "==", "operand": 1.0}]}}]})");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(MessageContains(
      status, "/polluters/0/condition/children/1/attribute"));
}

TEST(BindErrorsTest, WindowAggregateOnStringColumnNamesThePath) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["temp"],
           "error": {"type": "missing_value"},
           "condition": {"type": "window_aggregate", "attribute": "label",
                         "window_seconds": 3600, "agg": "mean",
                         "op": ">", "threshold": 1.0}}]})");
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/condition/attribute"));
}

TEST(BindErrorsTest, CompositeChildErrorNamesThePath) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "sequential", "label": "seq", "children": [
            {"type": "standard", "label": "fine", "attributes": ["temp"],
             "error": {"type": "missing_value"}},
            {"type": "standard", "label": "broken",
             "attributes": ["absent"],
             "error": {"type": "missing_value"}}]}]})");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(
      MessageContains(status, "/polluters/0/children/1/attributes/0"));
}

TEST(BindErrorsTest, IncorrectCategoryNeedsTwoCategories) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["label"],
           "error": {"type": "incorrect_category",
                     "categories": ["only"]}}]})");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/error"));
}

TEST(BindErrorsTest, SwapAttributesNeedsExactlyTwoTargets) {
  const Status status = BindPipeline(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["temp"],
           "error": {"type": "swap_attributes"}}]})");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/error"));
}

TEST(BindErrorsTest, ExclusiveZeroTotalWeightRejected) {
  SchemaPtr schema = SensorSchema();
  auto exclusive = std::make_unique<ExclusivePolluter>(
      "pick", std::make_unique<AlwaysCondition>());
  exclusive->RegisterWeighted(
      std::make_unique<StandardPolluter>(
          "a", std::make_unique<MissingValueError>(),
          std::make_unique<AlwaysCondition>(),
          std::vector<std::string>{"temp"}),
      0.0);
  BindContext ctx(*schema, "/polluters/0");
  const Status status = exclusive->Bind(ctx);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageContains(status, "/polluters/0/weights"));
}

TEST(BindErrorsTest, SuiteUnknownColumnNamesThePath) {
  const Status status = BindSuite(
      R"({"name": "s", "expectations": [
          {"type": "expect_column_values_to_not_be_null", "column": "temp"},
          {"type": "expect_column_values_to_be_between",
           "column": "absent", "min": 0, "max": 1}]})");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(MessageContains(status, "/expectations/1/column"));
  EXPECT_TRUE(MessageContains(status, "absent"));
}

TEST(BindErrorsTest, SuiteNumericExpectationOnStringColumnRejected) {
  const Status status = BindSuite(
      R"({"name": "s", "expectations": [
          {"type": "expect_column_mean_to_be_between",
           "column": "label", "min": 0, "max": 1}]})");
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_TRUE(MessageContains(status, "/expectations/0/column"));
}

TEST(BindErrorsTest, SuiteMulticolumnSumNamesTheColumnIndex) {
  const Status status = BindSuite(
      R"({"name": "s", "expectations": [
          {"type": "expect_multicolumn_sum_to_equal",
           "columns": ["temp", "label"], "total": 10}]})");
  EXPECT_EQ(status.code(), StatusCode::kTypeError);
  EXPECT_TRUE(MessageContains(status, "/expectations/0/columns/1"));
}

TEST(BindErrorsTest, SuitePairExpectationNamesTheSide) {
  const Status status = BindSuite(
      R"({"name": "s", "expectations": [
          {"type": "expect_column_pair_values_a_to_be_greater_than_b",
           "column_a": "temp", "column_b": "missing"}]})");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(MessageContains(status, "/expectations/0/column_b"));
}

TEST(BindErrorsTest, ValidSuiteBindsAndRecordsSchema) {
  auto suite = SuiteFromText(
      R"({"name": "s", "expectations": [
          {"type": "expect_column_values_to_be_between",
           "column": "temp", "min": -50, "max": 60},
          {"type": "expect_column_values_to_match_regex",
           "column": "label", "regex": "ok|warn"}]})",
      SensorSchema());
  ASSERT_TRUE(suite.ok()) << suite.status().ToString();
  EXPECT_NE(suite.ValueOrDie().bound_schema(), nullptr);
}

TEST(BindErrorsTest, UnboundLoadStillSucceeds) {
  // Without a bind schema the loaders keep their permissive two-arg
  // behavior: configuration errors surface at first use instead.
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p", "attributes": ["nonexistent"],
           "error": {"type": "missing_value"}}]})");
  EXPECT_TRUE(pipeline.ok());
  EXPECT_EQ(pipeline.ValueOrDie().bound_schema(), nullptr);
}

}  // namespace
}  // namespace icewafl
