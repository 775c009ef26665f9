// Error paths of the declarative config loaders: every rejection names
// the offending fragment by its JSON pointer so a user can find it in a
// large pipeline file.
#include <gtest/gtest.h>

#include <string>

#include "core/config.h"
#include "dq/config.h"
#include "../support/config_text.h"

namespace icewafl {
namespace {

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

TEST(ConfigErrorsTest, MalformedJsonRejected) {
  auto pipeline = PipelineFromText("{not json at all");
  EXPECT_FALSE(pipeline.ok());
}

TEST(ConfigErrorsTest, TruncatedJsonRejected) {
  // A document cut off mid-structure, as from a partial write.
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [{"type": "standard", "label")");
  EXPECT_FALSE(pipeline.ok());
}

TEST(ConfigErrorsTest, UnknownPolluterKindNamesThePath) {
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "ok", "error":
           {"type": "missing_value"}},
          {"type": "mystery"}]})");
  ASSERT_FALSE(pipeline.ok());
  EXPECT_TRUE(MessageContains(pipeline.status(), "mystery"));
  EXPECT_TRUE(MessageContains(pipeline.status(), "/polluters/1"));
}

TEST(ConfigErrorsTest, UnknownErrorTypeNamesThePath) {
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p",
           "error": {"type": "gaussian_typo"}}]})");
  ASSERT_FALSE(pipeline.ok());
  EXPECT_TRUE(MessageContains(pipeline.status(), "/polluters/0/error"));
}

TEST(ConfigErrorsTest, MissingFieldNamesThePath) {
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p",
           "error": {"type": "gaussian_noise"}}]})");
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(MessageContains(pipeline.status(), "stddev"));
  EXPECT_TRUE(MessageContains(pipeline.status(), "/polluters/0/error"));
}

TEST(ConfigErrorsTest, WrongTypedFieldNamesThePath) {
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p",
           "error": {"type": "gaussian_noise", "stddev": "big"}}]})");
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kTypeError);
  EXPECT_TRUE(
      MessageContains(pipeline.status(), "/polluters/0/error/stddev"));
}

TEST(ConfigErrorsTest, NestedConditionErrorNamesTheFullPath) {
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "p",
           "error": {"type": "missing_value"},
           "condition": {"type": "and", "children": [
             {"type": "always"},
             {"type": "random"}]}}]})");
  ASSERT_FALSE(pipeline.ok());
  EXPECT_TRUE(MessageContains(pipeline.status(),
                              "/polluters/0/condition/children/1"));
}

TEST(ConfigErrorsTest, CompositeChildErrorNamesTheFullPath) {
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [
          {"type": "sequential", "label": "seq", "children": [
            {"type": "standard", "label": "c",
             "error": {"type": "scale"}}]}]})");
  ASSERT_FALSE(pipeline.ok());
  EXPECT_TRUE(MessageContains(pipeline.status(),
                              "/polluters/0/children/0/error"));
}

TEST(ConfigErrorsTest, InvalidTimestampNamesTheField) {
  auto condition = ConditionFromJson(
      Json::Parse(R"({"type": "time_window", "start": "not-a-date"})")
          .ValueOrDie(),
      "/polluters/3/condition");
  ASSERT_FALSE(condition.ok());
  EXPECT_TRUE(
      MessageContains(condition.status(), "/polluters/3/condition/start"));
}

TEST(ConfigErrorsTest, WrongTypedArrayRejected) {
  auto polluter = PolluterFromJson(
      Json::Parse(R"({"type": "standard", "label": "p",
                      "attributes": "Distance",
                      "error": {"type": "missing_value"}})")
          .ValueOrDie(),
      "/polluters/0");
  ASSERT_FALSE(polluter.ok());
  EXPECT_TRUE(MessageContains(polluter.status(), "/polluters/0/attributes"));
}

TEST(ConfigErrorsTest, NegativeDelayNamesItsField) {
  // Arrival may only move later; Algorithm 1's lateness bound depends on
  // it, so the loader refuses what lint reports as IW303.
  auto pipeline = PipelineFromText(
      R"({"name": "t", "polluters": [
          {"type": "standard", "label": "late",
           "error": {"type": "delay", "delay_seconds": -7200}}]})");
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MessageContains(pipeline.status(),
                              "/polluters/0/error/delay_seconds"));
}

TEST(ConfigErrorsTest, SuiteErrorsNameThePath) {
  auto suite = SuiteFromText(
      R"({"name": "s", "expectations": [
          {"type": "expect_column_values_to_not_be_null", "column": "A"},
          {"type": "expect_column_values_to_be_between", "column": "B",
           "min": "low", "max": 5}]})");
  ASSERT_FALSE(suite.ok());
  EXPECT_TRUE(MessageContains(suite.status(), "/expectations/1"));
}

TEST(ConfigErrorsTest, SuiteUnknownTypeNamesThePath) {
  auto suite = SuiteFromText(
      R"({"name": "s", "expectations": [{"type": "expect_magic"}]})");
  ASSERT_FALSE(suite.ok());
  EXPECT_TRUE(MessageContains(suite.status(), "/expectations/0"));
}

}  // namespace
}  // namespace icewafl
