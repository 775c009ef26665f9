#include "dq/suite.h"

#include <gtest/gtest.h>

namespace icewafl {
namespace dq {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make(
             {{"ts", ValueType::kInt64}, {"v", ValueType::kDouble}}, "ts")
      .ValueOrDie();
}

TupleVector TestTuples() {
  SchemaPtr schema = TestSchema();
  TupleVector tuples;
  for (int i = 0; i < 10; ++i) {
    Tuple t(schema, {Value(int64_t{i * 3600}),
                     i == 3 ? Value::Null() : Value(50.0 + i)});
    t.set_id(static_cast<TupleId>(i));
    t.set_event_time(i * 3600);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

TEST(SuiteTest, ValidatesAllExpectationsInOrder) {
  ExpectationSuite suite("demo");
  suite.Expect<ExpectColumnValuesToNotBeNull>("v")
      .Expect<ExpectColumnValuesToBeIncreasing>("ts")
      .Expect<ExpectColumnValuesToBeBetween>("v", 0.0, 100.0);
  EXPECT_EQ(suite.size(), 3u);
  auto r = suite.Validate(TestTuples());
  ASSERT_TRUE(r.ok());
  const SuiteResult& sr = r.ValueOrDie();
  ASSERT_EQ(sr.results.size(), 3u);
  EXPECT_FALSE(sr.results[0].success);  // one NULL
  EXPECT_TRUE(sr.results[1].success);
  EXPECT_TRUE(sr.results[2].success);
  EXPECT_FALSE(sr.success());
  EXPECT_EQ(sr.TotalUnexpected(), 1u);
}

TEST(SuiteTest, AllCleanMeansSuccess) {
  ExpectationSuite suite;
  suite.Expect<ExpectColumnValuesToBeIncreasing>("ts");
  auto r = suite.Validate(TestTuples());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().success());
  EXPECT_EQ(r.ValueOrDie().TotalUnexpected(), 0u);
}

TEST(SuiteTest, FailureHourHistogramAggregates) {
  ExpectationSuite suite;
  suite.Expect<ExpectColumnValuesToNotBeNull>("v");
  auto r = suite.Validate(TestTuples());
  ASSERT_TRUE(r.ok());
  const auto hist = r.ValueOrDie().FailureHourHistogram();
  // Tuple 3 sits at hour 3 of 1970-01-01.
  EXPECT_EQ(hist[3], 1u);
}

TEST(SuiteTest, ReportMentionsEachExpectation) {
  ExpectationSuite suite;
  suite.Expect<ExpectColumnValuesToNotBeNull>("v")
      .Expect<ExpectColumnMeanToBeBetween>("v", 0.0, 100.0);
  auto r = suite.Validate(TestTuples());
  ASSERT_TRUE(r.ok());
  const std::string report = r.ValueOrDie().ToReport();
  EXPECT_NE(report.find("expect_column_values_to_not_be_null"),
            std::string::npos);
  EXPECT_NE(report.find("expect_column_mean_to_be_between"),
            std::string::npos);
  EXPECT_NE(report.find("[FAIL]"), std::string::npos);
  EXPECT_NE(report.find("[ OK ]"), std::string::npos);
  EXPECT_NE(report.find("observed="), std::string::npos);
}

TEST(SuiteTest, ErrorInOneExpectationAborts) {
  ExpectationSuite suite;
  suite.Expect<ExpectColumnValuesToNotBeNull>("no_such_column");
  EXPECT_EQ(suite.Validate(TestTuples()).status().code(),
            StatusCode::kNotFound);
}

TEST(SuiteTest, EmptySuiteSucceeds) {
  ExpectationSuite suite;
  auto r = suite.Validate(TestTuples());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().success());
}

TEST(SuiteTest, PublishSuiteResultExportsPassFailCounters) {
  ExpectationSuite suite("demo");
  suite.Expect<ExpectColumnValuesToNotBeNull>("v")       // fails (1 NULL)
      .Expect<ExpectColumnValuesToBeIncreasing>("ts");   // passes
  auto r = suite.Validate(TestTuples());
  ASSERT_TRUE(r.ok());
  obs::MetricRegistry registry;
  PublishSuiteResult(r.ValueOrDie(), suite.name(), &registry);
  obs::Counter* passed = registry.GetCounter(
      "icewafl_dq_expectations_total", {{"suite", "demo"}, {"result", "pass"}});
  obs::Counter* failed = registry.GetCounter(
      "icewafl_dq_expectations_total", {{"suite", "demo"}, {"result", "fail"}});
  ASSERT_NE(passed, nullptr);
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(passed->value(), 1u);
  EXPECT_EQ(failed->value(), 1u);
  obs::Counter* unexpected = registry.GetCounter(
      "icewafl_dq_unexpected_total",
      {{"suite", "demo"},
       {"expectation", "expect_column_values_to_not_be_null"},
       {"column", "v"}});
  ASSERT_NE(unexpected, nullptr);
  EXPECT_EQ(unexpected->value(), 1u);
  // Null registry is a no-op, not a crash.
  PublishSuiteResult(r.ValueOrDie(), suite.name(), nullptr);
}

}  // namespace
}  // namespace dq
}  // namespace icewafl
