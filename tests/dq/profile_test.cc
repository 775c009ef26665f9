#include "dq/profile.h"

#include <gtest/gtest.h>

#include "core/errors_value.h"
#include "core/process.h"
#include "data/wearable.h"

namespace icewafl {
namespace dq {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make({{"ts", ValueType::kInt64},
                       {"v", ValueType::kDouble},
                       {"label", ValueType::kString}},
                      "ts")
      .ValueOrDie();
}

TupleVector TestTuples() {
  SchemaPtr schema = TestSchema();
  TupleVector tuples;
  for (int i = 0; i < 10; ++i) {
    tuples.emplace_back(
        schema,
        std::vector<Value>{Value(int64_t{i}),
                           i == 9 ? Value::Null()
                                  : Value(10.0 + static_cast<double>(i)),
                           Value(i % 2 == 0 ? "even" : "odd")});
  }
  return tuples;
}

TEST(ProfileTest, BasicStatistics) {
  auto profiles = ProfileColumns(TestTuples());
  ASSERT_TRUE(profiles.ok());
  const auto& p = profiles.ValueOrDie();
  ASSERT_EQ(p.size(), 3u);

  EXPECT_EQ(p[0].column, "ts");
  EXPECT_EQ(p[0].total, 10u);
  EXPECT_EQ(p[0].nulls, 0u);
  EXPECT_DOUBLE_EQ(p[0].min, 0.0);
  EXPECT_DOUBLE_EQ(p[0].max, 9.0);

  EXPECT_EQ(p[1].nulls, 1u);
  EXPECT_EQ(p[1].numeric_count, 9u);
  EXPECT_DOUBLE_EQ(p[1].min, 10.0);
  EXPECT_DOUBLE_EQ(p[1].max, 18.0);
  EXPECT_DOUBLE_EQ(p[1].mean, 14.0);
  EXPECT_EQ(p[1].total, 10u);

  EXPECT_EQ(p[2].distinct, 2u);
  EXPECT_EQ(p[2].distinct_values,
            (std::vector<std::string>{"even", "odd"}));
}

TEST(ProfileTest, DistinctCapStopsTracking) {
  SchemaPtr schema = TestSchema();
  TupleVector tuples;
  for (int i = 0; i < 100; ++i) {
    // Built via append to dodge a GCC 12 -Wrestrict false positive
    // (PR105651) on operator+ with a short string literal.
    std::string label = "v";
    label += std::to_string(i);
    tuples.emplace_back(schema,
                        std::vector<Value>{Value(int64_t{i}), Value(1.0),
                                           Value(std::move(label))});
  }
  ProfileOptions options;
  options.distinct_cap = 10;
  auto profiles = ProfileColumns(tuples, options);
  ASSERT_TRUE(profiles.ok());
  EXPECT_TRUE(profiles.ValueOrDie()[2].distinct_exceeded);
  EXPECT_TRUE(profiles.ValueOrDie()[2].distinct_values.empty());
}

TEST(ProfileTest, TypeMismatchesCounted) {
  SchemaPtr schema = TestSchema();
  TupleVector tuples = TestTuples();
  tuples[0].set_value(1, Value("not a number"));
  auto profiles = ProfileColumns(tuples);
  ASSERT_TRUE(profiles.ok());
  EXPECT_EQ(profiles.ValueOrDie()[1].type_mismatches, 1u);
}

TEST(ProfileTest, EmptyStreamYieldsNoProfiles) {
  auto profiles = ProfileColumns({});
  ASSERT_TRUE(profiles.ok());
  EXPECT_TRUE(profiles.ValueOrDie().empty());
}

TEST(ProfileTest, ReportContainsColumns) {
  auto profiles = ProfileColumns(TestTuples());
  ASSERT_TRUE(profiles.ok());
  const std::string report = ProfilesToReport(profiles.ValueOrDie());
  EXPECT_NE(report.find("ts"), std::string::npos);
  EXPECT_NE(report.find("label"), std::string::npos);
  EXPECT_NE(report.find("14"), std::string::npos);  // mean of v
}

TEST(SuggestSuiteTest, CleanStreamPassesItsOwnSuite) {
  const TupleVector tuples = TestTuples();
  auto suite = SuggestSuite(tuples);
  ASSERT_TRUE(suite.ok());
  EXPECT_GT(suite.ValueOrDie().size(), 4u);
  auto result = suite.ValueOrDie().Validate(tuples);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().success())
      << result.ValueOrDie().ToReport();
}

TEST(SuggestSuiteTest, DetectsPollutionOfTheProfiledStream) {
  // Profile the clean wearable stream, then pollute it: the suggested
  // suite must flag the injected errors — the full
  // profile -> pollute -> detect loop.
  auto stream = data::GenerateWearable();
  ASSERT_TRUE(stream.ok());
  const TupleVector& clean = stream.ValueOrDie();
  auto suite = SuggestSuite(clean);
  ASSERT_TRUE(suite.ok());
  ASSERT_TRUE(suite.ValueOrDie().Validate(clean).ValueOrDie().success());

  PollutionPipeline pipeline("nulls");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "nuller", std::make_unique<MissingValueError>(),
      std::make_unique<RandomCondition>(0.2),
      std::vector<std::string>{"BPM"}));
  VectorSource source(clean.front().schema(), clean);
  auto polluted = PollutionProcess::Pollute(&source, std::move(pipeline), 5);
  ASSERT_TRUE(polluted.ok());
  auto result =
      suite.ValueOrDie().Validate(polluted.ValueOrDie().polluted);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.ValueOrDie().success());
  EXPECT_EQ(result.ValueOrDie().TotalUnexpected(),
            polluted.ValueOrDie().log.size());
}

TEST(SuggestSuiteTest, NoNotNullForColumnsWithNulls) {
  TupleVector tuples = TestTuples();  // column v has a NULL
  auto suite = SuggestSuite(tuples);
  ASSERT_TRUE(suite.ok());
  auto result = suite.ValueOrDie().Validate(tuples);
  ASSERT_TRUE(result.ok());
  for (const auto& r : result.ValueOrDie().results) {
    if (r.expectation == "expect_column_values_to_not_be_null") {
      EXPECT_NE(r.column, "v");
    }
  }
}

}  // namespace
}  // namespace dq
}  // namespace icewafl
