#include "dq/config.h"
#include "../support/config_text.h"

#include <gtest/gtest.h>

namespace icewafl {
namespace dq {
namespace {

TEST(DqConfigTest, AllExpectationTypesParse) {
  const char* kTypes[] = {
      R"({"type":"expect_column_values_to_not_be_null","column":"a"})",
      R"({"type":"expect_column_values_to_be_null","column":"a"})",
      R"({"type":"expect_column_values_to_be_between","column":"a","min":0,"max":1})",
      R"({"type":"expect_column_values_to_match_regex","column":"a","regex":"\\d+"})",
      R"({"type":"expect_column_values_to_be_increasing","column":"a"})",
      R"({"type":"expect_column_values_to_be_increasing","column":"a","strictly":false})",
      R"({"type":"expect_column_pair_values_a_to_be_greater_than_b","column_a":"a","column_b":"b","or_equal":true})",
      R"({"type":"expect_multicolumn_sum_to_equal","columns":["a","b"],"total":0})",
      R"({"type":"expect_multicolumn_sum_to_equal","columns":["a"],"total":0,"where_column":"c","where_value":0})",
      R"({"type":"expect_column_values_to_be_in_set","column":"a","values":["x","y"]})",
      R"({"type":"expect_column_values_to_be_unique","column":"a"})",
      R"({"type":"expect_column_mean_to_be_between","column":"a","min":0,"max":1})",
      R"({"type":"expect_column_stdev_to_be_between","column":"a","min":0,"max":1})",
      R"({"type":"expect_column_value_lengths_to_be_between","column":"a","min_length":1,"max_length":10})",
      R"({"type":"expect_column_values_to_be_of_type","column":"a","value_type":"double"})",
  };
  for (const char* text : kTypes) {
    auto json = Json::Parse(text);
    ASSERT_TRUE(json.ok()) << text;
    auto expectation = ExpectationFromJson(json.ValueOrDie());
    ASSERT_TRUE(expectation.ok())
        << text << ": " << expectation.status().ToString();
  }
}

TEST(DqConfigTest, UnknownTypeAndMissingFieldsRejected) {
  EXPECT_FALSE(
      ExpectationFromJson(Json::Parse(R"({"type":"zap"})").ValueOrDie()).ok());
  EXPECT_FALSE(ExpectationFromJson(
                   Json::Parse(R"({"type":"expect_column_values_to_not_be_null"})")
                       .ValueOrDie())
                   .ok());
  EXPECT_FALSE(
      ExpectationFromJson(
          Json::Parse(
              R"({"type":"expect_column_values_to_be_between","column":"a"})")
              .ValueOrDie())
          .ok());
}

TEST(DqConfigTest, SuiteParsesAndValidates) {
  auto suite = SuiteFromText(R"({
    "name": "checks",
    "expectations": [
      {"type": "expect_column_values_to_not_be_null", "column": "v"},
      {"type": "expect_column_values_to_be_between", "column": "v",
       "min": 0, "max": 100}
    ]
  })");
  ASSERT_TRUE(suite.ok()) << suite.status().ToString();
  EXPECT_EQ(suite.ValueOrDie().name(), "checks");
  EXPECT_EQ(suite.ValueOrDie().size(), 2u);

  SchemaPtr schema =
      Schema::Make({{"ts", ValueType::kInt64}, {"v", ValueType::kDouble}},
                   "ts")
          .ValueOrDie();
  TupleVector tuples;
  tuples.emplace_back(schema,
                      std::vector<Value>{Value(int64_t{0}), Value(50.0)});
  tuples.emplace_back(schema,
                      std::vector<Value>{Value(int64_t{1}), Value(200.0)});
  tuples.emplace_back(schema,
                      std::vector<Value>{Value(int64_t{2}), Value::Null()});
  auto result = suite.ValueOrDie().Validate(tuples);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().TotalUnexpected(), 2u);  // null + range
}

TEST(DqConfigTest, WhereClauseApplied) {
  auto suite = SuiteFromText(R"({
    "expectations": [
      {"type": "expect_multicolumn_sum_to_equal", "columns": ["v"],
       "total": 0, "where_column": "flag", "where_value": 1}
    ]
  })");
  ASSERT_TRUE(suite.ok());
  SchemaPtr schema = Schema::Make({{"ts", ValueType::kInt64},
                                   {"v", ValueType::kDouble},
                                   {"flag", ValueType::kInt64}},
                                  "ts")
                         .ValueOrDie();
  TupleVector tuples;
  tuples.emplace_back(schema, std::vector<Value>{Value(int64_t{0}),
                                                 Value(5.0), Value(0)});
  tuples.emplace_back(schema, std::vector<Value>{Value(int64_t{1}),
                                                 Value(5.0), Value(1)});
  auto result = suite.ValueOrDie().Validate(tuples);
  ASSERT_TRUE(result.ok());
  // Only the flag==1 tuple is evaluated; its sum 5 != 0.
  EXPECT_EQ(result.ValueOrDie().results[0].evaluated, 1u);
  EXPECT_EQ(result.ValueOrDie().TotalUnexpected(), 1u);
}

TEST(DqConfigTest, EveryExpectationRoundTripsThroughJson) {
  const char* kTypes[] = {
      R"({"type":"expect_column_values_to_not_be_null","column":"a"})",
      R"({"type":"expect_column_values_to_be_null","column":"a"})",
      R"({"type":"expect_column_values_to_be_between","column":"a","min":0,"max":1})",
      R"({"type":"expect_column_values_to_match_regex","column":"a","regex":"\\d+"})",
      R"({"type":"expect_column_values_to_be_increasing","column":"a","strictly":false})",
      R"({"type":"expect_column_pair_values_a_to_be_greater_than_b","column_a":"a","column_b":"b","or_equal":true})",
      R"({"type":"expect_multicolumn_sum_to_equal","columns":["a"],"total":0,"tolerance":0.5,"where_column":"c","where_value":0})",
      R"({"type":"expect_column_values_to_be_in_set","column":"a","values":["x","y"]})",
      R"({"type":"expect_column_values_to_be_unique","column":"a"})",
      R"({"type":"expect_column_mean_to_be_between","column":"a","min":0,"max":1})",
      R"({"type":"expect_column_stdev_to_be_between","column":"a","min":0,"max":1})",
      R"({"type":"expect_column_value_lengths_to_be_between","column":"a","min_length":1,"max_length":10})",
      R"({"type":"expect_column_values_to_be_of_type","column":"a","value_type":"double"})",
  };
  for (const char* text : kTypes) {
    auto parsed = ExpectationFromJson(Json::Parse(text).ValueOrDie());
    ASSERT_TRUE(parsed.ok()) << text;
    auto reparsed = ExpectationFromJson(parsed.ValueOrDie()->ToJson());
    ASSERT_TRUE(reparsed.ok())
        << text << ": " << reparsed.status().ToString();
    EXPECT_EQ(reparsed.ValueOrDie()->ToJson(),
              parsed.ValueOrDie()->ToJson())
        << text;
  }
}

TEST(DqConfigTest, SuiteRoundTripsThroughJson) {
  auto suite = SuiteFromText(R"({
    "name": "roundtrip",
    "expectations": [
      {"type": "expect_column_values_to_not_be_null", "column": "v"},
      {"type": "expect_column_values_to_be_unique", "column": "id"}
    ]
  })");
  ASSERT_TRUE(suite.ok());
  auto reparsed = SuiteFromJson(suite.ValueOrDie().ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.ValueOrDie().ToJson(), suite.ValueOrDie().ToJson());
  EXPECT_EQ(reparsed.ValueOrDie().name(), "roundtrip");
}

TEST(DqConfigTest, MalformedSuiteRejected) {
  EXPECT_FALSE(SuiteFromText("{oops").ok());
  EXPECT_FALSE(SuiteFromText(R"({"expectations": 5})").ok());
  EXPECT_FALSE(SuiteFromText("{}").ok());
  EXPECT_FALSE(SuiteFromConfigFile("/no/such/suite.json").ok());
}

}  // namespace
}  // namespace dq
}  // namespace icewafl
