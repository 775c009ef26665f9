#include "clean/config.h"
#include "../support/config_text.h"

#include <gtest/gtest.h>

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

Result<CleaningRules> Load(const std::string& text) {
  return RulesFromText(text);
}

TEST(CleanConfigTest, LoadsEveryDetectTypeAndRepair) {
  Result<CleaningRules> rules = Load(R"({
    "name": "all", "key": "Device", "history": 8,
    "rules": [
      {"label": "a", "column": "BPM",
       "detect": {"type": "range", "min": 20, "max": 250},
       "repair": "clamp"},
      {"label": "b", "column": "BPM",
       "detect": {"type": "not_null"}, "repair": "last_good"},
      {"label": "c", "column": "Distance",
       "detect": {"type": "regex", "pattern": "\\d+"},
       "repair": "set_null"},
      {"label": "d", "column": "BPM",
       "detect": {"type": "type", "value_type": "double"},
       "repair": "drop"},
      {"label": "e", "column": "Distance",
       "detect": {"type": "cross_field", "op": "le", "other": "Steps"},
       "repair": "window_mean"},
      {"label": "f", "column": "BPM",
       "detect": {"type": "rate_of_change", "max_change": 30},
       "repair": "window_median"},
      {"label": "g", "column": "BPM",
       "detect": {"type": "stuck_at", "min_repeats": 3},
       "repair": "set_null",
       "when": {"column": "Steps", "op": "gt", "value": 0}}
    ]})");
  ASSERT_TRUE(rules.ok()) << rules.status().message();
  const CleaningRules& r = rules.ValueOrDie();
  EXPECT_EQ(r.name, "all");
  EXPECT_EQ(r.key, "Device");
  EXPECT_EQ(r.history, 8u);
  ASSERT_EQ(r.rules.size(), 7u);
  EXPECT_STREQ(r.rules[0]->type(), "range");
  EXPECT_STREQ(r.rules[1]->type(), "not_null");
  EXPECT_STREQ(r.rules[2]->type(), "regex");
  EXPECT_STREQ(r.rules[3]->type(), "type");
  EXPECT_STREQ(r.rules[4]->type(), "cross_field");
  EXPECT_STREQ(r.rules[5]->type(), "rate_of_change");
  EXPECT_STREQ(r.rules[6]->type(), "stuck_at");
  EXPECT_EQ(r.rules[6]->guards().size(), 1u);
}

TEST(CleanConfigTest, RoundTripsThroughToJson) {
  Result<CleaningRules> rules = Load(R"({
    "name": "rt", "history": 4,
    "rules": [
      {"label": "a", "column": "BPM",
       "detect": {"type": "range", "min": 20, "max": 250},
       "repair": "clamp",
       "when": [{"column": "Steps", "op": "gt", "value": 0}]}
    ]})");
  ASSERT_TRUE(rules.ok()) << rules.status().message();
  Result<CleaningRules> again = RulesFromJson(rules.ValueOrDie().ToJson());
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again.ValueOrDie().ToJson().Dump(),
            rules.ValueOrDie().ToJson().Dump());
}

TEST(CleanConfigTest, DefaultsNameAndHistory) {
  Result<CleaningRules> rules = Load(R"({"rules": []})");
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules.ValueOrDie().name, "clean");
  EXPECT_EQ(rules.ValueOrDie().history, 16u);
  EXPECT_TRUE(rules.ValueOrDie().key.empty());
}

// Every rejection names the offending fragment with a JSON pointer.
TEST(CleanConfigTest, ErrorsCarryJsonPointers) {
  struct Case {
    const char* doc;
    const char* pointer;
  };
  const Case cases[] = {
      {R"({"rules": [{"column": "BPM", "detect": {"type": "not_null"},
          "repair": "drop"}]})",
       "/rules/0"},  // missing label
      {R"({"rules": [{"label": "a", "column": "BPM", "repair": "drop"}]})",
       "/rules/0/detect"},
      {R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "range", "min": 9, "max": 1},
          "repair": "drop"}]})",
       "/rules/0/detect/min"},
      {R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "teleport"}, "repair": "drop"}]})",
       "/rules/0/detect/type"},
      {R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "mend"}]})",
       "/rules/0/repair"},
      {R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "clamp"}]})",
       "/rules/0/repair"},  // clamp without range bounds
      {R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "rate_of_change", "max_change": 0},
          "repair": "drop"}]})",
       "/rules/0/detect/max_change"},
      {R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "stuck_at", "min_repeats": 1},
          "repair": "drop"}]})",
       "/rules/0/detect/min_repeats"},
      {R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "drop",
          "when": [{"column": "Steps", "op": "sideways", "value": 0}]}]})",
       "/rules/0/when/0/op"},
      {R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "drop",
          "when": 7}]})",
       "/rules/0/when"},
  };
  for (const Case& c : cases) {
    Result<CleaningRules> rules = Load(c.doc);
    ASSERT_FALSE(rules.ok()) << c.doc;
    EXPECT_NE(rules.status().message().find(c.pointer), std::string::npos)
        << "expected pointer " << c.pointer << " in: "
        << rules.status().message();
  }
}

TEST(CleanConfigTest, DocumentShapeErrors) {
  EXPECT_FALSE(Load("[1, 2]").ok());
  EXPECT_FALSE(Load(R"({"name": "x"})").ok());           // missing rules
  EXPECT_FALSE(Load(R"({"rules": {}})").ok());           // rules not array
  EXPECT_FALSE(Load(R"({"history": 0, "rules": []})").ok());
  EXPECT_FALSE(Load(R"({"key": 5, "rules": []})").ok());
  EXPECT_FALSE(Load("{not json").ok());
}

TEST(CleanConfigTest, BindSchemaValidatesColumns) {
  SchemaPtr schema = WearableLikeSchema();
  Result<CleaningRules> good = RulesFromText(
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "range", "min": 20, "max": 250},
          "repair": "set_null"}]})",
      schema);
  EXPECT_TRUE(good.ok()) << good.status().message();

  Result<CleaningRules> bad = RulesFromText(
      R"({"rules": [{"label": "a", "column": "Heartrate",
          "detect": {"type": "range", "min": 20, "max": 250},
          "repair": "set_null"}]})",
      schema);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("/rules/0"), std::string::npos)
      << bad.status().message();

  // Unknown key column is also a bind error, at /key.
  Result<CleaningRules> bad_key = RulesFromText(
      R"({"key": "Sensor", "rules": []})", schema);
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.status().message().find("/key"), std::string::npos)
      << bad_key.status().message();
}

}  // namespace
}  // namespace clean
}  // namespace icewafl
