#include "clean/cleaner.h"

#include <gtest/gtest.h>

#include "../core/golden_digest.h"
#include "clean/config.h"
#include "io/csv.h"
#include "util/rng.h"
#include "../support/config_text.h"

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

CleaningRules LoadRules(const std::string& text, const SchemaPtr& schema) {
  Result<CleaningRules> rules = RulesFromText(text, schema);
  EXPECT_TRUE(rules.ok()) << rules.status().message();
  return std::move(rules).ValueOrDie();
}

Result<TupleVector> RunClean(const CleaningRules& rules, TupleVector input,
                             RepairLog* log = nullptr,
                             CleanStats* stats = nullptr,
                             obs::MetricRegistry* metrics = nullptr) {
  VectorSink sink;
  ICEWAFL_RETURN_NOT_OK(
      CleanTuples(rules, std::move(input), &sink, metrics, log, stats));
  return sink.TakeTuples();
}

TEST(CleanerOperatorTest, DropRemovesViolatingTuples) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "range", "min": 20, "max": 250},
          "repair": "drop"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(900.0), 0, Value(0.0)));
  input.push_back(Row(schema, 2, Value(75.0), 0, Value(0.0)));

  CleanStats stats;
  RepairLog log;
  Result<TupleVector> out = RunClean(rules, std::move(input), &log, &stats);
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_EQ(out.ValueOrDie().size(), 2u);
  EXPECT_EQ(out.ValueOrDie()[0].id(), 0u);
  EXPECT_EQ(out.ValueOrDie()[1].id(), 2u);
  EXPECT_EQ(stats.tuples_in, 3u);
  EXPECT_EQ(stats.tuples_out, 2u);
  EXPECT_EQ(stats.tuples_dropped, 1u);
  EXPECT_EQ(stats.fired, 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries()[0].tuple_id, 1u);
  EXPECT_EQ(log.entries()[0].rule, "bpm");
  EXPECT_EQ(log.entries()[0].action, "drop");
}

TEST(CleanerOperatorTest, SetNullAndClampRepairInPlace) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [
        {"label": "clamp_bpm", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "clamp"},
        {"label": "null_dist", "column": "Distance",
         "detect": {"type": "range", "min": 0, "max": 50},
         "repair": "set_null"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(900.0), 0, Value(120000.0)));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 1u);
  const Tuple& t = out.ValueOrDie()[0];
  EXPECT_DOUBLE_EQ(t.value(1).ToDouble().ValueOrDie(), 250.0);
  EXPECT_TRUE(t.value(3).is_null());
}

TEST(CleanerOperatorTest, LastGoodUsesAcceptedHistory) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "last_good"}]})",
      schema);
  TupleVector input;
  // First tuple already NULL: empty history, repair degrades to NULL.
  input.push_back(Row(schema, 0, Value::Null(), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(70.0), 0, Value(0.0)));
  input.push_back(Row(schema, 2, Value::Null(), 0, Value(0.0)));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.ValueOrDie().size(), 3u);
  EXPECT_TRUE(out.ValueOrDie()[0].value(1).is_null());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[2].value(1).ToDouble().ValueOrDie(), 70.0);
}

TEST(CleanerOperatorTest, WindowMeanAndMedianImpute) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"history": 4,
          "rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "range", "min": 20, "max": 250},
          "repair": "window_mean"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(60.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(80.0), 0, Value(0.0)));
  input.push_back(Row(schema, 2, Value(1000.0), 0, Value(0.0)));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[2].value(1).ToDouble().ValueOrDie(), 70.0);
}

TEST(CleanerOperatorTest, RepairedValueEntersHistoryNotThePollutedOne) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"history": 8,
          "rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "range", "min": 20, "max": 250},
          "repair": "last_good"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(1000.0), 0, Value(0.0)));
  // If 1000 had entered the history, this repair would yield 1000.
  input.push_back(Row(schema, 2, Value(2000.0), 0, Value(0.0)));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[1].value(1).ToDouble().ValueOrDie(), 70.0);
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[2].value(1).ToDouble().ValueOrDie(), 70.0);
}

TEST(CleanerOperatorTest, EarlierRuleRepairsBeforeLaterRuleSees) {
  SchemaPtr schema = WearableLikeSchema();
  // Canonical order: clamp (stateless) runs before the stateful
  // rate_of_change rule whatever their document order, so the clamped
  // value is what rate-of-change compares — it must not fire on the
  // already-repaired 250.
  const std::string clamp = R"({"label": "clamp_bpm", "column": "BPM",
      "detect": {"type": "range", "min": 20, "max": 250},
      "repair": "clamp"})";
  const std::string jump = R"({"label": "jump", "column": "BPM",
      "detect": {"type": "rate_of_change", "max_change": 300},
      "repair": "last_good"})";
  for (const std::string& order :
       {clamp + "," + jump, jump + "," + clamp}) {
    SCOPED_TRACE(order);
    CleaningRules rules =
        LoadRules(R"({"rules": [)" + order + "]}", schema);
    TupleVector input;
    input.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0)));
    input.push_back(Row(schema, 1, Value(9000.0), 0, Value(0.0)));
    CleanStats stats;
    Result<TupleVector> out =
        RunClean(rules, std::move(input), nullptr, &stats);
    ASSERT_TRUE(out.ok());
    EXPECT_DOUBLE_EQ(out.ValueOrDie()[1].value(1).ToDouble().ValueOrDie(),
                     250.0);
    ASSERT_EQ(stats.rules.size(), 2u);
    EXPECT_EQ(stats.rules[0].label, "clamp_bpm");
    EXPECT_EQ(stats.rules[0].fired, 1u);
    EXPECT_EQ(stats.rules[1].fired, 0u);
  }
}

TEST(CleanerOperatorTest, KeyPartitionsKeepSeparateHistories) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"key": "Device",
          "rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "last_good"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(60.0), 0, Value(0.0), "a"));
  input.push_back(Row(schema, 1, Value(90.0), 0, Value(0.0), "b"));
  input.push_back(Row(schema, 2, Value::Null(), 0, Value(0.0), "a"));
  input.push_back(Row(schema, 3, Value::Null(), 0, Value(0.0), "b"));
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[2].value(1).ToDouble().ValueOrDie(), 60.0);
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[3].value(1).ToDouble().ValueOrDie(), 90.0);
}

TEST(CleanerOperatorTest, GuardedRuleSkipsWhenPreconditionFails) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [{"label": "bpm_zero", "column": "BPM",
          "detect": {"type": "range", "min": 1, "max": 250},
          "repair": "set_null",
          "when": {"column": "Steps", "op": "gt", "value": 0}}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(0.0), 0, Value(0.0)));    // idle: keep
  input.push_back(Row(schema, 1, Value(0.0), 500, Value(0.0)));  // active
  Result<TupleVector> out = RunClean(rules, std::move(input));
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.ValueOrDie()[0].value(1).is_null());
  EXPECT_TRUE(out.ValueOrDie()[1].value(1).is_null());
}

TEST(CleanerOperatorTest, PerRuleCountersPublishedThroughRegistry) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"name": "unit", "rules": [
        {"label": "bpm", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "set_null"},
        {"label": "toss", "column": "Distance",
         "detect": {"type": "range", "min": 0, "max": 50},
         "repair": "drop"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(900.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(70.0), 0, Value(999.0)));
  obs::MetricRegistry registry;
  Result<TupleVector> out =
      RunClean(rules, std::move(input), nullptr, nullptr, &registry);
  ASSERT_TRUE(out.ok());
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("icewafl_cleaner_tuples_total"), std::string::npos);
  EXPECT_NE(text.find("icewafl_cleaner_fired_total"), std::string::npos);
  EXPECT_NE(text.find("icewafl_cleaner_repaired_total"), std::string::npos);
  EXPECT_NE(text.find("icewafl_cleaner_dropped_total"), std::string::npos);
  // Labeled per rule and per document.
  EXPECT_NE(text.find("rule=\"bpm\""), std::string::npos) << text;
  EXPECT_NE(text.find("rule=\"toss\""), std::string::npos) << text;
  EXPECT_NE(text.find("rules=\"unit\""), std::string::npos) << text;
  // Each input tuple is counted once, and each rule's series reads its
  // own firings.
  auto counter = [&](const char* name, obs::Labels labels) {
    obs::Counter* c = registry.GetCounter(name, std::move(labels));
    return c == nullptr ? uint64_t{0} : c->value();
  };
  EXPECT_EQ(counter("icewafl_cleaner_tuples_total", {{"rules", "unit"}}), 2u);
  std::vector<uint64_t> series;
  for (const char* rule : {"bpm", "toss"}) {
    const obs::Labels labels{{"rule", rule}, {"rules", "unit"}};
    for (const char* name :
         {"icewafl_cleaner_fired_total", "icewafl_cleaner_repaired_total",
          "icewafl_cleaner_dropped_total"}) {
      series.push_back(counter(name, labels));
    }
  }
  EXPECT_EQ(series, (std::vector<uint64_t>{1, 1, 0, 1, 0, 1}));
}

uint64_t CsvDigest(const SchemaPtr& schema, const TupleVector& tuples) {
  golden::Digest d;
  d.Str(ToCsvString(schema, tuples));
  return d.value();
}

uint64_t LogDigest(const RepairLog& log) {
  golden::Digest d;
  d.U64(log.size());
  for (const RepairLogEntry& e : log.entries()) {
    d.U64(e.tuple_id);
    d.Str(e.rule);
    d.Str(e.column);
    d.Str(e.action);
  }
  return d.value();
}

uint64_t StatsDigest(const CleanStats& stats) {
  golden::Digest d;
  for (uint64_t v : {stats.tuples_in, stats.tuples_out, stats.tuples_dropped,
                     stats.fired, stats.repaired}) {
    d.U64(v);
  }
  d.U64(stats.rules.size());
  for (const RuleStats& r : stats.rules) {
    d.Str(r.label);
    d.U64(r.fired);
    d.U64(r.repaired);
    d.U64(r.dropped);
  }
  return d.value();
}

// A document mixing pure and stateful rules over a stream with
// pollution sprinkled in: the digests pin every byte of the cleaned
// CSV, the repair log and the counters.
TEST(CleanTuplesTest, MixedDocumentOutputPinned) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"history": 8, "rules": [
        {"label": "drop_dist", "column": "Distance",
         "detect": {"type": "range", "min": 0, "max": 50},
         "repair": "drop"},
        {"label": "clamp_bpm", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "clamp"},
        {"label": "null_bpm", "column": "BPM",
         "detect": {"type": "not_null"}, "repair": "last_good"},
        {"label": "jump", "column": "BPM",
         "detect": {"type": "rate_of_change", "max_change": 50},
         "repair": "window_median"}]})",
      schema);

  Rng rng(7);
  TupleVector input;
  for (int64_t i = 0; i < 500; ++i) {
    Value bpm(60.0 + static_cast<double>(rng.Next() % 40));
    if (i % 17 == 0) bpm = Value::Null();
    if (i % 23 == 0) bpm = Value(1000.0);
    Value distance(static_cast<double>(rng.Next() % 10));
    if (i % 31 == 0) distance = Value(120000.0);
    input.push_back(Row(schema, i, std::move(bpm),
                        static_cast<int64_t>(rng.Next() % 100),
                        std::move(distance)));
  }

  RepairLog log;
  CleanStats stats;
  Result<TupleVector> out = RunClean(rules, std::move(input), &log, &stats);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_EQ(stats.tuples_in, 500u);
  EXPECT_EQ(stats.tuples_dropped, 17u);
  EXPECT_EQ(log.size(), 87u);
  EXPECT_EQ(CsvDigest(schema, out.ValueOrDie()), 0x2101d942268201d4ULL);
  EXPECT_EQ(LogDigest(log), 0xdb9ec6668330f212ULL);
  EXPECT_EQ(StatsDigest(stats), 0x598e58793ee45196ULL);
}

// A pure rule and a stateful rule publish into one registry; each input
// tuple is counted once. "toss" drops every tenth tuple (100); "jump"
// repairs every thirteenth tuple that survives the toss (77 - 8 = 69).
TEST(CleanTuplesTest, MixedDocumentCountersPinned) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"name": "count", "rules": [
        {"label": "toss", "column": "Distance",
         "detect": {"type": "range", "min": 0, "max": 50},
         "repair": "drop"},
        {"label": "jump", "column": "BPM",
         "detect": {"type": "rate_of_change", "max_change": 30},
         "repair": "last_good"}]})",
      schema);
  TupleVector input;
  for (int64_t i = 0; i < 1000; ++i) {
    input.push_back(Row(schema, i, Value(i % 13 == 0 ? 200.0 : 70.0), 0,
                        Value(i % 10 == 0 ? 90.0 : 1.0)));
  }
  obs::MetricRegistry registry;
  ASSERT_TRUE(
      RunClean(rules, std::move(input), nullptr, nullptr, &registry).ok());
  auto counter = [&](const char* name, obs::Labels labels) {
    obs::Counter* c = registry.GetCounter(name, std::move(labels));
    return c == nullptr ? uint64_t{0} : c->value();
  };
  // {tuples, then fired/repaired/dropped of "toss" and of "jump"}.
  std::vector<uint64_t> series{
      counter("icewafl_cleaner_tuples_total", {{"rules", "count"}})};
  for (const char* rule : {"toss", "jump"}) {
    const obs::Labels labels{{"rule", rule}, {"rules", "count"}};
    for (const char* name :
         {"icewafl_cleaner_fired_total", "icewafl_cleaner_repaired_total",
          "icewafl_cleaner_dropped_total"}) {
      series.push_back(counter(name, labels));
    }
  }
  EXPECT_EQ(series, (std::vector<uint64_t>{1000, 100, 0, 100, 69, 69, 0}));
}

TEST(RepairLogTest, SortAndDistinctCount) {
  RepairLog log;
  log.Record({3, "r", "BPM", "set_null"});
  log.Record({1, "r", "BPM", "set_null"});
  log.Record({2, "s", "BPM", "drop"});
  log.Record({1, "s", "BPM", "drop"});
  log.SortByTuple();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.entries()[0].tuple_id, 1u);
  EXPECT_EQ(log.entries()[1].tuple_id, 1u);
  // Stable: within tuple 1, the earlier record stays first.
  EXPECT_EQ(log.entries()[0].rule, "r");
  EXPECT_EQ(log.entries()[1].rule, "s");
  EXPECT_EQ(log.entries()[3].tuple_id, 3u);
  EXPECT_EQ(log.DistinctTupleCount(), 3u);
  const Json json = log.ToJson();
  EXPECT_EQ(json.GetInt("count", 0), 4);
  EXPECT_EQ(json.Get("entries").ValueOrDie().size(), 4u);
}

}  // namespace
}  // namespace clean
}  // namespace icewafl
