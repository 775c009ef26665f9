#include "clean/cleaner.h"

#include <gtest/gtest.h>

#include "clean/config.h"
#include "io/csv.h"
#include "util/rng.h"

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
  Result<CleaningRules> rules = RulesFromJsonString(text, schema);
  EXPECT_TRUE(rules.ok()) << rules.status().message();
  return std::move(rules).ValueOrDie();
}

Result<TupleVector> RunClean(const CleaningRules& rules, TupleVector input,
                             int parallelism = 1, RepairLog* log = nullptr,
                             CleanStats* stats = nullptr,
                             obs::MetricRegistry* metrics = nullptr) {
  VectorSink sink;
  ICEWAFL_RETURN_NOT_OK(CleanTuples(rules, std::move(input), parallelism,
                                    &sink, metrics, log, stats));
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
  Result<TupleVector> out = RunClean(rules, std::move(input), 1, &log, &stats);
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
  // rate_of_change rule, so the clamped value is what rate-of-change
  // compares — it must not fire on the already-repaired 250.
  CleaningRules rules = LoadRules(
      R"({"rules": [
        {"label": "clamp_bpm", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "clamp"},
        {"label": "jump", "column": "BPM",
         "detect": {"type": "rate_of_change", "max_change": 300},
         "repair": "last_good"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0)));
  input.push_back(Row(schema, 1, Value(9000.0), 0, Value(0.0)));
  CleanStats stats;
  Result<TupleVector> out =
      RunClean(rules, std::move(input), 1, nullptr, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.ValueOrDie()[1].value(1).ToDouble().ValueOrDie(), 250.0);
  ASSERT_EQ(stats.rules.size(), 2u);
  EXPECT_EQ(stats.rules[0].fired, 1u);
  EXPECT_EQ(stats.rules[1].fired, 0u);
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
      RunClean(rules, std::move(input), 1, nullptr, nullptr, &registry);
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
}

// The determinism contract: byte-identical output at every parallelism,
// including documents mixing pure and stateful rules (the split runner)
// and pure-only documents (fully parallel path).
TEST(CleanTuplesTest, ByteIdenticalAcrossParallelism) {
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

  // A deterministic pseudo-random stream with pollution sprinkled in.
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

  RepairLog log1;
  CleanStats stats1;
  Result<TupleVector> p1 = RunClean(rules, input, 1, &log1, &stats1);
  ASSERT_TRUE(p1.ok()) << p1.status().message();
  const std::string golden = ToCsvString(schema, p1.ValueOrDie());
  ASSERT_GT(stats1.fired, 0u);
  ASSERT_GT(stats1.tuples_dropped, 0u);

  for (int parallelism : {2, 4}) {
    RepairLog log;
    CleanStats stats;
    Result<TupleVector> pn = RunClean(rules, input, parallelism, &log, &stats);
    ASSERT_TRUE(pn.ok()) << pn.status().message();
    EXPECT_EQ(ToCsvString(schema, pn.ValueOrDie()), golden)
        << "parallelism " << parallelism;
    EXPECT_EQ(stats.fired, stats1.fired) << "parallelism " << parallelism;
    EXPECT_EQ(stats.tuples_dropped, stats1.tuples_dropped);
    // Merged per-worker logs equal the sequential log after the sort.
    ASSERT_EQ(log.size(), log1.size());
    EXPECT_EQ(log.entries(), log1.entries());
  }
}

TEST(CleanTuplesTest, PureOnlyDocumentRunsParallel) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [
        {"label": "clamp_bpm", "column": "BPM",
         "detect": {"type": "range", "min": 20, "max": 250},
         "repair": "clamp"},
        {"label": "drop_dist", "column": "Distance",
         "detect": {"type": "range", "min": 0, "max": 50},
         "repair": "drop"}]})",
      schema);
  ASSERT_TRUE(rules.HasStateless());
  ASSERT_FALSE(rules.HasStateful());

  TupleVector input;
  for (int64_t i = 0; i < 200; ++i) {
    input.push_back(Row(schema, i, Value(i % 5 == 0 ? 500.0 : 70.0), 0,
                        Value(i % 7 == 0 ? 90.0 : 1.0)));
  }
  Result<TupleVector> p1 = RunClean(rules, input, 1);
  Result<TupleVector> p4 = RunClean(rules, input, 4);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p4.ok());
  EXPECT_EQ(ToCsvString(schema, p1.ValueOrDie()),
            ToCsvString(schema, p4.ValueOrDie()));
}

// The split runner's stateless workers and stateful tail both publish
// into one registry; each input tuple is still counted once, and every
// rule's series reads the same at any parallelism.
TEST(CleanTuplesTest, CountersIdenticalAcrossParallelism) {
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
  ASSERT_TRUE(rules.HasStateless());
  ASSERT_TRUE(rules.HasStateful());
  TupleVector input;
  for (int64_t i = 0; i < 1000; ++i) {
    input.push_back(Row(schema, i, Value(i % 13 == 0 ? 200.0 : 70.0), 0,
                        Value(i % 10 == 0 ? 90.0 : 1.0)));
  }
  // {tuples, then fired/repaired/dropped of "toss" and of "jump"}.
  auto run = [&](int parallelism) {
    obs::MetricRegistry registry;
    EXPECT_TRUE(
        RunClean(rules, input, parallelism, nullptr, nullptr, &registry).ok());
    auto counter = [&](const char* name, obs::Labels labels) {
      obs::Counter* c = registry.GetCounter(name, std::move(labels));
      return c == nullptr ? uint64_t{0} : c->value();
    };
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
    return series;
  };
  const std::vector<uint64_t> sequential = run(1);
  EXPECT_EQ(sequential[0], 1000u);
  EXPECT_GT(sequential[3], 0u);  // "toss" dropped
  EXPECT_GT(sequential[5], 0u);  // "jump" repaired
  for (int parallelism : {2, 4}) {
    const std::vector<uint64_t> parallel = run(parallelism);
    EXPECT_EQ(parallel[0], 1000u) << "parallelism " << parallelism;
    EXPECT_EQ(parallel, sequential) << "parallelism " << parallelism;
  }
}

TEST(CleanTuplesTest, RejectsZeroParallelism) {
  SchemaPtr schema = WearableLikeSchema();
  CleaningRules rules = LoadRules(
      R"({"rules": [{"label": "bpm", "column": "BPM",
          "detect": {"type": "range", "min": 20, "max": 250},
          "repair": "drop"}]})",
      schema);
  TupleVector input;
  input.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0)));
  EXPECT_EQ(RunClean(rules, std::move(input), 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RepairLogTest, MergeSortAndDistinctCount) {
  RepairLog a;
  a.Record({3, "r", "BPM", "set_null"});
  a.Record({1, "r", "BPM", "set_null"});
  RepairLog b;
  b.Record({2, "s", "BPM", "drop"});
  b.Record({1, "s", "BPM", "drop"});
  a.Merge(b);
  a.SortByTuple();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.entries()[0].tuple_id, 1u);
  EXPECT_EQ(a.entries()[1].tuple_id, 1u);
  // Stable: within tuple 1, log-a's entry precedes log-b's.
  EXPECT_EQ(a.entries()[0].rule, "r");
  EXPECT_EQ(a.entries()[1].rule, "s");
  EXPECT_EQ(a.entries()[3].tuple_id, 3u);
  EXPECT_EQ(a.DistinctTupleCount(), 3u);
  const Json json = a.ToJson();
  EXPECT_EQ(json.GetInt("count", 0), 4);
  EXPECT_EQ(json.Get("entries").ValueOrDie().size(), 4u);
}

}  // namespace
}  // namespace clean
}  // namespace icewafl
