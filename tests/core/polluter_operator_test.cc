#include "core/polluter_operator.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/errors_numeric.h"
#include "core/errors_temporal.h"
#include "core/errors_value.h"
#include "core/duplicating_operator.h"
#include "core/keyed_polluter_operator.h"
#include "stream/runtime.h"

namespace icewafl {
namespace {

SchemaPtr KeyedSchema() {
  return Schema::Make({{"ts", ValueType::kInt64},
                       {"sensor", ValueType::kString},
                       {"temp", ValueType::kDouble}},
                      "ts")
      .ValueOrDie();
}

/// Interleaved readings from two sensors: A ramps up, B ramps down.
TupleVector InterleavedStream(const SchemaPtr& schema, int hours) {
  TupleVector tuples;
  for (int h = 0; h < hours; ++h) {
    for (const char* sensor : {"A", "B"}) {
      const double temp = sensor[0] == 'A' ? 10.0 + h : 90.0 - h;
      tuples.emplace_back(
          schema, std::vector<Value>{Value(int64_t{h} * kSecondsPerHour),
                                     Value(sensor), Value(temp)});
    }
  }
  return tuples;
}

PollutionPipeline NullPipeline(double p) {
  PollutionPipeline pipeline("nulls");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "nuller", std::make_unique<MissingValueError>(),
      std::make_unique<RandomCondition>(p),
      std::vector<std::string>{"temp"}));
  return pipeline;
}

TEST(PolluterOperatorTest, PollutesWithinTopology) {
  SchemaPtr schema = KeyedSchema();
  VectorSource source(schema, InterleavedStream(schema, 50));
  PollutionLog log;
  PolluterOperator op(NullPipeline(1.0), /*seed=*/1, 0, 0, &log);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  ASSERT_EQ(sink.tuples().size(), 100u);
  for (const Tuple& t : sink.tuples()) {
    EXPECT_TRUE(t.value(2).is_null());
  }
  EXPECT_EQ(log.size(), 100u);
}

TEST(PolluterOperatorTest, AssignsIdsWhenUpstreamDidNot) {
  SchemaPtr schema = KeyedSchema();
  VectorSource source(schema, InterleavedStream(schema, 10));
  PolluterOperator op(NullPipeline(0.0), 1);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  std::set<TupleId> ids;
  for (const Tuple& t : sink.tuples()) {
    EXPECT_NE(t.id(), kInvalidTupleId);
    ids.insert(t.id());
  }
  EXPECT_EQ(ids.size(), sink.tuples().size());
}

TEST(PolluterOperatorTest, BindMetricsCountsSeenAndPolluted) {
  SchemaPtr schema = KeyedSchema();
  VectorSource source(schema, InterleavedStream(schema, 50));
  PolluterOperator op(NullPipeline(0.5), /*seed=*/1);
  obs::MetricRegistry registry;
  op.BindMetrics(&registry);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  ASSERT_EQ(sink.tuples().size(), 100u);
  uint64_t nulled = 0;
  for (const Tuple& t : sink.tuples()) {
    if (t.value(2).is_null()) ++nulled;
  }
  obs::Counter* seen =
      registry.GetCounter("icewafl_polluter_tuples_total", {{"pipeline",
                                                             "nulls"}});
  obs::Counter* polluted =
      registry.GetCounter("icewafl_polluter_polluted_total",
                          {{"pipeline", "nulls"}});
  ASSERT_NE(seen, nullptr);
  ASSERT_NE(polluted, nullptr);
  EXPECT_EQ(seen->value(), 100u);
  EXPECT_EQ(polluted->value(), nulled);
  EXPECT_GT(nulled, 0u);
  EXPECT_LT(nulled, 100u);
  // Finish published the per-polluter activation counts.
  obs::Counter* applied = registry.GetCounter(
      "icewafl_polluter_applied_total",
      {{"pipeline", "nulls"},
       {"polluter", "nuller"},
       {"error", "missing_value"},
       {"domain", "any"}});
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(applied->value(), nulled);
}

TEST(PolluterOperatorTest, UnboundMetricsProduceIdenticalOutput) {
  SchemaPtr schema = KeyedSchema();
  auto run = [&](bool instrument) {
    VectorSource source(schema, InterleavedStream(schema, 30));
    PolluterOperator op(NullPipeline(0.3), /*seed=*/7);
    obs::MetricRegistry registry;
    if (instrument) op.BindMetrics(&registry);
    VectorSink sink;
    EXPECT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
    std::vector<bool> nulls;
    for (const Tuple& t : sink.tuples()) nulls.push_back(t.value(2).is_null());
    return nulls;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(KeyedPolluterOperatorTest, FrozenValueStateIsPerKey) {
  // A frozen-value error applied to everything: with keyed pollution,
  // sensor A freezes on A's values and sensor B on B's; a non-keyed
  // polluter would leak values across the interleaved sensors.
  SchemaPtr schema = KeyedSchema();
  PollutionPipeline pipeline("freeze");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "freezer", std::make_unique<FrozenValueError>(1000000),
      std::make_unique<AlwaysCondition>(),
      std::vector<std::string>{"temp"}));
  VectorSource source(schema, InterleavedStream(schema, 20));
  KeyedPolluterOperator op(std::move(pipeline), "sensor", /*seed=*/1);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  EXPECT_EQ(op.num_partitions(), 2u);
  // Frozen per key: after warmup, A tuples all repeat an A value (10-30
  // range) and B tuples a B value (70-90 range).
  for (const Tuple& t : sink.tuples()) {
    if (t.id() < 4) continue;  // first tuples per key cannot freeze
    const double v = t.value(2).AsDouble();
    if (t.value(1).AsString() == "A") {
      EXPECT_LT(v, 40.0) << t.ToString();
    } else {
      EXPECT_GT(v, 60.0) << t.ToString();
    }
  }
}

TEST(KeyedPolluterOperatorTest, OutputIndependentOfKeyInterleaving) {
  SchemaPtr schema = KeyedSchema();
  // Same logical tuples, two different interleavings.
  TupleVector interleaved = InterleavedStream(schema, 30);
  TupleVector grouped;
  for (const char* sensor : {"A", "B"}) {
    for (const Tuple& t : interleaved) {
      if (t.Get("sensor").ValueOrDie().AsString() == sensor) {
        grouped.push_back(t);
      }
    }
  }
  auto run = [&](const TupleVector& stream) {
    VectorSource source(schema, stream);
    KeyedPolluterOperator op(NullPipeline(0.5), "sensor", /*seed=*/9);
    VectorSink sink;
    EXPECT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
    // Record per (sensor, ts) whether the value was nulled.
    std::map<std::pair<std::string, Timestamp>, bool> out;
    for (const Tuple& t : sink.tuples()) {
      out[{t.Get("sensor").ValueOrDie().AsString(),
           t.GetTimestamp().ValueOrDie()}] = t.value(2).is_null();
    }
    return out;
  };
  EXPECT_EQ(run(interleaved), run(grouped));
}

TEST(KeyedPolluterOperatorTest, AppliedCountsAggregateAcrossPartitions) {
  SchemaPtr schema = KeyedSchema();
  VectorSource source(schema, InterleavedStream(schema, 40));
  KeyedPolluterOperator op(NullPipeline(1.0), "sensor", 3);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  EXPECT_EQ(op.AppliedCounts()["nuller"], 80u);
}

TEST(KeyedPolluterOperatorTest, MissingKeyAttributeFails) {
  SchemaPtr schema = KeyedSchema();
  VectorSource source(schema, InterleavedStream(schema, 2));
  KeyedPolluterOperator op(NullPipeline(0.5), "no_such_attr", 1);
  VectorSink sink;
  EXPECT_EQ(PipelineRuntime().Run(&source, {&op}, &sink).code(),
            StatusCode::kNotFound);
}

TEST(DuplicatingOperatorTest, EmitsExactDuplicatesAtConfiguredRate) {
  SchemaPtr schema = KeyedSchema();
  VectorSource source(schema, InterleavedStream(schema, 2000));
  DuplicatingOperator op(0.25, /*seed=*/1);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  const double rate =
      static_cast<double>(op.duplicates_emitted()) / 4000.0;
  EXPECT_NEAR(rate, 0.25, 0.03);
  EXPECT_EQ(sink.tuples().size(), 4000 + op.duplicates_emitted());
}

TEST(DuplicatingOperatorTest, FuzzyDuplicatesDifferFromOriginals) {
  SchemaPtr schema = KeyedSchema();
  TupleVector stream = InterleavedStream(schema, 500);
  // Upstream assigns ids so duplicates are linkable.
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].set_id(static_cast<TupleId>(i));
  }
  PollutionPipeline fuzz("fuzz");
  fuzz.Add(std::make_unique<StandardPolluter>(
      "noise", std::make_unique<GaussianNoiseError>(2.0),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"temp"}));
  VectorSource source(schema, stream);
  DuplicatingOperator op(0.3, /*seed=*/2, std::move(fuzz),
                         /*max_arrival_delay=*/600);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  // Group by id: ids with two copies must differ in temp (fuzzy).
  std::map<TupleId, std::vector<const Tuple*>> by_id;
  for (const Tuple& t : sink.tuples()) by_id[t.id()].push_back(&t);
  int pairs = 0;
  for (const auto& [id, copies] : by_id) {
    if (copies.size() == 2) {
      ++pairs;
      EXPECT_FALSE(copies[0]->ValuesEqual(*copies[1])) << id;
    }
  }
  EXPECT_GT(pairs, 100);
  EXPECT_EQ(static_cast<uint64_t>(pairs), op.duplicates_emitted());
}

TEST(DuplicatingOperatorTest, ZeroProbabilityIsIdentity) {
  SchemaPtr schema = KeyedSchema();
  VectorSource source(schema, InterleavedStream(schema, 100));
  DuplicatingOperator op(0.0, 3);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  EXPECT_EQ(sink.tuples().size(), 200u);
  EXPECT_EQ(op.duplicates_emitted(), 0u);
}

TEST(KeyedPolluterOperatorTest, NullKeysFormTheirOwnPartition) {
  SchemaPtr schema = KeyedSchema();
  TupleVector tuples = InterleavedStream(schema, 3);
  tuples[0].set_value(1, Value::Null());
  VectorSource source(schema, tuples);
  KeyedPolluterOperator op(NullPipeline(0.0), "sensor", 1);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  EXPECT_EQ(op.num_partitions(), 3u);  // A, B, <null>
}

}  // namespace
}  // namespace icewafl
