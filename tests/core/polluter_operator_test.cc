#include "core/polluter_operator.h"

#include <gtest/gtest.h>

#include <set>

#include "core/errors_value.h"
#include "stream/runtime.h"

namespace icewafl {
namespace {

SchemaPtr SensorSchema() {
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

/// Runs `op` as the only operator of a single-worker runtime.
Status RunAlone(Source* source, std::unique_ptr<Operator> op, Sink* sink) {
  return PipelineRuntime().Run(
      source,
      [&](int) {
        OperatorChain chain;
        chain.push_back(std::move(op));
        return chain;
      },
      sink);
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
  SchemaPtr schema = SensorSchema();
  VectorSource source(schema, InterleavedStream(schema, 50));
  PollutionLog log;
  auto op = std::make_unique<PolluterOperator>(NullPipeline(1.0), /*seed=*/1,
                                               0, 0, &log);
  VectorSink sink;
  ASSERT_TRUE(RunAlone(&source, std::move(op), &sink).ok());
  ASSERT_EQ(sink.tuples().size(), 100u);
  for (const Tuple& t : sink.tuples()) {
    EXPECT_TRUE(t.value(2).is_null());
  }
  EXPECT_EQ(log.size(), 100u);
}

TEST(PolluterOperatorTest, AssignsIdsWhenUpstreamDidNot) {
  SchemaPtr schema = SensorSchema();
  VectorSource source(schema, InterleavedStream(schema, 10));
  VectorSink sink;
  ASSERT_TRUE(RunAlone(&source,
                       std::make_unique<PolluterOperator>(NullPipeline(0.0), 1),
                       &sink)
                  .ok());
  std::set<TupleId> ids;
  for (const Tuple& t : sink.tuples()) {
    EXPECT_NE(t.id(), kInvalidTupleId);
    ids.insert(t.id());
  }
  EXPECT_EQ(ids.size(), sink.tuples().size());
}

TEST(PolluterOperatorTest, BindMetricsCountsSeenAndPolluted) {
  SchemaPtr schema = SensorSchema();
  VectorSource source(schema, InterleavedStream(schema, 50));
  auto op = std::make_unique<PolluterOperator>(NullPipeline(0.5), /*seed=*/1);
  obs::MetricRegistry registry;
  op->BindMetrics(&registry);
  VectorSink sink;
  ASSERT_TRUE(RunAlone(&source, std::move(op), &sink).ok());
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
  SchemaPtr schema = SensorSchema();
  auto run = [&](bool instrument) {
    VectorSource source(schema, InterleavedStream(schema, 30));
    auto op = std::make_unique<PolluterOperator>(NullPipeline(0.3),
                                                 /*seed=*/7);
    obs::MetricRegistry registry;
    if (instrument) op->BindMetrics(&registry);
    VectorSink sink;
    EXPECT_TRUE(RunAlone(&source, std::move(op), &sink).ok());
    std::vector<bool> nulls;
    for (const Tuple& t : sink.tuples()) nulls.push_back(t.value(2).is_null());
    return nulls;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace icewafl
