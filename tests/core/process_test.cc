#include "core/process.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/composite_polluter.h"
#include "core/errors_numeric.h"
#include "core/errors_temporal.h"
#include "core/errors_value.h"
#include "test_helpers.h"

namespace icewafl {
namespace {

using testing_helpers::SensorSchema;
using testing_helpers::SensorTuple;

TupleVector HourlyStream(const SchemaPtr& schema, int hours) {
  TupleVector tuples;
  for (int i = 0; i < hours; ++i) {
    Tuple t(schema,
            {Value(TimestampFromCivil({2016, 3, 1, 0, 0, 0}) + i * 3600),
             Value(20.0 + i), Value(int64_t{i}), Value("ok")});
    tuples.push_back(std::move(t));
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

TEST(PipelineTest, AppliesPollutersInOrder) {
  SchemaPtr schema = SensorSchema();
  PollutionPipeline pipeline("ordered");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "scale_by_2", std::make_unique<ScaleError>(2.0),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"temp"}));
  pipeline.Add(std::make_unique<StandardPolluter>(
      "add_10", std::make_unique<OffsetError>(10.0),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"temp"}));
  pipeline.Seed(1);
  Tuple t = SensorTuple(schema, 0, 5.0);
  PollutionContext ctx;
  ctx.tau = t.event_time();
  PollutionLog log;
  ASSERT_TRUE(pipeline.Apply(&t, &ctx, &log).ok());
  // (5 * 2) + 10, not (5 + 10) * 2.
  EXPECT_DOUBLE_EQ(t.value(1).AsDouble(), 20.0);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.entries()[0].polluter, "scale_by_2");
  EXPECT_EQ(log.entries()[1].polluter, "add_10");
}

TEST(PipelineTest, AppliedCountsPerLabel) {
  SchemaPtr schema = SensorSchema();
  PollutionPipeline pipeline = NullPipeline(1.0);
  pipeline.Seed(2);
  for (int i = 0; i < 7; ++i) {
    Tuple t = SensorTuple(schema, i);
    PollutionContext ctx;
    ctx.tau = t.event_time();
    ASSERT_TRUE(pipeline.Apply(&t, &ctx, nullptr).ok());
  }
  auto counts = pipeline.AppliedCounts();
  EXPECT_EQ(counts["nuller"], 7u);
  pipeline.ResetStats();
  EXPECT_EQ(pipeline.AppliedCounts()["nuller"], 0u);
}

TEST(ProcessTest, PreparesIdsAndEventTimes) {
  SchemaPtr schema = SensorSchema();
  VectorSource source(schema, HourlyStream(schema, 10));
  auto result = PollutionProcess::Pollute(&source, NullPipeline(0.0), 42);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PollutionResult& r = result.ValueOrDie();
  ASSERT_EQ(r.clean.size(), 10u);
  ASSERT_EQ(r.polluted.size(), 10u);
  for (size_t i = 0; i < r.clean.size(); ++i) {
    EXPECT_EQ(r.clean[i].id(), i);
    EXPECT_EQ(r.clean[i].event_time(),
              r.clean[i].GetTimestamp().ValueOrDie());
    EXPECT_EQ(r.polluted[i].substream(), 0);
  }
}

TEST(ProcessTest, CleanStreamUntouchedByPollution) {
  SchemaPtr schema = SensorSchema();
  TupleVector input = HourlyStream(schema, 50);
  VectorSource source(schema, input);
  auto result = PollutionProcess::Pollute(&source, NullPipeline(1.0), 42);
  ASSERT_TRUE(result.ok());
  const PollutionResult& r = result.ValueOrDie();
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_TRUE(r.clean[i].ValuesEqual(input[i])) << i;
    EXPECT_TRUE(r.polluted[i].value(1).is_null()) << i;
  }
}

TEST(ProcessTest, GroundTruthLinkViaIds) {
  SchemaPtr schema = SensorSchema();
  VectorSource source(schema, HourlyStream(schema, 100));
  auto result = PollutionProcess::Pollute(&source, NullPipeline(0.5), 7);
  ASSERT_TRUE(result.ok());
  const PollutionResult& r = result.ValueOrDie();
  // Every log entry refers to a polluted tuple whose value is now NULL,
  // and whose clean counterpart (same id) is intact.
  std::set<TupleId> logged;
  for (const auto& e : r.log.entries()) logged.insert(e.tuple_id);
  EXPECT_FALSE(logged.empty());
  for (const Tuple& p : r.polluted) {
    const bool is_logged = logged.count(p.id()) > 0;
    EXPECT_EQ(p.value(1).is_null(), is_logged) << p.id();
    EXPECT_FALSE(r.clean[p.id()].value(1).is_null());
  }
}

TEST(ProcessTest, DeterministicUnderSameSeed) {
  SchemaPtr schema = SensorSchema();
  auto run = [&](uint64_t seed) {
    VectorSource source(schema, HourlyStream(schema, 200));
    auto result = PollutionProcess::Pollute(&source, NullPipeline(0.3), seed);
    EXPECT_TRUE(result.ok());
    std::vector<bool> nulls;
    for (const Tuple& t : result.ValueOrDie().polluted) {
      nulls.push_back(t.value(1).is_null());
    }
    return nulls;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(ProcessTest, SubstreamsPartitionTheStream) {
  SchemaPtr schema = SensorSchema();
  ProcessOptions options;
  options.num_substreams = 3;
  options.seed = 5;
  PollutionProcess process(options);
  process.AddPipeline(NullPipeline(0.0));
  process.AddPipeline(NullPipeline(0.0));
  process.AddPipeline(NullPipeline(0.0));
  VectorSource source(schema, HourlyStream(schema, 30));
  auto result = process.Run(&source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PollutionResult& r = result.ValueOrDie();
  ASSERT_EQ(r.polluted.size(), 30u);  // no overlap -> exact partition
  std::set<int> seen;
  for (const Tuple& t : r.polluted) seen.insert(t.substream());
  EXPECT_EQ(seen, (std::set<int>{0, 1, 2}));
}

TEST(ProcessTest, PerSubstreamPipelinesAreIndependent) {
  SchemaPtr schema = SensorSchema();
  ProcessOptions options;
  options.num_substreams = 2;
  options.seed = 5;
  PollutionProcess process(options);
  // Sub-stream 0 nulls temp; sub-stream 1 scales it.
  process.AddPipeline(NullPipeline(1.0));
  PollutionPipeline scaler("scaler");
  scaler.Add(std::make_unique<StandardPolluter>(
      "x1000", std::make_unique<ScaleError>(1000.0),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"temp"}));
  process.AddPipeline(std::move(scaler));
  VectorSource source(schema, HourlyStream(schema, 20));
  auto result = process.Run(&source);
  ASSERT_TRUE(result.ok());
  for (const Tuple& t : result.ValueOrDie().polluted) {
    if (t.substream() == 0) {
      EXPECT_TRUE(t.value(1).is_null());
    } else {
      EXPECT_GE(t.value(1).AsDouble(), 1000.0);
    }
  }
}

TEST(ProcessTest, OverlapProducesFuzzyDuplicates) {
  SchemaPtr schema = SensorSchema();
  ProcessOptions options;
  options.num_substreams = 2;
  options.overlap_fraction = 0.5;
  options.seed = 11;
  PollutionProcess process(options);
  process.AddPipeline(NullPipeline(0.0));
  PollutionPipeline noisy("noisy");
  noisy.Add(std::make_unique<StandardPolluter>(
      "noise", std::make_unique<GaussianNoiseError>(3.0),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"temp"}));
  process.AddPipeline(std::move(noisy));
  VectorSource source(schema, HourlyStream(schema, 400));
  auto result = process.Run(&source);
  ASSERT_TRUE(result.ok());
  const PollutionResult& r = result.ValueOrDie();
  // ~50% duplicates expected.
  EXPECT_GT(r.polluted.size(), 550u);
  EXPECT_LT(r.polluted.size(), 650u);
  // Duplicated ids appear in two different sub-streams; copies polluted
  // independently (a fuzzy duplicate differs in the noisy attribute
  // whenever the noisy copy ran through the Gaussian pipeline).
  std::map<TupleId, std::vector<const Tuple*>> by_id;
  for (const Tuple& t : r.polluted) by_id[t.id()].push_back(&t);
  int fuzzy = 0;
  for (const auto& [id, copies] : by_id) {
    if (copies.size() == 2) {
      EXPECT_NE(copies[0]->substream(), copies[1]->substream());
      if (!copies[0]->ValuesEqual(*copies[1])) ++fuzzy;
    }
  }
  EXPECT_GT(fuzzy, 100);
}

TEST(ProcessTest, OutputSortedByArrivalTime) {
  SchemaPtr schema = SensorSchema();
  PollutionPipeline pipeline("delayer");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "delay", std::make_unique<DelayError>(7200),
      std::make_unique<RandomCondition>(0.3), std::vector<std::string>{}));
  VectorSource source(schema, HourlyStream(schema, 100));
  auto result =
      PollutionProcess::Pollute(&source, std::move(pipeline), 13);
  ASSERT_TRUE(result.ok());
  const TupleVector& polluted = result.ValueOrDie().polluted;
  for (size_t i = 1; i < polluted.size(); ++i) {
    ASSERT_LE(polluted[i - 1].arrival_time(), polluted[i].arrival_time());
  }
  // Delayed tuples break the monotonicity of the *timestamp attribute*.
  int inversions = 0;
  for (size_t i = 1; i < polluted.size(); ++i) {
    if (polluted[i].GetTimestamp().ValueOrDie() <
        polluted[i - 1].GetTimestamp().ValueOrDie()) {
      ++inversions;
    }
  }
  EXPECT_GT(inversions, 0);
}

TEST(ProcessTest, PipelineCountMustMatchSubstreams) {
  SchemaPtr schema = SensorSchema();
  ProcessOptions options;
  options.num_substreams = 2;
  PollutionProcess process(options);
  process.AddPipeline(NullPipeline(0.0));
  VectorSource source(schema, HourlyStream(schema, 5));
  EXPECT_EQ(process.Run(&source).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProcessTest, InvalidOptionsRejected) {
  SchemaPtr schema = SensorSchema();
  {
    ProcessOptions options;
    options.num_substreams = 0;
    PollutionProcess process(options);
    VectorSource source(schema, HourlyStream(schema, 5));
    EXPECT_EQ(process.Run(&source).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    ProcessOptions options;
    options.overlap_fraction = 1.5;
    PollutionProcess process(options);
    process.AddPipeline(NullPipeline(0.0));
    VectorSource source(schema, HourlyStream(schema, 5));
    EXPECT_EQ(process.Run(&source).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(ProcessTest, EmptyStreamYieldsEmptyResult) {
  SchemaPtr schema = SensorSchema();
  VectorSource source(schema, {});
  auto result = PollutionProcess::Pollute(&source, NullPipeline(1.0), 1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().clean.empty());
  EXPECT_TRUE(result.ValueOrDie().polluted.empty());
  EXPECT_TRUE(result.ValueOrDie().log.empty());
}

TEST(ProcessTest, StreamRampUsesDerivedBounds) {
  SchemaPtr schema = SensorSchema();
  PollutionPipeline pipeline("ramp");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "ramped_nulls", std::make_unique<MissingValueError>(),
      std::make_unique<ProfileProbabilityCondition>(
          std::make_unique<StreamRampProfile>()),
      std::vector<std::string>{"temp"}));
  VectorSource source(schema, HourlyStream(schema, 1000));
  auto result = PollutionProcess::Pollute(&source, std::move(pipeline), 3);
  ASSERT_TRUE(result.ok());
  const TupleVector& polluted = result.ValueOrDie().polluted;
  // Error density in the last fifth should far exceed the first fifth
  // (Equation 4 ramps activation probability from 0 to 1).
  int early = 0;
  int late = 0;
  for (size_t i = 0; i < 200; ++i) {
    if (polluted[i].value(1).is_null()) ++early;
    if (polluted[polluted.size() - 1 - i].value(1).is_null()) ++late;
  }
  EXPECT_LT(early, 40);
  EXPECT_GT(late, 150);
}

TEST(ProcessTest, LogDisabledLeavesLogEmpty) {
  SchemaPtr schema = SensorSchema();
  VectorSource source(schema, HourlyStream(schema, 20));
  auto result = PollutionProcess::Pollute(&source, NullPipeline(1.0), 1,
                                          /*enable_log=*/false);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().log.empty());
}

}  // namespace
}  // namespace icewafl
