// Cross-module integration tests: the paper's experiment scenarios run
// end to end (generator -> pollution process -> DQ validation) and the
// headline numbers hold. These are the assertions behind the bench
// harnesses, pinned down as tests.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "../core/golden_digest.h"
#include "core/config.h"
#include "core/polluter_operator.h"
#include "core/process.h"
#include "data/wearable.h"
#include "io/csv.h"
#include "scenarios/scenarios.h"

namespace icewafl {
namespace {

const TupleVector& Wearable() {
  static const TupleVector stream = [] {
    auto generated = data::GenerateWearable();
    return std::move(generated).ValueOrDie();
  }();
  return stream;
}

Result<PollutionResult> RunScenario(PollutionPipeline pipeline,
                                    uint64_t seed) {
  VectorSource source(Wearable().front().schema(), Wearable());
  return PollutionProcess::Pollute(&source, std::move(pipeline), seed);
}

TEST(ScenarioIntegrationTest, RandomTemporalProportionNearQuarter) {
  // Mean of p(t) = 0.25*cos(pi/12*t)+0.25 over a day is 0.25; over many
  // repetitions the realized proportion concentrates there (paper:
  // 24.58%).
  double total = 0.0;
  const int reps = 10;
  for (int rep = 0; rep < reps; ++rep) {
    auto result = RunScenario(scenarios::RandomTemporalErrorsPipeline(),
                              100 + static_cast<uint64_t>(rep));
    ASSERT_TRUE(result.ok());
    total += static_cast<double>(result.ValueOrDie().log.size());
  }
  const double proportion =
      total / (reps * static_cast<double>(Wearable().size()));
  EXPECT_NEAR(proportion, 0.25, 0.03);
}

TEST(ScenarioIntegrationTest, RandomTemporalDetectionMatchesInjection) {
  auto result = RunScenario(scenarios::RandomTemporalErrorsPipeline(), 5);
  ASSERT_TRUE(result.ok());
  auto validation = scenarios::RandomTemporalErrorsSuite().Validate(
      result.ValueOrDie().polluted);
  ASSERT_TRUE(validation.ok());
  // Every injected null is detected, and nothing else (the clean stream
  // has no missing Distance values).
  EXPECT_EQ(validation.ValueOrDie().TotalUnexpected(),
            result.ValueOrDie().log.size());
}

TEST(ScenarioIntegrationTest, RandomTemporalNoErrorsAtNoon) {
  auto result = RunScenario(scenarios::RandomTemporalErrorsPipeline(), 6);
  ASSERT_TRUE(result.ok());
  const auto hist = result.ValueOrDie().log.HourOfDayHistogram();
  EXPECT_EQ(hist[12], 0u);                   // p(12:00) = 0
  EXPECT_GT(hist[0], hist[6]);               // midnight >> morning
}

TEST(ScenarioIntegrationTest, SoftwareUpdateStructuralCounts) {
  auto result = RunScenario(scenarios::SoftwareUpdatePipeline(), 7);
  ASSERT_TRUE(result.ok());
  const auto counts = result.ValueOrDie().log.CountsByPolluter();
  EXPECT_EQ(counts.at("distance_km_to_cm"), 1056u);
  EXPECT_EQ(counts.at("calories_precision_2"), 1056u);
  EXPECT_EQ(counts.at("bpm_to_zero"), 33u);
  // bpm_to_null fires with p=0.2 out of 33 -> plausible range.
  const uint64_t nulled = counts.count("bpm_to_null")
                              ? counts.at("bpm_to_null")
                              : 0;
  EXPECT_LE(nulled, 20u);
}

TEST(ScenarioIntegrationTest, SoftwareUpdateDetectionMatchesTable1) {
  auto result = RunScenario(scenarios::SoftwareUpdatePipeline(), 8);
  ASSERT_TRUE(result.ok());
  auto validation =
      scenarios::SoftwareUpdateSuite().Validate(result.ValueOrDie().polluted);
  ASSERT_TRUE(validation.ok());
  const auto& results = validation.ValueOrDie().results;
  const auto counts = result.ValueOrDie().log.CountsByPolluter();
  const uint64_t nulled = counts.at("bpm_to_null");
  // (i) every non-zero distance detected after km->cm.
  EXPECT_EQ(results[0].unexpected, 374u);
  // (ii) every detectably rounded calories value.
  EXPECT_EQ(results[1].unexpected, 960u);
  // (iii) zeroed-BPM-with-activity: 33 hit minus the nulled ones, plus
  // the 2 pre-existing anomalies.
  EXPECT_EQ(results[2].unexpected, 33u - nulled + 2u);
  // (iv) nulled BPM values.
  EXPECT_EQ(results[3].unexpected, nulled);
}

TEST(ScenarioIntegrationTest, SoftwareUpdateCleanStreamHasTwoViolations) {
  auto validation = scenarios::SoftwareUpdateSuite().Validate(Wearable());
  ASSERT_TRUE(validation.ok());
  EXPECT_EQ(validation.ValueOrDie().TotalUnexpected(), 2u);
}

TEST(ScenarioIntegrationTest, NetworkDelayWindowAndDetection) {
  auto result = RunScenario(scenarios::NetworkDelayPipeline(), 9);
  ASSERT_TRUE(result.ok());
  const size_t injected = result.ValueOrDie().log.size();
  // 88 tuples in the window, p = 0.2 -> ~17.6 (allow generous slack for
  // a single run).
  EXPECT_GE(injected, 8u);
  EXPECT_LE(injected, 30u);
  // Every injected delay happened between 13:00 and 14:59.
  for (const PollutionLogEntry& e : result.ValueOrDie().log.entries()) {
    const int minute = MinuteOfDay(e.tau);
    EXPECT_GE(minute, 13 * 60);
    EXPECT_LE(minute, 14 * 60 + 59);
  }
  auto validation =
      scenarios::NetworkDelaySuite().Validate(result.ValueOrDie().polluted);
  ASSERT_TRUE(validation.ok());
  const uint64_t detected = validation.ValueOrDie().TotalUnexpected();
  // Detection can undercount (adjacent delays) but never exceeds 2x the
  // injections (each delayed tuple can create at most 2 inversions).
  EXPECT_GT(detected, 0u);
  EXPECT_LE(detected, 2 * injected);
}

TEST(ScenarioIntegrationTest, NetworkDelayPreservesTupleCount) {
  auto result = RunScenario(scenarios::NetworkDelayPipeline(), 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().polluted.size(), Wearable().size());
  // Arrival order is maintained by the integration step.
  const TupleVector& polluted = result.ValueOrDie().polluted;
  for (size_t i = 1; i < polluted.size(); ++i) {
    ASSERT_LE(polluted[i - 1].arrival_time(), polluted[i].arrival_time());
  }
}

/// What Algorithm 1 decides for each row, in order: id, sub-stream,
/// event and arrival time, and the bits of every value.
uint64_t RowsDigest(const TupleVector& rows) {
  golden::Digest digest;
  digest.U64(rows.size());
  for (const Tuple& t : rows) digest.TupleOf(t);
  return digest.value();
}

// The served path and PollutionProcess are one implementation: a plan's
// offline segment over all its rows is Run with m = P sub-streams.
TEST(ScenarioIntegrationTest, PlanSegmentsAreAlgorithmOneRunsAtEveryP) {
  for (const std::string& name : scenarios::ScenarioNames()) {
    for (int parallelism : {1, 2}) {
      SCOPED_TRACE(name + " at P=" + std::to_string(parallelism));
      auto built = scenarios::BuildScenarioPlan(name, 5, parallelism);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const PlanSnapshot& plan = *built.ValueOrDie();
      auto served =
          scenarios::RunPlanSegmentOffline(plan, 0, plan.clean->size());
      ASSERT_TRUE(served.ok()) << served.status().ToString();

      ProcessOptions options;
      options.num_substreams = parallelism;
      options.seed = plan.seed;
      options.enable_log = false;
      options.stream_start = plan.stream_start;
      options.stream_end = plan.stream_end;
      PollutionProcess process(options);
      for (int s = 0; s < parallelism; ++s) {
        process.AddPipeline(plan.pipeline.Clone());
      }
      VectorSource source(plan.schema, *plan.clean);
      auto run = process.Run(&source);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(RowsDigest(served.ValueOrDie()),
                RowsDigest(run.ValueOrDie().polluted));
    }
  }
}

// Step 3 reaches every served stream: the §3.1.3 delays show as
// timestamp inversions in the plan segment a subscriber receives.
TEST(ScenarioIntegrationTest, ServedNetworkDelayShowsItsInversions) {
  for (int parallelism : {1, 2}) {
    SCOPED_TRACE("P=" + std::to_string(parallelism));
    auto built = scenarios::BuildScenarioPlan("network_delay", 9, parallelism);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const PlanSnapshot& plan = *built.ValueOrDie();
    auto served = scenarios::RunPlanSegmentOffline(plan, 0, plan.clean->size());
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    uint64_t injected = 0;
    for (const Tuple& t : served.ValueOrDie()) {
      if (t.arrival_time() != t.event_time()) ++injected;
    }
    EXPECT_GE(injected, 8u);
    auto validation =
        scenarios::NetworkDelaySuite().Validate(served.ValueOrDie());
    ASSERT_TRUE(validation.ok());
    const uint64_t detected = validation.ValueOrDie().TotalUnexpected();
    EXPECT_GT(detected, 0u);
    EXPECT_LE(detected, 2 * injected);
  }
}

// The served order is a function of the plan alone: neither batch size
// nor channel depth moves a byte, even with delays to reorder.
TEST(ScenarioIntegrationTest, DelayedStreamBytesIgnoreBatchSizeAtPTwo) {
  auto resolved = scenarios::ResolveScenario("network_delay", 7);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const scenarios::ResolvedScenario& scenario = resolved.ValueOrDie();
  auto run = [&](size_t batch_size) {
    std::vector<PollutionPipeline> pipelines;
    pipelines.push_back(scenario.pipeline.Clone());
    pipelines.push_back(scenario.pipeline.Clone());
    RuntimeOptions options;
    options.batch_size = batch_size;
    options.channel_capacity = 1;
    VectorSource source(scenario.schema, scenario.clean);
    VectorSink sink;
    EXPECT_TRUE(RunSubstreams(&source, std::move(pipelines), 7, 0.0, options,
                              scenario.stream_start, scenario.stream_end,
                              &sink)
                    .ok());
    return ToCsvString(scenario.schema, sink.tuples());
  };
  const std::string reference = run(1);
  for (size_t batch_size : {4, 8, 256}) {
    EXPECT_TRUE(run(batch_size) == reference) << "batch size " << batch_size;
  }
}

TEST(ScenarioIntegrationTest, AllScenarioPipelinesRoundTripThroughJson) {
  for (auto factory : {scenarios::RandomTemporalErrorsPipeline,
                       scenarios::SoftwareUpdatePipeline,
                       scenarios::NetworkDelayPipeline}) {
    PollutionPipeline original = factory();
    auto reparsed = PipelineFromJson(original.ToJson());
    ASSERT_TRUE(reparsed.ok()) << original.name() << ": "
                               << reparsed.status().ToString();
    EXPECT_EQ(reparsed.ValueOrDie().ToJson(), original.ToJson())
        << original.name();
  }
}

TEST(ScenarioIntegrationTest, ForecastPipelinesRoundTripThroughJson) {
  PollutionPipeline noise = scenarios::TemporalNoisePipeline({"NO2"}, 2.0);
  auto noise_reparsed = PipelineFromJson(noise.ToJson());
  ASSERT_TRUE(noise_reparsed.ok());
  EXPECT_EQ(noise_reparsed.ValueOrDie().ToJson(), noise.ToJson());

  PollutionPipeline scale =
      scenarios::TemporalScalePipeline({"NO2"}, 0.125, 0.01, 4);
  auto scale_reparsed = PipelineFromJson(scale.ToJson());
  ASSERT_TRUE(scale_reparsed.ok());
  EXPECT_EQ(scale_reparsed.ValueOrDie().ToJson(), scale.ToJson());
}

TEST(ScenarioIntegrationTest, ScalePipelineActivationsRampAndHold) {
  // The Equation 4 gate: activations become denser late in the stream,
  // and each activation pollutes a multi-hour run of tuples.
  data::WearableOptions unused;  // (scenario runs on air-quality shapes too)
  (void)unused;
  SchemaPtr schema =
      Schema::Make({{"ts", ValueType::kInt64}, {"v", ValueType::kDouble}},
                   "ts")
          .ValueOrDie();
  TupleVector tuples;
  for (int i = 0; i < 5000; ++i) {
    tuples.emplace_back(
        schema, std::vector<Value>{Value(int64_t{i} * kSecondsPerHour),
                                   Value(100.0)});
  }
  VectorSource source(schema, tuples);
  auto result = PollutionProcess::Pollute(
      &source, scenarios::TemporalScalePipeline({"v"}, 0.125, 0.02, 4), 11);
  ASSERT_TRUE(result.ok());
  const TupleVector& polluted = result.ValueOrDie().polluted;
  int early = 0;
  int late = 0;
  for (size_t i = 0; i < 1000; ++i) {
    if (polluted[i].value(1).AsDouble() < 50.0) ++early;
    if (polluted[polluted.size() - 1 - i].value(1).AsDouble() < 50.0) ++late;
  }
  EXPECT_LT(early, late);
  EXPECT_GT(late, 20);  // held activations pollute runs of tuples
}

TEST(ScenarioIntegrationTest, StreamPipelineToSinkMatchesOperatorPath) {
  // The streaming runner at parallelism 1 must produce exactly what a
  // PolluterOperator seeded as sub-stream 0 of the same seed (the seed
  // Algorithm 1 gives it) produces tuple-by-tuple.
  VectorSource source(Wearable().front().schema(), Wearable());
  RuntimeStats stats;
  VectorSink sink;
  ASSERT_TRUE(scenarios::StreamPipelineToSink(
                  &source, scenarios::SoftwareUpdatePipeline(), /*seed=*/11,
                  /*parallelism=*/1, &sink, &stats)
                  .ok());
  const TupleVector& streamed = sink.tuples();
  ASSERT_EQ(streamed.size(), Wearable().size());
  EXPECT_EQ(stats.source_tuples, Wearable().size());
  EXPECT_EQ(stats.sink_tuples, Wearable().size());
  // The wearable stream (1059 tuples) fits entirely inside the default
  // channel budget, so peak buffering can only be bounded by it here;
  // the large-stream bound is asserted in runtime_test.cc.
  EXPECT_LE(stats.peak_buffered_tuples, Wearable().size());

  VectorSource source2(Wearable().front().schema(), Wearable());
  Rng master(11);
  master.Fork();  // the split's generator
  PolluterOperator op(scenarios::SoftwareUpdatePipeline().Clone(),
                      master.Next());
  VectorSink reference;
  Tuple t;
  while (source2.Next(&t).ValueOrDie()) {
    class DirectEmitter : public Emitter {
     public:
      explicit DirectEmitter(VectorSink* sink) : sink_(sink) {}
      Status Emit(Tuple tuple) override {
        return sink_->Write(std::move(tuple));
      }

     private:
      VectorSink* sink_;
    } emitter(&reference);
    ASSERT_TRUE(op.Process(std::move(t), &emitter).ok());
  }
  ASSERT_EQ(reference.tuples().size(), streamed.size());
  for (size_t i = 0; i < reference.tuples().size(); ++i) {
    EXPECT_EQ(reference.tuples()[i].value(1).ToString("<null>"),
              streamed[i].value(1).ToString("<null>"))
        << "mismatch at tuple " << i;
  }
}

TEST(ScenarioIntegrationTest, StreamPipelineToSinkParallelKeepsCount) {
  VectorSource source(Wearable().front().schema(), Wearable());
  VectorSink sink;
  ASSERT_TRUE(scenarios::StreamPipelineToSink(
                  &source, scenarios::RandomTemporalErrorsPipeline(),
                  /*seed=*/3, /*parallelism=*/4, &sink)
                  .ok());
  EXPECT_EQ(sink.tuples().size(), Wearable().size());
}

TEST(ScenarioIntegrationTest, StreamPipelineToSinkRejectsZeroParallelism) {
  VectorSource source(Wearable().front().schema(), Wearable());
  VectorSink sink;
  EXPECT_EQ(scenarios::StreamPipelineToSink(
                &source, scenarios::RandomTemporalErrorsPipeline(),
                /*seed=*/3, /*parallelism=*/0, &sink)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ScenarioIntegrationTest, SegmentBatchSizeFillsInTwoMillisecondsPerWorker) {
  struct Case {
    double tuples_per_sec;
    int parallelism;
    size_t batch;
  };
  const Case cases[] = {
      {0.0, 2, 256},      // unpaced keeps the runtime default
      {50000.0, 2, 50},   // paced_swap's pace
      {20000.0, 2, 20},   // the e2ebench smoke pace
      {1500.0, 1, 3},     // the plan-swap tests' pace
      {100.0, 4, 1},      // below one row per fill: clamp to 1
      {1e9, 1, 256},      // above the default: clamp to 256
  };
  for (const Case& c : cases) {
    EXPECT_EQ(scenarios::SegmentBatchSize(c.tuples_per_sec, c.parallelism),
              c.batch)
        << c.tuples_per_sec << " rows/s at P=" << c.parallelism;
  }
}

}  // namespace
}  // namespace icewafl
