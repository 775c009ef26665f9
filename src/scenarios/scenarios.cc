#include "scenarios/scenarios.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "clean/cleaner.h"
#include "clean/config.h"
#include "core/composite_polluter.h"
#include "core/config.h"
#include "core/derived_error.h"
#include "core/errors_numeric.h"
#include "core/errors_temporal.h"
#include "core/errors_value.h"
#include "core/process.h"
#include "data/airquality.h"
#include "data/wearable.h"

namespace icewafl {
namespace scenarios {

PollutionPipeline RandomTemporalErrorsPipeline() {
  PollutionPipeline pipeline("random_temporal_errors");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "sinusoidal_nulls", std::make_unique<MissingValueError>(),
      std::make_unique<ProfileProbabilityCondition>(
          std::make_unique<SinusoidalProfile>(24.0, 0.25, 0.25)),
      std::vector<std::string>{"Distance"}));
  return pipeline;
}

dq::ExpectationSuite RandomTemporalErrorsSuite() {
  dq::ExpectationSuite suite("random_temporal_errors");
  suite.Expect<dq::ExpectColumnValuesToNotBeNull>("Distance");
  return suite;
}

std::vector<double> RandomTemporalExpectedPerHour(
    const std::vector<uint64_t>& tuples_per_hour) {
  std::vector<double> expected(24, 0.0);
  for (int h = 0; h < 24; ++h) {
    const double p = 0.25 * std::cos(M_PI / 12.0 * h) + 0.25;
    expected[static_cast<size_t>(h)] =
        p * static_cast<double>(tuples_per_hour[static_cast<size_t>(h)]);
  }
  return expected;
}

PollutionPipeline SoftwareUpdatePipeline() {
  // Figure 5: a composite "Software Update" polluter gated on the update
  // date delegates to three children; the BPM child is itself composite.
  auto update = std::make_unique<SequentialPolluter>(
      "software_update",
      TimeWindowCondition::After(data::WearableUpdateTime()));
  update->Register(std::make_unique<StandardPolluter>(
      "distance_km_to_cm",
      std::make_unique<UnitConversionError>(100000.0, "km", "cm"),
      std::make_unique<AlwaysCondition>(),
      std::vector<std::string>{"Distance"}));
  update->Register(std::make_unique<StandardPolluter>(
      "calories_precision_2", std::make_unique<RoundError>(2),
      std::make_unique<AlwaysCondition>(),
      std::vector<std::string>{"CaloriesBurned"}));
  auto wrong_bpm = std::make_unique<SequentialPolluter>(
      "wrong_bpm_measurement",
      std::make_unique<ValueCondition>("BPM", CompareOp::kGt, Value(100.0)));
  wrong_bpm->Register(std::make_unique<StandardPolluter>(
      "bpm_to_zero", std::make_unique<SetConstantError>(Value(0.0)),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"BPM"}));
  wrong_bpm->Register(std::make_unique<StandardPolluter>(
      "bpm_to_null", std::make_unique<MissingValueError>(),
      std::make_unique<RandomCondition>(0.2),
      std::vector<std::string>{"BPM"}));
  update->Register(std::move(wrong_bpm));

  PollutionPipeline pipeline("software_update");
  pipeline.Add(std::move(update));
  return pipeline;
}

dq::ExpectationSuite SoftwareUpdateSuite() {
  dq::ExpectationSuite suite("software_update");
  // (i) After km->cm, Distance exceeds Steps.
  suite.Expect<dq::ExpectColumnPairValuesAToBeGreaterThanB>(
      "Steps", "Distance", /*or_equal=*/true);
  // (ii) Valid CaloriesBurned are 0 or have >= 3 decimal places; the
  // rounding polluter reduces the precision below that.
  suite.Expect<dq::ExpectColumnValuesToMatchRegex>(
      "CaloriesBurned", Regex::Compile(R"(0|\d+\.\d{3,})").ValueOrDie());
  // (iii) Tuples with BPM = 0 must show no activity.
  auto sum_zero = std::make_unique<dq::ExpectMulticolumnSumToEqual>(
      std::vector<std::string>{"ActiveMinutes", "Distance", "Steps"}, 0.0);
  sum_zero->WhereColumnEquals("BPM", 0.0);
  suite.Add(std::move(sum_zero));
  // (iv) BPM must not be NULL.
  suite.Expect<dq::ExpectColumnValuesToNotBeNull>("BPM");
  return suite;
}

SoftwareUpdateExpectations SoftwareUpdateExpectedCounts() {
  return SoftwareUpdateExpectations{};
}

PollutionPipeline NetworkDelayPipeline() {
  // Delay by one hour, only between 13:00 and 14:59 and then only with
  // probability 0.2 (the nested condition of Section 3.1.3).
  std::vector<ConditionPtr> children;
  children.push_back(
      std::make_unique<DailyWindowCondition>(13 * 60, 14 * 60 + 59));
  children.push_back(std::make_unique<RandomCondition>(0.2));
  PollutionPipeline pipeline("bad_network_connection");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "one_hour_delay", std::make_unique<DelayError>(3600),
      std::make_unique<AndCondition>(std::move(children)),
      std::vector<std::string>{}));
  return pipeline;
}

dq::ExpectationSuite NetworkDelaySuite() {
  dq::ExpectationSuite suite("bad_network_connection");
  suite.Expect<dq::ExpectColumnValuesToBeIncreasing>("Time",
                                                     /*strictly=*/true);
  return suite;
}

PollutionPipeline TemporalNoisePipeline(
    const std::vector<std::string>& attributes, double pi_max) {
  // Equation 3: multiplicative uniform noise whose bounds grow linearly
  // from 0 to pi_max over the stream. The derived temporal error scales
  // the U(0, pi_max) bounds by the stream-relative ramp.
  PollutionPipeline pipeline("temporally_increasing_noise");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "ramped_uniform_noise",
      std::make_unique<DerivedTemporalError>(
          std::make_unique<UniformNoiseError>(0.0, pi_max),
          std::make_unique<StreamRampProfile>()),
      std::make_unique<AlwaysCondition>(), attributes));
  return pipeline;
}

PollutionPipeline TemporalScalePipeline(
    const std::vector<std::string>& attributes, double factor, double prior,
    int hold_hours) {
  // Equation 4: the polluter activates when BOTH the prior-probability
  // condition and the stream-relative ramp condition fire; an activation
  // persists for `hold_hours` hours (the paper's four-hour intervals).
  std::vector<ConditionPtr> children;
  children.push_back(std::make_unique<RandomCondition>(prior));
  children.push_back(std::make_unique<ProfileProbabilityCondition>(
      std::make_unique<StreamRampProfile>()));
  auto gate = std::make_unique<HoldCondition>(
      std::make_unique<AndCondition>(std::move(children)),
      static_cast<int64_t>(hold_hours) * kSecondsPerHour);
  PollutionPipeline pipeline("temporally_increasing_scale");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "ramped_scale", std::make_unique<ScaleError>(factor), std::move(gate),
      attributes));
  return pipeline;
}

std::vector<std::string> AirQualityNumericAttributes() {
  return {"PM2_5", "PM10", "SO2", "NO2", "CO",
          "O3",    "TEMP", "PRES", "DEWP", "WSPM"};
}

const std::vector<std::string>& ScenarioNames() {
  static const std::vector<std::string> kNames = {
      "random_temporal", "software_update", "network_delay", "temporal_noise",
      "temporal_scale"};
  return kNames;
}

Result<ResolvedScenario> ResolveScenario(const std::string& name,
                                         uint64_t seed) {
  ResolvedScenario scenario;
  scenario.name = name;
  Result<TupleVector> tuples = Status::Internal("unset");
  if (name == "random_temporal" || name == "software_update" ||
      name == "network_delay") {
    data::WearableOptions options;
    if (seed != 0) options.seed = seed;
    tuples = data::GenerateWearable(options);
    scenario.schema = data::WearableSchema();
    if (name == "random_temporal") {
      scenario.pipeline = RandomTemporalErrorsPipeline();
      scenario.suite = RandomTemporalErrorsSuite();
    } else if (name == "software_update") {
      scenario.pipeline = SoftwareUpdatePipeline();
      scenario.suite = SoftwareUpdateSuite();
    } else {
      scenario.pipeline = NetworkDelayPipeline();
      scenario.suite = NetworkDelaySuite();
    }
  } else if (name == "temporal_noise" || name == "temporal_scale") {
    data::AirQualityOptions options;
    if (seed != 0) options.seed = seed;
    tuples = data::GenerateAirQuality(options);
    scenario.schema = data::AirQualitySchema();
    if (name == "temporal_noise") {
      scenario.pipeline =
          TemporalNoisePipeline(AirQualityNumericAttributes(), 0.5);
    } else {
      scenario.pipeline =
          TemporalScalePipeline(AirQualityNumericAttributes(), 10.0, 0.1, 24);
    }
  } else {
    return Status::InvalidArgument("unknown scenario: '" + name + "'");
  }
  ICEWAFL_ASSIGN_OR_RETURN(scenario.clean, std::move(tuples));
  if (scenario.clean.empty()) {
    return Status::Internal("scenario '" + name + "' generated no tuples");
  }
  // Prepare once (Algorithm 1, lines 1-3): id = row index, event and
  // arrival time = timestamp. Left to PolluterOperator, every parallel
  // worker and every plan segment would number its tuples from 0.
  for (size_t i = 0; i < scenario.clean.size(); ++i) {
    Tuple& t = scenario.clean[i];
    t.set_id(i);
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp ts, t.GetTimestamp());
    t.set_event_time(ts);
    t.set_arrival_time(ts);
  }
  scenario.stream_start = scenario.clean.front().event_time();
  scenario.stream_end = scenario.clean.back().event_time();
  return scenario;
}

namespace {

/// Runs `prototype` over `source` as PollutionProcess::Run does with
/// m = `options.parallelism` sub-streams and no overlap: one clone per
/// sub-stream, seeded as Run seeds it. StreamPipelineToSink and the
/// plan-segment runner differ only in the options they pass.
Status RunPollutionRuntime(Source* source, const PollutionPipeline& prototype,
                           uint64_t seed, const RuntimeOptions& options,
                           Sink* sink, RuntimeStats* stats,
                           Timestamp stream_start, Timestamp stream_end) {
  std::vector<PollutionPipeline> pipelines;
  for (int s = 0; s < options.parallelism; ++s) {
    pipelines.push_back(prototype.Clone());
  }
  return RunSubstreams(source, std::move(pipelines), seed,
                       /*overlap_fraction=*/0.0, options, stream_start,
                       stream_end, sink, /*logs=*/nullptr, stats);
}

}  // namespace

Status StreamPipelineToSink(Source* source, const PollutionPipeline& prototype,
                            uint64_t seed, int parallelism, Sink* sink,
                            RuntimeStats* stats, obs::MetricRegistry* metrics,
                            obs::TraceRecorder* trace, Timestamp stream_start,
                            Timestamp stream_end) {
  RuntimeOptions options;
  options.parallelism = parallelism;
  options.metrics = metrics;
  options.trace = trace;
  return RunPollutionRuntime(source, prototype, seed, options, sink, stats,
                             stream_start, stream_end);
}

// ---------------------------------------------------------------------
// Versioned plan serving (DESIGN.md section 14)
// ---------------------------------------------------------------------

namespace {

/// Rows a serving segment produces between two probes of the newest
/// published plan. The probe is one mutex acquisition, so the interval
/// balances swap latency against per-row overhead; it also quantizes
/// cutover boundaries (a swap lands on a multiple of this many rows
/// into the segment, never between a probe and its batch).
constexpr uint64_t kCutoverCheckRows = 64;

/// Time a paced segment's batch takes to fill at one worker. A served
/// row waits for its batch to fill, so this is the paced latency floor.
/// Swept on `paced_swap` (50 k rows/s, P=2; EXPERIMENTS.md): a 10.24 ms
/// fill (256 rows) gave p50 ~6.5 ms, 4 ms ~2.7 ms, 2 ms ~1.4 ms at
/// unchanged CPU per row, and 1 ms ~0.85 ms but up to 48 % more CPU per
/// row, past the benchmark's 25 % bound.
constexpr double kPacedBatchFillSeconds = 0.002;

/// Bounded source over `plan->clean[offset..]` that (a) paces emission
/// to `plan->tuples_per_sec` and (b) ends the stream early — reporting
/// the newer snapshot through cutover() — when a probe of `latest`
/// observes a version change. Ending the stream (instead of switching
/// pipelines in place) is what makes the cutover a clean boundary: the
/// runtime drains, every in-flight row finishes under the old plan, and
/// the next segment replays nothing.
class PlanSegmentSource : public Source {
 public:
  PlanSegmentSource(PlanPtr plan, uint64_t offset,
                    std::function<PlanPtr()> latest)
      : plan_(std::move(plan)),
        pos_(offset),
        latest_(std::move(latest)) {}

  SchemaPtr schema() const override { return plan_->schema; }

  Result<bool> Next(Tuple* out) override {
    const TupleVector& clean = *plan_->clean;
    if (pos_ >= clean.size()) return false;
    if (latest_ != nullptr && consumed_ > 0 &&
        consumed_ % kCutoverCheckRows == 0) {
      PlanPtr newest = latest_();
      if (newest != nullptr && newest->version != plan_->version) {
        cutover_ = std::move(newest);
        return false;
      }
    }
    if (plan_->tuples_per_sec > 0) {
      if (consumed_ == 0) {
        segment_start_ = std::chrono::steady_clock::now();
      } else {
        std::this_thread::sleep_until(
            segment_start_ +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    static_cast<double>(consumed_) / plan_->tuples_per_sec)));
      }
    }
    *out = clean[pos_];
    ++pos_;
    ++consumed_;
    return true;
  }

  /// Clean rows emitted by this segment.
  uint64_t consumed() const { return consumed_; }
  /// The newer snapshot that ended the segment (null: stream end).
  const PlanPtr& cutover() const { return cutover_; }

 private:
  PlanPtr plan_;
  uint64_t pos_;
  std::function<PlanPtr()> latest_;
  uint64_t consumed_ = 0;
  PlanPtr cutover_;
  std::chrono::steady_clock::time_point segment_start_{};
};

/// The one plan-segment runner behind both ServePlanToSink and
/// RunPlanSegmentOffline: pollutes `source` with `plan` into `sink`,
/// through a fresh sequential cleaner when the plan has one.
/// Compiling the cleaner per call keeps its history from crossing a
/// segment boundary, and the batch size is a function of the plan alone
/// (SegmentBatchSize), so a served segment equals its offline replay by
/// construction.
Status RunPlanSegment(const PlanSnapshot& plan, Source* source, Sink* sink) {
  std::optional<clean::CleaningSink> cleaning;
  if (!plan.cleaner.is_null()) {
    ICEWAFL_ASSIGN_OR_RETURN(clean::CleaningRules rules,
                             clean::RulesFromJson(plan.cleaner, plan.schema));
    sink = &cleaning.emplace(rules, sink);
  }
  RuntimeOptions options;
  options.parallelism = plan.parallelism;
  options.batch_size = SegmentBatchSize(plan.tuples_per_sec, plan.parallelism);
  return RunPollutionRuntime(source, plan.pipeline, plan.seed, options, sink,
                             /*stats=*/nullptr, plan.stream_start,
                             plan.stream_end);
}

}  // namespace

size_t SegmentBatchSize(double tuples_per_sec, int parallelism) {
  const size_t unpaced = RuntimeOptions{}.batch_size;
  if (!(tuples_per_sec > 0)) return unpaced;
  const double rows = std::floor(tuples_per_sec * kPacedBatchFillSeconds /
                                 std::max(parallelism, 1));
  return static_cast<size_t>(
      std::clamp(rows, 1.0, static_cast<double>(unpaced)));
}

Result<std::shared_ptr<PlanSnapshot>> BuildScenarioPlan(
    const std::string& name, uint64_t seed, int parallelism,
    double tuples_per_sec) {
  ICEWAFL_ASSIGN_OR_RETURN(ResolvedScenario scenario,
                           ResolveScenario(name, seed));
  Json config = scenario.pipeline.ToJson();
  auto clean =
      std::make_shared<const TupleVector>(std::move(scenario.clean));
  return MakePlanSnapshot(name, std::move(config), scenario.schema,
                          std::move(clean), std::move(scenario.pipeline), seed,
                          parallelism, scenario.stream_start,
                          scenario.stream_end, tuples_per_sec);
}

Result<std::shared_ptr<PlanSnapshot>> BuildPlanFromPipelineJson(
    const PlanSnapshot& base, const Json& pipeline_json) {
  // PipelineFromJson checks every field and binds against the session
  // schema, so every rejection carries its JSON pointer and happens
  // before a snapshot exists.
  ICEWAFL_ASSIGN_OR_RETURN(PollutionPipeline pipeline,
                           PipelineFromJson(pipeline_json, base.schema));
  return MakePlanSnapshot("custom", pipeline_json, base.schema, base.clean,
                          std::move(pipeline), base.seed, base.parallelism,
                          base.stream_start, base.stream_end,
                          base.tuples_per_sec);
}

Status ServePlanToSink(const PlanContext& ctx, Sink* sink) {
  PlanPtr plan = ctx.plan;
  if (plan == nullptr && ctx.latest != nullptr) plan = ctx.latest();
  if (plan == nullptr) {
    return Status::InvalidArgument("no plan snapshot to serve");
  }
  uint64_t offset = 0;
  while (true) {
    if (ctx.on_segment != nullptr) {
      ctx.on_segment(PlanSegment{plan->version, offset});
    }
    PlanSegmentSource source(plan, offset, ctx.latest);
    ICEWAFL_RETURN_NOT_OK(RunPlanSegment(*plan, &source, sink));
    offset += source.consumed();
    if (source.cutover() == nullptr || offset >= plan->clean->size()) {
      return Status::OK();  // stream end (under whichever plan was last)
    }
    // Adopt the newest snapshot, not necessarily the one that tripped
    // the probe — back-to-back swaps collapse into one cutover.
    plan = ctx.latest != nullptr ? ctx.latest() : source.cutover();
    if (plan == nullptr) plan = source.cutover();
  }
}

Result<TupleVector> RunPlanSegmentOffline(const PlanSnapshot& plan,
                                          uint64_t start_row,
                                          uint64_t end_row) {
  const TupleVector& clean = *plan.clean;
  if (start_row > clean.size() || end_row > clean.size() ||
      start_row > end_row) {
    return Status::OutOfRange("segment [" + std::to_string(start_row) + ", " +
                              std::to_string(end_row) +
                              ") outside the clean stream of " +
                              std::to_string(clean.size()) + " rows");
  }
  TupleVector slice(clean.begin() + static_cast<ptrdiff_t>(start_row),
                    clean.begin() + static_cast<ptrdiff_t>(end_row));
  VectorSource source(plan.schema, std::move(slice));
  VectorSink out;
  ICEWAFL_RETURN_NOT_OK(RunPlanSegment(plan, &source, &out));
  return out.TakeTuples();
}

}  // namespace scenarios
}  // namespace icewafl
