#ifndef ICEWAFL_SCENARIOS_SCENARIOS_H_
#define ICEWAFL_SCENARIOS_SCENARIOS_H_

#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/plan.h"
#include "dq/suite.h"
#include "stream/runtime.h"
#include "stream/sink.h"
#include "stream/source.h"
#include "util/json.h"

namespace icewafl {
namespace scenarios {

/// \file
/// The pollution scenarios and matching expectation suites of the
/// paper's evaluation (Section 3), expressed against this repository's
/// synthetic datasets. Benchmarks and examples share these builders so
/// that the experiment harnesses stay faithful to one definition.

// ---------------------------------------------------------------------
// Experiment 1 (wearable stream, Section 3.1)
// ---------------------------------------------------------------------

/// \brief Scenario 3.1.1 — random temporal errors: NULLs injected into
/// `Distance` with the daily sinusoidal probability
/// p(t) = 0.25 * cos(pi/12 * t) + 0.25.
PollutionPipeline RandomTemporalErrorsPipeline();

/// \brief Expectation detecting scenario 3.1.1's missing values.
dq::ExpectationSuite RandomTemporalErrorsSuite();

/// \brief Expected number of polluted tuples per hour-of-day for
/// scenario 3.1.1 given the tuple-count histogram of the clean stream
/// (the blue series of Figure 4).
std::vector<double> RandomTemporalExpectedPerHour(
    const std::vector<uint64_t>& tuples_per_hour);

/// \brief Scenario 3.1.2 — the software-update composite polluter of
/// Figure 5: after 2016-02-27, Distance km->cm, CaloriesBurned rounded
/// to 2 decimals, and BPM > 100 readings set to 0 then (p = 0.2) to NULL.
PollutionPipeline SoftwareUpdatePipeline();

/// \brief The four GX-style expectations of scenario 3.1.2 (order:
/// steps>=distance, calories regex, BPM-zero activity sum, BPM not null).
dq::ExpectationSuite SoftwareUpdateSuite();

/// \brief Table 1's expected post-pollution error counts for the default
/// wearable stream.
struct SoftwareUpdateExpectations {
  double bpm_zero = 26.4;      ///< 0.8 * 33 (plus 2 pre-existing found)
  int bpm_zero_preexisting = 2;
  double bpm_null = 6.6;       ///< 0.2 * 33
  int distance = 374;
  int calories = 960;
  int gated_tuples = 1056;     ///< tuples after the update date (Figure 5)
  int bpm_gated = 33;          ///< tuples with BPM > 100 (Figure 5)
};
SoftwareUpdateExpectations SoftwareUpdateExpectedCounts();

/// \brief Scenario 3.1.3 — bad network connection: tuples between 13:00
/// and 14:59 are delayed by one hour with nested probability 0.2.
PollutionPipeline NetworkDelayPipeline();

/// \brief Expectation detecting scenario 3.1.3's delays (increasing
/// timestamps).
dq::ExpectationSuite NetworkDelaySuite();

// ---------------------------------------------------------------------
// Experiment 2 (air-quality stream, Section 3.2)
// ---------------------------------------------------------------------

/// \brief D_noise pipeline — temporally increasing multiplicative
/// uniform noise (Equation 3) on the given numerical attributes, with
/// noise magnitude ramping from 0 to `pi_max` over the stream.
PollutionPipeline TemporalNoisePipeline(
    const std::vector<std::string>& attributes, double pi_max);

/// \brief D_scale pipeline — scale-by-`factor` errors gated by a prior
/// probability `prior` AND the stream-relative activation ramp of
/// Equation 4; an activation persists for `hold_hours` hours.
PollutionPipeline TemporalScalePipeline(
    const std::vector<std::string>& attributes, double factor, double prior,
    int hold_hours);

/// \brief The numerical air-quality attributes polluted in Experiment 2.
std::vector<std::string> AirQualityNumericAttributes();

// ---------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------

/// \brief One paper scenario resolved end-to-end: the generated clean
/// dataset, the pollution pipeline, the matching expectation suite
/// (where Section 3 defines one), and the stream bounds that
/// stream-relative profiles (Equations 3/4) need. Every consumer of a
/// scenario by name — `icewafl_cli run`, `icewafl_cli serve`, benches —
/// resolves through this one definition, which is what makes the served
/// stream byte-identical to the offline run.
struct ResolvedScenario {
  std::string name;
  PollutionPipeline pipeline;
  std::optional<dq::ExpectationSuite> suite;
  SchemaPtr schema;
  TupleVector clean;
  Timestamp stream_start = 0;
  Timestamp stream_end = 0;
};

/// \brief The five runnable scenario names, in documentation order.
const std::vector<std::string>& ScenarioNames();

/// \brief Resolves `name` (one of ScenarioNames()) with the dataset
/// generated from `seed` (0 keeps the dataset default). The clean rows
/// come prepared: id = row index, event and arrival time = timestamp.
/// InvalidArgument for an unknown name.
Result<ResolvedScenario> ResolveScenario(const std::string& name,
                                         uint64_t seed);

// ---------------------------------------------------------------------
// Streaming execution
// ---------------------------------------------------------------------

/// \brief Runs a scenario pipeline over `source` on the pipelined
/// runtime (`PipelineRuntime`) and pushes every output tuple into
/// `sink` (which may fan out over TCP, write CSV, or materialize). It
/// is PollutionProcess::Run with m = `parallelism` sub-streams, each a
/// clone of `prototype`, and no overlap (RunSubstreams): the same
/// seeds, sub-stream tags and arrival order, streamed at steady-state
/// memory instead of materialized. `parallelism` < 1 is the runtime's
/// InvalidArgument. Optionally returns the run's RuntimeStats through
/// `stats`.
///
/// When `metrics` / `trace` are non-null the runtime and every worker's
/// PolluterOperator publish into them (stage counters, per-polluter
/// activation counts, trace spans); output bytes are identical either
/// way. Pipelines with stream-relative profiles (Equations 3/4) need
/// `stream_start` / `stream_end`; left at 0/0 those profiles evaluate
/// to their unbounded-stream degenerate value.
Status StreamPipelineToSink(Source* source, const PollutionPipeline& prototype,
                            uint64_t seed, int parallelism, Sink* sink,
                            RuntimeStats* stats = nullptr,
                            obs::MetricRegistry* metrics = nullptr,
                            obs::TraceRecorder* trace = nullptr,
                            Timestamp stream_start = 0,
                            Timestamp stream_end = 0);

// ---------------------------------------------------------------------
// Versioned plan serving (DESIGN.md section 14)
// ---------------------------------------------------------------------

/// \brief Compiles a built-in scenario into an unpublished PlanSnapshot:
/// the resolved clean stream, the bound pipeline, the seed/parallelism
/// knobs, and the full-stream profile bounds, ready for
/// PollutionServer::AddSession / SwapPlan to version and publish.
Result<std::shared_ptr<PlanSnapshot>> BuildScenarioPlan(
    const std::string& name, uint64_t seed, int parallelism,
    double tuples_per_sec = 0.0);

/// \brief Compiles a raw pipeline document into an unpublished snapshot
/// that inherits everything else — schema, clean stream, seed,
/// parallelism, bounds, rate — from `base` (the session's current
/// plan). The document is loaded and bound against the schema by
/// PipelineFromJson before a snapshot exists to publish; callers that
/// want the full lint gate run analysis::AnalyzePipeline first (the
/// CLI's admin hooks do). The new plan's scenario is "custom".
Result<std::shared_ptr<PlanSnapshot>> BuildPlanFromPipelineJson(
    const PlanSnapshot& base, const Json& pipeline_json);

/// \brief The plan-driven session function: streams `ctx.plan`'s clean
/// rows through its pipeline into `sink`, polling `ctx.latest()` every
/// few rows. When a newer snapshot has been published, the current
/// segment's in-flight rows drain under the old plan, then the runner
/// adopts the newest snapshot and continues from the next clean row —
/// no row is dropped, duplicated, or polluted by two plans. Each
/// adopted segment is reported through `ctx.on_segment` before its
/// first row, so the produced stream is exactly the concatenation of
/// offline runs of each segment's plan over its row slice (the cutover
/// determinism contract the loopback tests enforce). Pacing
/// (`tuples_per_sec`) delays rows and, through SegmentBatchSize, sets
/// the batch size; the output order depends on neither, so a paced plan
/// serves the bytes of its unpaced twin.
Status ServePlanToSink(const PlanContext& ctx, Sink* sink);

/// \brief Offline twin of one ServePlanToSink segment: runs `plan` over
/// its clean rows [start_row, end_row) with the plan's seed,
/// parallelism, and full-stream bounds, then through a fresh sequential
/// cleaner when the plan has one. Both share one segment runner, so
/// concatenating the outputs for a run's recorded segments reproduces
/// the served stream byte-for-byte.
Result<TupleVector> RunPlanSegmentOffline(const PlanSnapshot& plan,
                                          uint64_t start_row,
                                          uint64_t end_row);

/// \brief Tuples per runtime batch for a plan segment paced at
/// `tuples_per_sec` over `parallelism` workers. Unpaced plans
/// (`tuples_per_sec` <= 0) keep the runtime default of 256; a paced
/// plan batches the rows one worker receives in 2 ms at that pace,
/// floor(tuples_per_sec * 0.002 / parallelism) clamped to [1, 256], so
/// a served row never waits long for its batch to fill.
size_t SegmentBatchSize(double tuples_per_sec, int parallelism);

}  // namespace scenarios
}  // namespace icewafl

#endif  // ICEWAFL_SCENARIOS_SCENARIOS_H_
