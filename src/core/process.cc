#include "core/process.h"

#include <algorithm>
#include <utility>

#include "core/polluter_operator.h"
#include "stream/sink.h"

namespace icewafl {

Status RunSubstreams(Source* source, std::vector<PollutionPipeline> pipelines,
                     uint64_t seed, double overlap_fraction,
                     RuntimeOptions options, Timestamp stream_start,
                     Timestamp stream_end, Sink* sink,
                     std::vector<PollutionLog>* logs, RuntimeStats* stats) {
  const int m = static_cast<int>(pipelines.size());
  Rng master(seed);
  Rng split = master.Fork();
  std::vector<uint64_t> seeds;
  for (int s = 0; s < m; ++s) seeds.push_back(master.Next());
  if (logs != nullptr) logs->assign(pipelines.size(), PollutionLog());
  options.parallelism = m;
  if (m > 1 && overlap_fraction > 0.0) {
    options.overlap_worker = [&split, m, overlap_fraction](int primary) {
      if (!split.Bernoulli(overlap_fraction)) return -1;
      const auto other = static_cast<int>(split.UniformInt(0, m - 2));
      return other >= primary ? other + 1 : other;
    };
  }
  PipelineRuntime runtime(options);
  ICEWAFL_RETURN_NOT_OK(runtime.Run(
      source,
      [&](int s) {
        const auto i = static_cast<size_t>(s);
        auto polluter = std::make_unique<PolluterOperator>(
            std::move(pipelines[i]), seeds[i], stream_start, stream_end,
            logs != nullptr ? &(*logs)[i] : nullptr, s);
        polluter->BindMetrics(options.metrics);
        OperatorChain chain;
        chain.push_back(std::move(polluter));
        return chain;
      },
      sink));
  if (stats != nullptr) *stats = runtime.stats();
  return Status::OK();
}

PollutionProcess::PollutionProcess(ProcessOptions options)
    : options_(std::move(options)) {}

void PollutionProcess::AddPipeline(PollutionPipeline pipeline) {
  pipelines_.push_back(std::move(pipeline));
}

Result<PollutionResult> PollutionProcess::Run(Source* source) {
  const int m = options_.num_substreams;
  if (m < 1) {
    return Status::InvalidArgument("num_substreams must be >= 1");
  }
  if (static_cast<int>(pipelines_.size()) != m) {
    return Status::InvalidArgument(
        "expected " + std::to_string(m) + " pipelines, got " +
        std::to_string(pipelines_.size()));
  }
  if (options_.overlap_fraction < 0.0 || options_.overlap_fraction > 1.0) {
    return Status::InvalidArgument("overlap_fraction must be in [0, 1]");
  }
  if (options_.stream_start.has_value() != options_.stream_end.has_value()) {
    return Status::InvalidArgument(
        "stream_start and stream_end must be set together");
  }
  if (options_.stream_start.has_value() &&
      *options_.stream_start > *options_.stream_end) {
    return Status::InvalidArgument(
        "stream_start must be <= stream_end (got start=" +
        std::to_string(*options_.stream_start) +
        ", end=" + std::to_string(*options_.stream_end) + ")");
  }

  PollutionResult result;
  result.schema = source->schema();

  // --- Step 1: prepare data -------------------------------------------
  // Assign ids, replicate the timestamp into the event-time replica tau,
  // and initialize the arrival time (Algorithm 1, lines 1-3).
  ICEWAFL_ASSIGN_OR_RETURN(result.clean, CollectAll(source));
  TupleId next_id = 0;
  for (Tuple& t : result.clean) {
    t.set_id(next_id++);
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp ts, t.GetTimestamp());
    t.set_event_time(ts);
    t.set_arrival_time(ts);
  }
  auto earlier = [](const Tuple& a, const Tuple& b) {
    return a.event_time() < b.event_time();
  };
  const TupleVector& clean = result.clean;
  const bool in_order = std::is_sorted(clean.begin(), clean.end(), earlier);

  Timestamp stream_start = 0;
  Timestamp stream_end = 0;
  if (options_.stream_start.has_value()) {
    stream_start = *options_.stream_start;
    stream_end = *options_.stream_end;
  } else if (!clean.empty()) {
    // Derive bounds from the prepared input.
    auto [first, last] =
        std::minmax_element(clean.begin(), clean.end(), earlier);
    stream_start = first->event_time();
    stream_end = last->event_time();
  }

  // Bind every pipeline against the source schema up front (DESIGN.md
  // §8): misconfiguration fails here with a JSON-pointer path instead of
  // surfacing on the first tuple.
  if (result.schema != nullptr) {
    for (PollutionPipeline& pipeline : pipelines_) {
      ICEWAFL_RETURN_NOT_OK(pipeline.Bind(result.schema));
    }
  }

  // --- Steps 2+3 (lines 4-11) on the runtime ---------------------------
  std::vector<PollutionLog> logs;
  VectorSource rows(result.schema, result.clean);
  VectorSink out;
  ICEWAFL_RETURN_NOT_OK(RunSubstreams(
      &rows, std::move(pipelines_), options_.seed, options_.overlap_fraction,
      RuntimeOptions{}, stream_start, stream_end, &out,
      options_.enable_log ? &logs : nullptr));
  pipelines_.clear();
  result.polluted = out.TakeTuples();
  if (!in_order) {
    std::sort(result.polluted.begin(), result.polluted.end(), ArrivesBefore);
  }
  for (PollutionLog& log : logs) {
    for (const PollutionLogEntry& e : log.entries()) {
      result.log.Record(e);
    }
  }
  return result;
}

Result<PollutionResult> PollutionProcess::Pollute(Source* source,
                                                  PollutionPipeline pipeline,
                                                  uint64_t seed,
                                                  bool enable_log) {
  ProcessOptions options;
  options.num_substreams = 1;
  options.seed = seed;
  options.enable_log = enable_log;
  PollutionProcess process(options);
  process.AddPipeline(std::move(pipeline));
  return process.Run(source);
}

}  // namespace icewafl
