// bench_e2e — the end-to-end benchmark of the served pollute -> clean ->
// DQ path, with per-layer attribution (README.md beside this file has
// the workload rationale, the metric table and how to read a trace).
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--chrome-trace PATH] [--workdir DIR]
//   bench_e2e --smoke [--corrupt-reference] [--workdir DIR]
//
// A repetition stands up a fresh in-process PollutionServer, serves a
// plan-driven session (scenarios::ServePlanToSink) to StreamClient
// subscribers over loopback for a fixed number of runs, and tears it
// down; repetitions repeat until --seconds of measurement have passed
// (at least kMinReps). Every decoded row is folded into an
// order-sensitive digest which, after timing, is compared with
// scenarios::RunPlanSegmentOffline over the run's recorded segments.
// Layers are measured only from outside: by timing calls into their
// public functions and by decorating the SessionFn, the server-provided
// Sink and PlanContext::on_segment.
//
// The last line on stdout is one JSON object {"correct", "attempted",
// "failed", "metrics"}: --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones (a traced pass that interleaves bare and
// instrumented repetitions, plus isolated replays of the workload's own
// rows).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "clean/cleaner.h"
#include "clean/config.h"
#include "core/plan.h"
#include "core/process.h"
#include "data/airquality.h"
#include "data/wearable.h"
#include "dq/expectation.h"
#include "dq/monitor.h"
#include "io/csv.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/net_metrics.h"
#include "obs/trace.h"
#include "scenarios/closed_loop.h"
#include "scenarios/scenarios.h"
#include "stream/batch.h"
#include "stream/runtime.h"
#include "stream/sink.h"
#include "stream/source.h"
#include "util/json.h"

namespace {

using namespace icewafl;  // NOLINT

constexpr char kSessionId[] = "e2e";
/// Repetitions a run makes at least, whatever --seconds says: every
/// reported metric is a quartile over at least this many.
constexpr int kMinReps = 5;
constexpr int kMaxReps = 200;
/// Sampled rows per repetition for the latency percentiles.
constexpr size_t kLatencySamplesPerRep = 200000;
/// Rows per sink.write / client.next span (bounds the trace's memory).
constexpr size_t kChunkRows = 256;
/// Tumbling window of the closed-loop subscriber's DQ monitor.
constexpr int64_t kWindowSeconds = 6 * 3600;
/// Rows of the CSV layer replay (CsvSink formatting is ~66 us/row).
constexpr size_t kCsvReplayRows = 10000;
/// A hung run ends the process, without a result line, inside the
/// 180 seconds a run may take.
constexpr unsigned kWatchdogSeconds = 170;
/// Trace tracks: 0 = benchmark main thread, 1..4 = subscribers, this
/// one = the server's runner thread.
constexpr int64_t kServerTid = 100;

// ---------------------------------------------------------------------
// Clock, resources, statistics
// ---------------------------------------------------------------------

int64_t ToNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

int64_t NowNs() { return ToNs(std::chrono::steady_clock::now()); }

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// User + system CPU of the whole process (server, runtime and
/// subscriber threads alike).
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Linearly interpolated q-quantile (q in [0, 1]); 0 for no values.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

// ---------------------------------------------------------------------
// Order-sensitive row digest
// ---------------------------------------------------------------------

constexpr uint64_t kDigestSeed = 0xC0FFEE1CEA5EEDULL;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}

/// Folds one decoded row — id, the three times, sub-stream and every
/// value's type and bits — into `h`. Nothing is re-encoded, so a wire
/// change that decodes to the same rows keeps the digest.
uint64_t FoldTuple(uint64_t h, const Tuple& tuple) {
  h = Mix(h, tuple.id());
  h = Mix(h, static_cast<uint64_t>(tuple.event_time()));
  h = Mix(h, static_cast<uint64_t>(tuple.arrival_time()));
  h = Mix(h, static_cast<uint64_t>(static_cast<int64_t>(tuple.substream())));
  for (const Value& v : tuple.values()) {
    h = Mix(h, static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        h = Mix(h, v.AsBool() ? 1 : 0);
        break;
      case ValueType::kInt64:
        h = Mix(h, static_cast<uint64_t>(v.AsInt64()));
        break;
      case ValueType::kDouble: {
        const double d = v.AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        h = Mix(h, bits);
        break;
      }
      case ValueType::kString:
        h = Mix(h, std::hash<std::string_view>{}(v.AsString()));
        break;
    }
  }
  return h;
}

uint64_t DigestBytes(const std::string& bytes) {
  return Mix(kDigestSeed, std::hash<std::string_view>{}(bytes));
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

enum class Dataset { kAirQuality, kWearable };

/// Rows of the stock wearable stream (WearableOptions defaults).
constexpr size_t kWearableBaseRows = 1059;

/// One named workload. Row and run counts are fixed here so that two
/// commits measured with the same flags do identical work in every
/// repetition (README.md explains why each workload exists).
struct Workload {
  std::string name;
  Dataset dataset;
  size_t rows;               ///< clean rows per run
  int parallelism;           ///< polluter workers (P)
  int subscribers;           ///< loopback subscribers; 0 = offline CSV path
  bool batch_frames;         ///< subscribers negotiate kCapBatchFrames
  double tuples_per_sec;     ///< pacing; 0 = unpaced (closed loop)
  int swap_every_ms;         ///< control-thread SwapPlan period; 0 = none
  int runs_per_rep;          ///< server runs (and reconnects) per repetition
  std::string scenario;      ///< initial plan's pipeline, cleaner and suite
  std::string swap_scenario;  ///< plan the control thread alternates to
  bool clean_and_monitor;    ///< stock cleaner in the plan + subscriber DQ
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"noise_batch", Dataset::kAirQuality, 100000, 2, 2, true, 0, 0, 4,
       "temporal_noise", "", false},
      {"fanout_tuple", Dataset::kWearable, 100 * kWearableBaseRows, 1, 4,
       false, 0, 0, 1, "random_temporal", "", false},
      {"closed_loop", Dataset::kWearable, 100 * kWearableBaseRows, 2, 1,
       false, 0, 0, 1, "software_update", "", true},
      {"paced_swap", Dataset::kAirQuality, 25000, 2, 2, false, 50000, 250, 1,
       "temporal_noise", "temporal_scale", false},
      {"offline_csv", Dataset::kAirQuality, 4380, 1, 0, false, 0, 0, 1,
       "temporal_scale", "", false},
  };
  return kWorkloads;
}

/// The ~2k-row variant the ctest smoke test runs: same code paths,
/// two runs per repetition so reconnects are exercised.
Workload SmokeVariant(Workload w) {
  w.rows = w.dataset == Dataset::kWearable ? 2 * kWearableBaseRows : 2000;
  if (w.subscribers > 0) w.runs_per_rep = 2;
  if (w.tuples_per_sec > 0) w.tuples_per_sec = 20000;
  if (w.swap_every_ms > 0) w.swap_every_ms = 20;
  return w;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t DatasetSeed(uint64_t seed) { return SplitMix(seed); }
uint64_t PollutionSeed(uint64_t seed) { return SplitMix(SplitMix(seed)); }

Result<TupleVector> Generate(const Workload& w, uint64_t dataset_seed) {
  if (w.dataset == Dataset::kAirQuality) {
    data::AirQualityOptions options;
    options.hours = w.rows;
    options.seed = dataset_seed;
    return data::GenerateAirQuality(options);
  }
  // The paper's wearable stream scaled k-fold: every count of Table 1
  // grows with it, so the scenarios keep their shape.
  data::WearableOptions options;
  const int k = static_cast<int>(w.rows / kWearableBaseRows);
  options.seed = dataset_seed;
  options.total_tuples = static_cast<int>(w.rows);
  options.not_worn_tuples *= k;
  options.active_tuples *= k;
  options.exercise_tuples *= k;
  options.anomalous_tuples *= k;
  return data::GenerateWearable(options);
}

Result<PollutionPipeline> PipelineFor(const std::string& scenario) {
  if (scenario == "temporal_noise") {
    return scenarios::TemporalNoisePipeline(
        scenarios::AirQualityNumericAttributes(), 0.5);
  }
  if (scenario == "temporal_scale") {
    return scenarios::TemporalScalePipeline(
        scenarios::AirQualityNumericAttributes(), 10.0, 0.1, 24);
  }
  if (scenario == "random_temporal") {
    return scenarios::RandomTemporalErrorsPipeline();
  }
  if (scenario == "software_update") return scenarios::SoftwareUpdatePipeline();
  return Status::InvalidArgument("no pipeline for scenario '" + scenario + "'");
}

/// Everything a repetition sets up before its subscribers connect.
struct Inputs {
  SchemaPtr schema;
  std::shared_ptr<const TupleVector> clean;
  std::shared_ptr<PlanSnapshot> plan;       ///< initial plan (unpublished)
  std::shared_ptr<PlanSnapshot> swap_plan;  ///< paced_swap's alternate
  double generate_s = 0;

  /// The plan a recorded segment's label names (verification).
  const PlanSnapshot* PlanFor(const std::string& label) const {
    if (plan != nullptr && plan->scenario == label) return plan.get();
    if (swap_plan != nullptr && swap_plan->scenario == label) {
      return swap_plan.get();
    }
    return nullptr;
  }
};

Result<std::shared_ptr<PlanSnapshot>> CompilePlan(const Workload& w,
                                                  const std::string& scenario,
                                                  const Inputs& in,
                                                  uint64_t seed) {
  ICEWAFL_ASSIGN_OR_RETURN(PollutionPipeline pipeline, PipelineFor(scenario));
  Json config = pipeline.ToJson();
  return MakePlanSnapshot(scenario, std::move(config), in.schema, in.clean,
                          std::move(pipeline), PollutionSeed(seed),
                          w.parallelism, in.clean->front().event_time(),
                          in.clean->back().event_time(), w.tuples_per_sec);
}

/// Dataset generation and plan compile/bind — the set-up every
/// repetition repeats.
Result<Inputs> MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  const int64_t start = NowNs();
  ICEWAFL_ASSIGN_OR_RETURN(TupleVector rows, Generate(w, DatasetSeed(seed)));
  in.generate_s = NsToS(NowNs() - start);
  if (rows.empty()) return Status::Internal(w.name + ": generated no rows");
  // What PolluterOperator::Prepare would assign, stamped once here so
  // ids stay unique across P workers and latency can be keyed by row.
  for (size_t i = 0; i < rows.size(); ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(const Timestamp ts, rows[i].GetTimestamp());
    rows[i].set_id(static_cast<TupleId>(i));
    rows[i].set_event_time(ts);
    rows[i].set_arrival_time(ts);
  }
  in.schema = rows.front().schema();
  in.clean = std::make_shared<const TupleVector>(std::move(rows));
  ICEWAFL_ASSIGN_OR_RETURN(in.plan, CompilePlan(w, w.scenario, in, seed));
  if (w.clean_and_monitor) {
    ICEWAFL_ASSIGN_OR_RETURN(scenarios::ScenarioCleaner cleaner,
                             scenarios::CleanerForScenario(w.scenario));
    ICEWAFL_ASSIGN_OR_RETURN(
        in.plan, scenarios::BuildPlanWithCleaner(*in.plan, cleaner.rules));
  }
  if (!w.swap_scenario.empty()) {
    ICEWAFL_ASSIGN_OR_RETURN(in.swap_plan,
                             CompilePlan(w, w.swap_scenario, in, seed));
  }
  return in;
}

/// Healthy [min, max] of each polluted air-quality attribute over the
/// clean rows: the rule the derived cleaner and suite check.
std::vector<std::tuple<std::string, double, double>> CleanRanges(
    const TupleVector& clean) {
  std::vector<std::tuple<std::string, double, double>> ranges;
  const SchemaPtr& schema = clean.front().schema();
  for (const std::string& column : scenarios::AirQualityNumericAttributes()) {
    auto index = schema->IndexOf(column);
    if (!index.ok()) continue;
    double lo = 0, hi = 0;
    bool seen = false;
    for (const Tuple& t : clean) {
      auto v = t.value(index.ValueOrDie()).ToDouble();
      if (!v.ok()) continue;
      lo = seen ? std::min(lo, v.ValueOrDie()) : v.ValueOrDie();
      hi = seen ? std::max(hi, v.ValueOrDie()) : v.ValueOrDie();
      seen = true;
    }
    if (seen) ranges.emplace_back(column, lo, hi);
  }
  return ranges;
}

/// The scenario's stock cleaner where the paper defines one (wearable);
/// otherwise a range/clamp rule per polluted attribute.
Result<clean::CleaningRules> CleanerFor(const Workload& w,
                                        const TupleVector& clean) {
  if (w.dataset == Dataset::kWearable) {
    ICEWAFL_ASSIGN_OR_RETURN(scenarios::ScenarioCleaner stock,
                             scenarios::CleanerForScenario(w.scenario));
    return clean::RulesFromJson(stock.rules, clean.front().schema());
  }
  Json rules = Json::MakeArray();
  for (const auto& [column, lo, hi] : CleanRanges(clean)) {
    Json detect = Json::MakeObject();
    detect.Set("type", "range");
    detect.Set("min", lo);
    detect.Set("max", hi);
    Json rule = Json::MakeObject();
    rule.Set("label", column + "_range");
    rule.Set("column", column);
    rule.Set("detect", std::move(detect));
    rule.Set("repair", "clamp");
    rules.Append(std::move(rule));
  }
  Json doc = Json::MakeObject();
  doc.Set("name", w.name + "_range");
  doc.Set("rules", std::move(rules));
  return clean::RulesFromJson(doc, clean.front().schema());
}

/// The scenario's expectation suite (wearable); otherwise a range
/// expectation per polluted attribute. Bound and ready to observe.
Result<dq::ExpectationSuite> SuiteFor(const Workload& w,
                                      const TupleVector& clean) {
  dq::ExpectationSuite suite;
  if (w.scenario == "software_update") {
    suite = scenarios::SoftwareUpdateSuite();
  } else if (w.scenario == "random_temporal") {
    suite = scenarios::RandomTemporalErrorsSuite();
  } else {
    suite = dq::ExpectationSuite(w.name + "_range");
    for (const auto& [column, lo, hi] : CleanRanges(clean)) {
      suite.Expect<dq::ExpectColumnValuesToBeBetween>(column, lo, hi);
    }
  }
  ICEWAFL_RETURN_NOT_OK(suite.Bind(clean.front().schema()));
  return suite;
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/// Chrome-trace spans from steady-clock nanosecond stamps, kept in an
/// obs::TraceRecorder and written when the benchmark ends.
class Spans {
 public:
  Spans() : epoch_ns_(NowNs()) {}

  void Record(const std::string& name, const char* category, int64_t tid,
              int64_t start_ns, int64_t end_ns) {
    recorder_.RecordComplete(name, category, tid,
                             (start_ns - epoch_ns_) / 1000,
                             (end_ns - start_ns) / 1000);
  }

  std::string ToJson() const { return recorder_.ToChromeTraceJson(); }

 private:
  // The recorder's epoch is its construction, right after epoch_ns_ is
  // taken; the skew is far below the microsecond resolution.
  int64_t epoch_ns_;
  obs::TraceRecorder recorder_;
};

void Span(Spans* spans, const std::string& name, const char* category,
          int64_t tid, int64_t start_ns, int64_t end_ns) {
  if (spans != nullptr) spans->Record(name, category, tid, start_ns, end_ns);
}

// ---------------------------------------------------------------------
// Serve-path decorators
// ---------------------------------------------------------------------

/// One plan segment of a server run, as the on_segment decorator saw it.
struct SegmentRecord {
  uint64_t version = 0;
  uint64_t start_row = 0;
  int64_t adopted_ns = 0;
  /// Publication of the plan (for a run's first segment: the run's
  /// start) to its adoption; negative when a newer plan was published
  /// before the decorator could read the adopted one.
  double adopt_ms = -1;
  int64_t first_row_ns = 0;  ///< traced: first row at the sink decorator
};

/// One server run, written by the decorators on the runner thread and
/// read once the server has joined its workers.
struct RunRecord {
  int64_t start_ns = 0;
  std::vector<SegmentRecord> segments;
  // Traced runs only.
  std::vector<double> due_to_sink_ms;
  int64_t sink_write_ns = 0;
  uint64_t sink_rows = 0;
};

/// State a repetition's decorators share between the server's runner
/// thread, the subscribers and the analysis after the run.
class ServeProbe {
 public:
  ServeProbe(size_t clean_rows, size_t stride, double tuples_per_sec,
             Spans* spans, bool traced)
      : stride_(stride),
        ns_per_row_(tuples_per_sec > 0 ? 1e9 / tuples_per_sec : 0.0),
        spans_(spans),
        traced_(traced),
        sink_ns_(clean_rows / stride + 1) {}

  RunRecord* BeginRun() {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.emplace_back();
    return &runs_.back();
  }

  /// Runs in start order. Only read after PollutionServer::Wait().
  const std::deque<RunRecord>& runs() const { return runs_; }

  bool traced() const { return traced_; }
  Spans* spans() const { return spans_; }
  bool Sampled(TupleId id) const { return id % stride_ == 0; }

  /// When row `id` of `segment` was due: the segment's adoption plus its
  /// place in the paced schedule, so a stall is charged to later rows.
  int64_t DueNs(const SegmentRecord& segment, TupleId id) const {
    return segment.adopted_ns +
           static_cast<int64_t>(static_cast<double>(id - segment.start_row) *
                                ns_per_row_);
  }

  /// Sink-decorator instant of a sampled row of the current run (the
  /// next run starts only after every subscriber has read this one).
  void MarkSink(TupleId id, int64_t ns) {
    sink_ns_[id / stride_].store(ns, std::memory_order_relaxed);
  }
  int64_t SinkNs(TupleId id) const {
    return sink_ns_[id / stride_].load(std::memory_order_relaxed);
  }

 private:
  const size_t stride_;
  const double ns_per_row_;
  Spans* const spans_;
  const bool traced_;
  std::mutex mu_;
  std::deque<RunRecord> runs_;
  std::vector<std::atomic<int64_t>> sink_ns_;
};

/// Decorates the server-provided sink of a traced run: times each write
/// (encode-once, enqueue and backpressure), stamps sampled rows for the
/// due -> sink -> client split, and records one span per chunk.
class TimedSink : public Sink {
 public:
  TimedSink(ServeProbe* probe, RunRecord* run, Sink* inner)
      : probe_(probe), run_(run), inner_(inner) {}

  Status Write(const Tuple& tuple) override {
    return Timed(tuple.id(), [&] { return inner_->Write(tuple); });
  }
  Status Write(Tuple&& tuple) override {
    const TupleId id = tuple.id();
    return Timed(id, [&] { return inner_->Write(std::move(tuple)); });
  }
  Status Flush() override { return inner_->Flush(); }

  /// Records the trailing partial chunk's span.
  void EndChunk(int64_t end_ns) {
    if (chunk_rows_ == 0) return;
    Span(probe_->spans(), "sink.write", "serve", kServerTid, chunk_start_ns_,
         end_ns);
    chunk_rows_ = 0;
  }

 private:
  template <typename WriteFn>
  Status Timed(TupleId id, WriteFn&& write) {
    const int64_t before = NowNs();
    SegmentRecord& segment = run_->segments.back();
    if (segment.first_row_ns == 0) segment.first_row_ns = before;
    if (probe_->Sampled(id)) {
      run_->due_to_sink_ms.push_back(
          NsToMs(before - probe_->DueNs(segment, id)));
      probe_->MarkSink(id, before);
    }
    Status status = write();
    const int64_t after = NowNs();
    run_->sink_write_ns += after - before;
    ++run_->sink_rows;
    if (chunk_rows_ == 0) chunk_start_ns_ = before;
    if (++chunk_rows_ == kChunkRows) EndChunk(after);
    return status;
  }

  ServeProbe* probe_;
  RunRecord* run_;
  Sink* inner_;
  size_t chunk_rows_ = 0;
  int64_t chunk_start_ns_ = 0;
};

/// The session function: ServePlanToSink behind an on_segment decorator
/// (always — latency is keyed by segment adoption) and, in traced runs,
/// a TimedSink.
net::PollutionServer::SessionFn MakeSessionFn(ServeProbe* probe) {
  return [probe](const PlanContext& ctx, Sink* sink) -> Status {
    RunRecord* run = probe->BeginRun();
    run->start_ns = NowNs();
    PlanContext wrapped = ctx;
    wrapped.on_segment = [probe, run, &ctx](const PlanSegment& segment) {
      SegmentRecord record;
      record.version = segment.version;
      record.start_row = segment.start_row;
      record.adopted_ns = NowNs();
      if (run->segments.empty()) {
        record.adopt_ms = NsToMs(record.adopted_ns - run->start_ns);
      } else {
        PlanPtr newest = ctx.latest != nullptr ? ctx.latest() : nullptr;
        if (newest != nullptr && newest->version == segment.version) {
          record.adopt_ms =
              NsToMs(record.adopted_ns - ToNs(newest->published_at));
        }
        Span(probe->spans(), "segment", "serve", kServerTid,
             run->segments.back().adopted_ns, record.adopted_ns);
      }
      run->segments.push_back(record);
      if (ctx.on_segment != nullptr) ctx.on_segment(segment);
    };
    Status status;
    if (probe->traced()) {
      TimedSink timed(probe, run, sink);
      status = scenarios::ServePlanToSink(wrapped, &timed);
      timed.EndChunk(NowNs());
    } else {
      status = scenarios::ServePlanToSink(wrapped, sink);
    }
    const int64_t end = NowNs();
    if (!run->segments.empty()) {
      Span(probe->spans(), "segment", "serve", kServerTid,
           run->segments.back().adopted_ns, end);
    }
    Span(probe->spans(), "run", "serve", kServerTid, run->start_ns, end);
    return status;
  };
}

// ---------------------------------------------------------------------
// Repetitions
// ---------------------------------------------------------------------

/// What a consumer produced for one run: the decoded rows' digest (or
/// the written file's), their count, and the DQ monitor's verdict.
struct Outcome {
  uint64_t digest = kDigestSeed;
  uint64_t rows = 0;
  uint64_t failed_windows = 0;

  bool operator==(const Outcome&) const = default;
};

/// One run to verify: its plan segments as (plan label, first row) and
/// each consumer's outcome (nullopt: the consumer never finished it).
struct RunCheck {
  std::vector<std::pair<std::string, uint64_t>> segments;
  std::vector<std::optional<Outcome>> observed;
};

/// Serve-path numbers of traced repetitions (per-layer metrics).
struct ServeTrace {
  std::vector<double> due_to_sink_ms;
  std::vector<double> sink_to_client_ms;
  std::vector<double> segment_restart_ms;
  std::vector<double> adopt_ms;
  std::vector<double> send_latency_p99_ms;
  int64_t sink_write_ns = 0;
  uint64_t sink_rows = 0;
  int64_t next_wait_ns = 0;
  int64_t consume_ns = 0;
  uint64_t rows = 0;
  uint64_t runs = 0;
  uint64_t segments = 0;
  uint64_t bytes_sent = 0;
  uint64_t queue_blocked_pushes = 0;

  void Merge(ServeTrace other) {
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&due_to_sink_ms, other.due_to_sink_ms);
    append(&sink_to_client_ms, other.sink_to_client_ms);
    append(&segment_restart_ms, other.segment_restart_ms);
    append(&adopt_ms, other.adopt_ms);
    append(&send_latency_p99_ms, other.send_latency_p99_ms);
    sink_write_ns += other.sink_write_ns;
    sink_rows += other.sink_rows;
    next_wait_ns += other.next_wait_ns;
    consume_ns += other.consume_ns;
    rows += other.rows;
    runs += other.runs;
    segments += other.segments;
    bytes_sent += other.bytes_sent;
    queue_blocked_pushes += other.queue_blocked_pushes;
  }
};

/// One repetition: its measurements and what verification needs.
struct Rep {
  bool traced = false;
  Status status;  ///< set-up or serving failure: every outcome failed
  double setup_s = 0;
  double seconds = 0;
  double cpu_s = 0;
  uint64_t rows = 0;  ///< rows decoded by all subscribers (or written)
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  std::vector<RunCheck> checks;
  ServeTrace trace;

  double rows_per_s() const {
    return seconds > 0 ? static_cast<double>(rows) / seconds : 0.0;
  }
};

/// A repetition with every outcome still missing (each counts as
/// failed until the repetition fills it in).
Rep EmptyRep(const Workload& w, Status status) {
  Rep rep;
  rep.status = std::move(status);
  const int consumers = std::max(1, w.subscribers);
  rep.checks.resize(static_cast<size_t>(w.runs_per_rep));
  for (RunCheck& check : rep.checks) {
    check.observed.resize(static_cast<size_t>(consumers));
  }
  return rep;
}

/// One subscriber's share of a repetition.
struct Subscriber {
  struct Run {
    Outcome outcome;
    std::vector<std::pair<TupleId, int64_t>> samples;  ///< (id, decoded at)
  };
  std::vector<Run> runs;
  Status status;
  // Traced repetitions only.
  int64_t next_wait_ns = 0;
  int64_t consume_ns = 0;
  std::vector<double> sink_to_client_ms;
};

/// Decodes one run: folds every row into the digest, samples decode
/// instants, and (closed_loop) feeds the windowed DQ monitor.
Status ConsumeRun(net::StreamClient* client, const Workload& w,
                  const TupleVector& clean, ServeProbe* probe, int64_t tid,
                  Subscriber* sub, Subscriber::Run* run) {
  std::optional<dq::WindowedMonitor> monitor;
  if (w.clean_and_monitor) {
    ICEWAFL_ASSIGN_OR_RETURN(dq::ExpectationSuite suite, SuiteFor(w, clean));
    monitor.emplace(std::move(suite), dq::WindowSpec::Tumbling(kWindowSeconds));
  }
  const bool traced = probe->traced();
  Tuple tuple;
  size_t chunk_rows = 0;
  int64_t chunk_start = 0;
  while (true) {
    const int64_t before = traced ? NowNs() : 0;
    ICEWAFL_ASSIGN_OR_RETURN(const bool more, client->Next(&tuple));
    if (!more) break;
    const bool sampled = probe->Sampled(tuple.id());
    const int64_t decoded = traced || sampled ? NowNs() : 0;
    run->outcome.digest = FoldTuple(run->outcome.digest, tuple);
    ++run->outcome.rows;
    if (sampled) {
      run->samples.emplace_back(tuple.id(), decoded);
      if (traced) {
        sub->sink_to_client_ms.push_back(
            NsToMs(decoded - probe->SinkNs(tuple.id())));
      }
    }
    if (monitor.has_value()) ICEWAFL_RETURN_NOT_OK(monitor->Observe(tuple));
    if (traced) {
      const int64_t after = NowNs();
      sub->next_wait_ns += decoded - before;
      sub->consume_ns += after - decoded;
      if (chunk_rows == 0) chunk_start = before;
      if (++chunk_rows == kChunkRows) {
        Span(probe->spans(), "client.next", "client", tid, chunk_start, after);
        chunk_rows = 0;
      }
    }
  }
  if (monitor.has_value()) {
    const int64_t start = NowNs();
    ICEWAFL_RETURN_NOT_OK(monitor->Flush());
    run->outcome.failed_windows = monitor->FailedWindowCount();
    Span(probe->spans(), "client.dq", "client", tid, start, NowNs());
  }
  return Status::OK();
}

/// Latency of each sampled row: decoded instant minus due instant.
std::vector<double> RowLatenciesMs(const ServeProbe& probe,
                                   const std::vector<Subscriber>& subs) {
  std::vector<double> latencies;
  for (const Subscriber& sub : subs) {
    for (size_t r = 0; r < sub.runs.size() && r < probe.runs().size(); ++r) {
      const std::vector<SegmentRecord>& segments = probe.runs()[r].segments;
      if (segments.empty()) continue;
      for (const auto& [id, decoded] : sub.runs[r].samples) {
        // Segments are in adoption order, i.e. by ascending start row.
        auto it = std::upper_bound(
            segments.begin(), segments.end(), id,
            [](TupleId row, const SegmentRecord& s) { return row < s.start_row; });
        const SegmentRecord& segment =
            it == segments.begin() ? segments.front() : *std::prev(it);
        latencies.push_back(NsToMs(decoded - probe.DueNs(segment, id)));
      }
    }
  }
  return latencies;
}

/// One served repetition: set-up (generation, plan compile/bind, server
/// start, first handshakes), then `runs_per_rep` timed runs.
Rep RunServedRep(const Workload& w, uint64_t seed, bool traced,
                 Spans* spans) {
  const int64_t setup_start = NowNs();
  Result<Inputs> made = MakeInputs(w, seed);
  if (!made.ok()) return EmptyRep(w, made.status());
  const Inputs in = std::move(made).ValueOrDie();

  const size_t rows_per_rep = in.clean->size() *
                              static_cast<size_t>(w.runs_per_rep) *
                              static_cast<size_t>(w.subscribers);
  // Odd, so samples fall on every polluter worker's rows alike.
  const size_t stride = std::max<size_t>(1, rows_per_rep / kLatencySamplesPerRep) | 1;
  ServeProbe probe(in.clean->size(), stride, w.tuples_per_sec,
                   traced ? spans : nullptr, traced);
  obs::MetricRegistry registry;
  net::ServerOptions options;
  options.workers = 1;
  options.metrics = traced ? &registry : nullptr;
  net::PollutionServer server(options);
  net::SessionOptions session;
  session.min_subscribers = w.subscribers;
  session.max_runs = static_cast<uint64_t>(w.runs_per_rep);
  session.plan = in.plan;
  Status st = server.AddSession(kSessionId, in.schema, MakeSessionFn(&probe),
                                session);
  if (st.ok()) st = server.Start();
  if (!st.ok()) return EmptyRep(w, st);

  // Plan label of every published version, for verification.
  std::mutex labels_mu;
  std::map<uint64_t, std::string> labels{{1, in.plan->scenario}};

  std::mutex ready_mu;
  std::condition_variable ready_cv;
  int ready = 0;
  std::vector<Subscriber> subs(static_cast<size_t>(w.subscribers));
  const size_t samples_per_run =
      in.clean->size() / stride + 1;
  auto subscribe = [&](size_t index) {
    Subscriber& sub = subs[index];
    for (int r = 0; r < w.runs_per_rep; ++r) {
      auto client = net::StreamClient::Connect(
          "127.0.0.1", server.port(), kSessionId,
          w.batch_frames ? net::kCapBatchFrames : 0);
      if (r == 0) {
        std::lock_guard<std::mutex> lock(ready_mu);
        ++ready;
        ready_cv.notify_all();
      }
      if (!client.ok()) {
        sub.status = client.status();
        break;
      }
      Subscriber::Run run;
      run.samples.reserve(samples_per_run);
      sub.status = ConsumeRun(client.ValueOrDie().get(), w, *in.clean, &probe,
                              static_cast<int64_t>(index) + 1, &sub, &run);
      if (!sub.status.ok()) break;
      sub.runs.push_back(std::move(run));
    }
    // Unblock everyone else: a run never starts short of subscribers.
    if (!sub.status.ok()) server.RequestStop();
  };
  std::vector<std::thread> threads;
  for (size_t i = 0; i < subs.size(); ++i) threads.emplace_back(subscribe, i);
  {
    std::unique_lock<std::mutex> lock(ready_mu);
    ready_cv.wait(lock, [&] { return ready == w.subscribers; });
  }
  const int64_t start = NowNs();
  const double cpu_start = CpuSeconds();

  // The control plane: alternate the two plans every swap_every_ms.
  std::mutex control_mu;
  std::condition_variable control_cv;
  bool served = false;
  std::thread control;
  if (w.swap_every_ms > 0) {
    control = std::thread([&] {
      std::unique_lock<std::mutex> lock(control_mu);
      for (int i = 0;; ++i) {
        if (control_cv.wait_for(lock,
                                std::chrono::milliseconds(w.swap_every_ms),
                                [&] { return served; })) {
          return;
        }
        const PlanSnapshot& next = i % 2 == 0 ? *in.swap_plan : *in.plan;
        lock.unlock();
        // Fails once the session retired after its last run.
        Status swapped = server.SwapPlan(kSessionId, ClonePlan(next));
        if (swapped.ok()) {
          auto plan = server.session_plan(kSessionId);
          if (plan.ok() && plan.ValueOrDie() != nullptr) {
            std::lock_guard<std::mutex> labels_lock(labels_mu);
            labels[plan.ValueOrDie()->version] = plan.ValueOrDie()->scenario;
          }
        }
        lock.lock();
        if (!swapped.ok()) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t end = NowNs();
  const double cpu_end = CpuSeconds();
  if (control.joinable()) {
    {
      std::lock_guard<std::mutex> lock(control_mu);
      served = true;
    }
    control_cv.notify_all();
    control.join();
  }
  Rep rep;
  rep.traced = traced;
  rep.status = server.Wait();
  rep.setup_s = NsToS(start - setup_start);
  rep.seconds = NsToS(end - start);
  rep.cpu_s = cpu_end - cpu_start;
  for (const Subscriber& sub : subs) {
    if (rep.status.ok() && !sub.status.ok()) rep.status = sub.status;
    for (const Subscriber::Run& run : sub.runs) rep.rows += run.outcome.rows;
  }
  const std::vector<double> latencies = RowLatenciesMs(probe, subs);
  rep.latency_p50_ms = Quantile(latencies, 0.5);
  rep.latency_p99_ms = Quantile(latencies, 0.99);

  for (size_t r = 0; r < static_cast<size_t>(w.runs_per_rep); ++r) {
    RunCheck check;
    if (r < probe.runs().size()) {
      for (const SegmentRecord& segment : probe.runs()[r].segments) {
        auto label = labels.find(segment.version);
        check.segments.emplace_back(
            label == labels.end() ? std::string() : label->second,
            segment.start_row);
      }
    }
    for (const Subscriber& sub : subs) {
      check.observed.push_back(
          r < sub.runs.size() ? std::optional<Outcome>(sub.runs[r].outcome)
                              : std::nullopt);
    }
    rep.checks.push_back(std::move(check));
  }

  if (traced) {
    ServeTrace& t = rep.trace;
    for (const RunRecord& run : probe.runs()) {
      t.due_to_sink_ms.insert(t.due_to_sink_ms.end(),
                              run.due_to_sink_ms.begin(),
                              run.due_to_sink_ms.end());
      t.sink_write_ns += run.sink_write_ns;
      t.sink_rows += run.sink_rows;
      ++t.runs;
      for (const SegmentRecord& segment : run.segments) {
        ++t.segments;
        if (segment.adopt_ms >= 0) t.adopt_ms.push_back(segment.adopt_ms);
        if (segment.first_row_ns != 0) {
          t.segment_restart_ms.push_back(
              NsToMs(segment.first_row_ns - segment.adopted_ns));
        }
      }
    }
    for (const Subscriber& sub : subs) {
      t.sink_to_client_ms.insert(t.sink_to_client_ms.end(),
                                 sub.sink_to_client_ms.begin(),
                                 sub.sink_to_client_ms.end());
      t.next_wait_ns += sub.next_wait_ns;
      t.consume_ns += sub.consume_ns;
    }
    t.rows = rep.rows;
    // The server's queue-to-socket histogram of the session.
    const obs::SessionMetrics session_metrics =
        obs::SessionMetrics::Bind(&registry, kSessionId);
    t.send_latency_p99_ms.push_back(
        session_metrics.send_latency->Quantile(0.99) * 1e3);
    t.bytes_sent = obs::ServerMetrics::Bind(&registry).bytes_sent->value();
    t.queue_blocked_pushes = server.frame_queue_stats().blocked_pushes;
  }
  return rep;
}

/// One offline repetition — the paper's `icewafl_cli pollute` path:
/// ReadCsvFile, PollutionProcess::Pollute with the log on, WriteCsvFile.
/// Set-up generates the rows and writes the clean CSV.
Rep RunOfflineRep(const Workload& w, uint64_t seed, bool traced, Spans* spans,
                  const std::string& workdir) {
  Spans* rep_spans = traced ? spans : nullptr;
  const int64_t setup_start = NowNs();
  Result<Inputs> made = MakeInputs(w, seed);
  if (!made.ok()) return EmptyRep(w, made.status());
  const Inputs in = std::move(made).ValueOrDie();
  const std::string input = workdir + "/bench_e2e_clean.csv";
  const std::string output = workdir + "/bench_e2e_polluted.csv";
  Status st = WriteCsvFile(in.schema, *in.clean, input);
  if (!st.ok()) return EmptyRep(w, st);

  const int64_t start = NowNs();
  const double cpu_start = CpuSeconds();
  int64_t read_end = start;
  int64_t pollute_end = start;
  uint64_t rows = 0;
  st = [&]() -> Status {
    ICEWAFL_ASSIGN_OR_RETURN(TupleVector read, ReadCsvFile(in.schema, input));
    read_end = NowNs();
    VectorSource source(in.schema, std::move(read));
    ICEWAFL_ASSIGN_OR_RETURN(PollutionPipeline pipeline, PipelineFor(w.scenario));
    ICEWAFL_ASSIGN_OR_RETURN(
        PollutionResult result,
        PollutionProcess::Pollute(&source, std::move(pipeline), PollutionSeed(seed)));
    pollute_end = NowNs();
    rows = result.polluted.size();
    return WriteCsvFile(in.schema, result.polluted, output);
  }();
  const int64_t end = NowNs();
  const double cpu_end = CpuSeconds();
  Span(rep_spans, "layer.io.ReadCsvFile", "offline", 0, start, read_end);
  Span(rep_spans, "layer.core.Pollute", "offline", 0, read_end, pollute_end);
  Span(rep_spans, "layer.io.WriteCsvFile", "offline", 0, pollute_end, end);

  Rep rep = EmptyRep(w, st);
  rep.traced = traced;
  rep.setup_s = NsToS(start - setup_start);
  rep.seconds = NsToS(end - start);
  rep.cpu_s = cpu_end - cpu_start;
  if (st.ok()) {
    rep.rows = rows;
    // A batch job delivers every row when the file is complete.
    rep.latency_p50_ms = rep.latency_p99_ms = NsToMs(end - start);
    std::ifstream file(output, std::ios::binary);
    std::ostringstream bytes;
    bytes << file.rdbuf();
    rep.checks[0].observed[0] =
        Outcome{DigestBytes(bytes.str()), rep.rows, 0};
  }
  std::error_code ignored;
  std::filesystem::remove(input, ignored);
  std::filesystem::remove(output, ignored);
  return rep;
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

/// Reference outcomes, computed after timing from freshly generated
/// inputs (the same seed regenerates the same rows and plans).
class Verifier {
 public:
  Verifier(Workload w, uint64_t seed, bool corrupt)
      : w_(std::move(w)), seed_(seed), corrupt_(corrupt) {}

  /// Adds `rep`'s operations to the counts and reports each failure.
  void Check(const Rep& rep, uint64_t* attempted, uint64_t* failed) {
    for (size_t r = 0; r < rep.checks.size(); ++r) {
      const RunCheck& check = rep.checks[r];
      Result<Outcome> expected = rep.status.ok()
                                     ? Reference(check)
                                     : Result<Outcome>(rep.status);
      for (size_t s = 0; s < check.observed.size(); ++s) {
        ++*attempted;
        const std::optional<Outcome>& seen = check.observed[s];
        if (expected.ok() && seen.has_value() && *seen == expected.ValueOrDie()) {
          continue;
        }
        ++*failed;
        if (!expected.ok()) {
          std::fprintf(stderr, "%s run %zu consumer %zu failed: %s\n",
                       w_.name.c_str(), r, s,
                       expected.status().ToString().c_str());
        } else if (!seen.has_value()) {
          std::fprintf(stderr, "%s run %zu consumer %zu: short stream\n",
                       w_.name.c_str(), r, s);
        } else {
          const Outcome& want = expected.ValueOrDie();
          std::fprintf(stderr,
                       "%s run %zu consumer %zu: reference mismatch (digest "
                       "%016llx vs %016llx, rows %llu vs %llu, failed windows "
                       "%llu vs %llu)\n",
                       w_.name.c_str(), r, s,
                       static_cast<unsigned long long>(seen->digest),
                       static_cast<unsigned long long>(want.digest),
                       static_cast<unsigned long long>(seen->rows),
                       static_cast<unsigned long long>(want.rows),
                       static_cast<unsigned long long>(seen->failed_windows),
                       static_cast<unsigned long long>(want.failed_windows));
        }
      }
    }
  }

 private:
  Result<Outcome> Reference(const RunCheck& check) {
    std::string key;
    for (const auto& [label, start] : check.segments) {
      key += label + "@" + std::to_string(start) + ";";
    }
    auto cached = cache_.find(key);
    if (cached != cache_.end()) return cached->second;
    if (!inputs_.has_value()) {
      ICEWAFL_ASSIGN_OR_RETURN(inputs_, MakeInputs(w_, seed_));
    }
    ICEWAFL_ASSIGN_OR_RETURN(
        Outcome outcome,
        w_.subscribers > 0 ? Served(check) : Offline());
    // The smoke test's twin proves a wrong reference fails the run.
    if (corrupt_ && cache_.empty()) outcome.digest ^= 1;
    cache_.emplace(key, outcome);
    return outcome;
  }

  /// The concatenation of RunPlanSegmentOffline over the run's segments.
  Result<Outcome> Served(const RunCheck& check) {
    const Inputs& in = *inputs_;
    if (check.segments.empty()) return Status::Internal("run never started");
    std::optional<dq::WindowedMonitor> monitor;
    if (w_.clean_and_monitor) {
      ICEWAFL_ASSIGN_OR_RETURN(dq::ExpectationSuite suite,
                               SuiteFor(w_, *in.clean));
      monitor.emplace(std::move(suite),
                      dq::WindowSpec::Tumbling(kWindowSeconds));
    }
    Outcome outcome;
    for (size_t i = 0; i < check.segments.size(); ++i) {
      const auto& [label, start] = check.segments[i];
      const PlanSnapshot* plan = in.PlanFor(label);
      if (plan == nullptr) {
        return Status::Internal("segment of unknown plan '" + label + "'");
      }
      const uint64_t end = i + 1 < check.segments.size()
                               ? check.segments[i + 1].second
                               : in.clean->size();
      ICEWAFL_ASSIGN_OR_RETURN(TupleVector rows,
                               scenarios::RunPlanSegmentOffline(*plan, start, end));
      for (const Tuple& row : rows) {
        outcome.digest = FoldTuple(outcome.digest, row);
        if (monitor.has_value()) ICEWAFL_RETURN_NOT_OK(monitor->Observe(row));
      }
      outcome.rows += rows.size();
    }
    if (monitor.has_value()) {
      ICEWAFL_RETURN_NOT_OK(monitor->Flush());
      outcome.failed_windows = monitor->FailedWindowCount();
    }
    return outcome;
  }

  /// The offline path without files: pollute the generated rows, format.
  Result<Outcome> Offline() {
    const Inputs& in = *inputs_;
    VectorSource source(in.schema, *in.clean);
    ICEWAFL_ASSIGN_OR_RETURN(PollutionPipeline pipeline, PipelineFor(w_.scenario));
    ICEWAFL_ASSIGN_OR_RETURN(
        PollutionResult result,
        PollutionProcess::Pollute(&source, std::move(pipeline),
                                  PollutionSeed(seed_)));
    return Outcome{DigestBytes(ToCsvString(in.schema, result.polluted)),
                   result.polluted.size(), 0};
  }

  Workload w_;
  uint64_t seed_;
  bool corrupt_;
  std::optional<Inputs> inputs_;
  std::map<std::string, Outcome> cache_;
};

// ---------------------------------------------------------------------
// Isolated layer replays (traced pass)
// ---------------------------------------------------------------------

using LayerValues = std::map<std::string, double>;

/// Times `fn` (returning Status) as a layer.<module>.<fn> span.
template <typename Fn>
Result<double> TimeLayer(Spans* spans, const std::string& name, Fn&& fn) {
  const int64_t start = NowNs();
  ICEWAFL_RETURN_NOT_OK(fn());
  const int64_t end = NowNs();
  Span(spans, name, "layer", 0, start, end);
  return NsToS(end - start);
}

/// Collects a cleaner's output.
class CollectEmitter : public Emitter {
 public:
  Status Emit(Tuple tuple) override {
    tuples_.push_back(std::move(tuple));
    return Status::OK();
  }
  TupleVector& tuples() { return tuples_; }

 private:
  TupleVector tuples_;
};

/// Single-threaded replays of the workload's own rows through each
/// layer's public functions (the runtime replay runs at the workload's
/// P). Copies are made outside the timed calls.
Status LayerReplays(const Workload& w, const Inputs& in, Spans* spans,
                    const std::string& workdir, LayerValues* out) {
  LayerValues& layer = *out;
  const PlanSnapshot& plan = *in.plan;
  const double n = static_cast<double>(in.clean->size());
  auto per_row_ns = [](double seconds, double rows) {
    return rows > 0 ? seconds * 1e9 / rows : 0.0;
  };
  layer["data.generate_us_per_row"] = in.generate_s * 1e6 / n;

  {
    VectorSource source(in.schema, *in.clean);
    CountingSink counting;
    ICEWAFL_ASSIGN_OR_RETURN(
        double s, TimeLayer(spans, "layer.scenarios.StreamPipelineToSink", [&] {
          return scenarios::StreamPipelineToSink(
              &source, plan.pipeline, plan.seed, 1, &counting, nullptr,
              nullptr, nullptr, plan.stream_start, plan.stream_end);
        }));
    layer["core.pollute_ns_per_row"] = per_row_ns(s, n);
  }

  // The log's cost is a difference of two close times: each side is the
  // best of three alternating runs.
  double log_s[2] = {1e300, 1e300};
  for (int attempt = 0; attempt < 3; ++attempt) {
    for (const bool log : {false, true}) {
      VectorSource source(in.schema, *in.clean);
      ICEWAFL_ASSIGN_OR_RETURN(PollutionPipeline pipeline, PipelineFor(w.scenario));
      ICEWAFL_ASSIGN_OR_RETURN(
          const double s,
          TimeLayer(spans, log ? "layer.core.Pollute.log" : "layer.core.Pollute",
                    [&] {
                      return PollutionProcess::Pollute(
                                 &source, std::move(pipeline), plan.seed, log)
                          .status();
                    }));
      log_s[log ? 1 : 0] = std::min(log_s[log ? 1 : 0], s);
    }
  }
  layer["core.pollution_log_ns_per_row"] = per_row_ns(log_s[1] - log_s[0], n);

  TupleVector polluted;
  {
    VectorSource source(in.schema, *in.clean);
    VectorSink sink;
    RuntimeStats stats;
    ICEWAFL_ASSIGN_OR_RETURN(
        double s, TimeLayer(spans, "layer.stream.PipelineRuntime", [&] {
          return scenarios::StreamPipelineToSink(
              &source, plan.pipeline, plan.seed, plan.parallelism, &sink,
              &stats, nullptr, nullptr, plan.stream_start, plan.stream_end);
        }));
    layer["stream.runtime_rows_per_s"] = s > 0 ? n / s : 0.0;
    double source_pushes = 0, worker_pops = 0, worker_pushes = 0, sink_pops = 0;
    for (const StageStats& stage : stats.stages) {
      const auto pushes = static_cast<double>(stage.blocked_pushes);
      const auto pops = static_cast<double>(stage.blocked_pops);
      if (stage.stage == "source") {
        source_pushes += pushes;
      } else if (stage.stage == "sink") {
        sink_pops += pops;
      } else {
        worker_pops += pops;
        worker_pushes += pushes;
      }
    }
    layer["stream.source_blocked_pushes"] = source_pushes;
    layer["stream.worker_blocked_pops"] = worker_pops;
    layer["stream.worker_blocked_pushes"] = worker_pushes;
    layer["stream.sink_blocked_pops"] = sink_pops;
    layer["stream.peak_buffered_tuples"] =
        static_cast<double>(stats.peak_buffered_tuples);
    polluted = sink.TakeTuples();
  }
  const double rows = static_cast<double>(polluted.size());

  // Transposes and frames, in the server's batch_rows chunks.
  std::vector<TupleVector> chunks;
  for (size_t i = 0; i < polluted.size(); i += kChunkRows) {
    chunks.emplace_back(polluted.begin() + static_cast<ptrdiff_t>(i),
                        polluted.begin() + static_cast<ptrdiff_t>(
                                               std::min(i + kChunkRows,
                                                        polluted.size())));
  }
  std::vector<Batch> batches;
  ICEWAFL_ASSIGN_OR_RETURN(
      double transpose_s, TimeLayer(spans, "layer.stream.Batch.transpose", [&] {
        for (const TupleVector& chunk : chunks) {
          ICEWAFL_ASSIGN_OR_RETURN(Batch batch, Batch::FromTuples(chunk));
          if (batch.ToTuples().size() != chunk.size()) {
            return Status::Internal("transpose lost rows");
          }
          batches.push_back(std::move(batch));
        }
        return Status::OK();
      }));
  layer["stream.transpose_ns_per_row"] = per_row_ns(transpose_s, rows);

  std::vector<std::string> payloads;
  payloads.reserve(polluted.size());
  ICEWAFL_ASSIGN_OR_RETURN(
      double encode_s, TimeLayer(spans, "layer.net.EncodeTuplePayload", [&] {
        for (const Tuple& t : polluted) {
          payloads.push_back(net::EncodeTuplePayload(t));
        }
        return Status::OK();
      }));
  ICEWAFL_ASSIGN_OR_RETURN(
      double decode_s, TimeLayer(spans, "layer.net.DecodeTuplePayload", [&] {
        for (const std::string& p : payloads) {
          ICEWAFL_RETURN_NOT_OK(net::DecodeTuplePayload(p, in.schema).status());
        }
        return Status::OK();
      }));
  layer["net.encode_tuple_ns_per_row"] = per_row_ns(encode_s, rows);
  layer["net.decode_tuple_ns_per_row"] = per_row_ns(decode_s, rows);
  payloads.clear();
  ICEWAFL_ASSIGN_OR_RETURN(
      double encode_batch_s, TimeLayer(spans, "layer.net.EncodeBatchPayload", [&] {
        for (const Batch& batch : batches) {
          payloads.push_back(net::EncodeBatchPayload(batch));
        }
        return Status::OK();
      }));
  ICEWAFL_ASSIGN_OR_RETURN(
      double decode_batch_s, TimeLayer(spans, "layer.net.DecodeBatchPayload", [&] {
        for (const std::string& p : payloads) {
          ICEWAFL_RETURN_NOT_OK(net::DecodeBatchPayload(p, in.schema).status());
        }
        return Status::OK();
      }));
  layer["net.encode_batch_ns_per_row"] = per_row_ns(encode_batch_s, rows);
  layer["net.decode_batch_ns_per_row"] = per_row_ns(decode_batch_s, rows);
  payloads.clear();
  batches.clear();
  chunks.clear();

  ICEWAFL_ASSIGN_OR_RETURN(clean::CleaningRules rules, CleanerFor(w, *in.clean));
  clean::CleanerOperator cleaner(rules);
  CollectEmitter cleaned;
  TupleVector to_clean = polluted;
  ICEWAFL_ASSIGN_OR_RETURN(
      double clean_s, TimeLayer(spans, "layer.clean.CleanerOperator", [&] {
        for (Tuple& t : to_clean) {
          ICEWAFL_RETURN_NOT_OK(cleaner.Process(std::move(t), &cleaned));
        }
        return cleaner.Finish(&cleaned);
      }));
  const double krows = rows / 1000.0;
  layer["clean.ns_per_row"] = per_row_ns(clean_s, rows);
  layer["clean.fired_per_krow"] =
      static_cast<double>(cleaner.stats().fired) / krows;
  layer["clean.repaired_per_krow"] =
      static_cast<double>(cleaner.stats().repaired) / krows;

  // The monitor sees what a subscriber would: cleaned rows on closed_loop.
  const TupleVector& observed = w.clean_and_monitor ? cleaned.tuples() : polluted;
  ICEWAFL_ASSIGN_OR_RETURN(dq::ExpectationSuite suite, SuiteFor(w, *in.clean));
  dq::WindowedMonitor monitor(std::move(suite),
                              dq::WindowSpec::Tumbling(kWindowSeconds));
  ICEWAFL_ASSIGN_OR_RETURN(
      double dq_s, TimeLayer(spans, "layer.dq.WindowedMonitor", [&] {
        for (const Tuple& t : observed) ICEWAFL_RETURN_NOT_OK(monitor.Observe(t));
        return monitor.Flush();
      }));
  layer["dq.observe_ns_per_row"] =
      per_row_ns(dq_s, static_cast<double>(observed.size()));
  layer["dq.windows_failed"] = static_cast<double>(monitor.FailedWindowCount());

  const TupleVector csv_rows(
      polluted.begin(),
      polluted.begin() + static_cast<ptrdiff_t>(
                             std::min(kCsvReplayRows, polluted.size())));
  const double csv_n = static_cast<double>(csv_rows.size());
  const std::string path = workdir + "/bench_e2e_replay.csv";
  ICEWAFL_ASSIGN_OR_RETURN(
      double write_s, TimeLayer(spans, "layer.io.WriteCsvFile", [&] {
        return WriteCsvFile(in.schema, csv_rows, path);
      }));
  ICEWAFL_ASSIGN_OR_RETURN(
      double read_s, TimeLayer(spans, "layer.io.ReadCsvFile", [&] {
        return ReadCsvFile(in.schema, path).status();
      }));
  std::error_code size_error;
  const auto bytes = std::filesystem::file_size(path, size_error);
  std::filesystem::remove(path, size_error);
  layer["io.csv_write_us_per_row"] = write_s * 1e6 / csv_n;
  layer["io.csv_read_us_per_row"] = read_s * 1e6 / csv_n;
  layer["io.csv_bytes_per_row"] = static_cast<double>(bytes) / csv_n;
  return Status::OK();
}

/// Per-layer numbers of the traced served repetitions, plus the gap
/// between the served cost per row and the slowest isolated stage.
void ServeLayers(const Workload& w, const ServeTrace& t,
                 double served_rows_per_s, LayerValues* out) {
  LayerValues& layer = *out;
  auto per = [](double value, double base) {
    return base > 0 ? value / base : 0.0;
  };
  const auto rows = static_cast<double>(t.rows);
  layer["stream.due_to_sink_ms_p50"] = Quantile(t.due_to_sink_ms, 0.5);
  layer["stream.due_to_sink_ms_p99"] = Quantile(t.due_to_sink_ms, 0.99);
  layer["net.sink_to_client_ms_p50"] = Quantile(t.sink_to_client_ms, 0.5);
  layer["net.sink_to_client_ms_p99"] = Quantile(t.sink_to_client_ms, 0.99);
  layer["net.send_latency_p99_ms"] = Median(t.send_latency_p99_ms);
  layer["net.wire_bytes_per_row"] = per(static_cast<double>(t.bytes_sent), rows);
  layer["net.queue_blocked_pushes_per_krow"] =
      per(static_cast<double>(t.queue_blocked_pushes), rows / 1000.0);
  layer["serve.sink_write_ns_per_row"] =
      per(static_cast<double>(t.sink_write_ns), static_cast<double>(t.sink_rows));
  layer["client.next_wait_ns_per_row"] =
      per(static_cast<double>(t.next_wait_ns), rows);
  layer["client.consume_ns_per_row"] =
      per(static_cast<double>(t.consume_ns), rows);
  layer["scenarios.segment_restart_ms_p50"] = Quantile(t.segment_restart_ms, 0.5);
  layer["scenarios.segments_per_run"] =
      per(static_cast<double>(t.segments), static_cast<double>(t.runs));
  layer["scenarios.adopt_ms_p99"] = Quantile(t.adopt_ms, 0.99);

  // The three serial stages of the served path: the polluter workers
  // (P in parallel), the server's sink thread (cleaner, encode) and each
  // subscriber (decode, DQ). What the served cost per row exceeds the
  // slowest of them by is lost between layers.
  const bool batch = w.batch_frames;
  const double transpose = layer["stream.transpose_ns_per_row"];
  const double pollute =
      layer["core.pollute_ns_per_row"] / std::max(1, w.parallelism);
  const double sink_thread =
      (batch ? layer["net.encode_batch_ns_per_row"] + transpose
             : layer["net.encode_tuple_ns_per_row"]) +
      (w.clean_and_monitor ? layer["clean.ns_per_row"] : 0.0);
  const double subscriber =
      (batch ? layer["net.decode_batch_ns_per_row"] + transpose
             : layer["net.decode_tuple_ns_per_row"]) +
      (w.clean_and_monitor ? layer["dq.observe_ns_per_row"] : 0.0);
  const double served_ns =
      per(1e9 * std::max(1, w.subscribers), served_rows_per_s);
  layer["serve.gap_to_bottleneck_ns_per_row"] =
      served_ns - std::max({pollute, sink_thread, subscriber});
}

// ---------------------------------------------------------------------
// One workload, end to end
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
};

/// End-to-end metrics (--trace 0), in BENCHMARK.json order.
const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"setup_s", "s"},           {"rows_per_s", "rows/s"},
      {"cpu_us_per_row", "us/row"}, {"peak_rss_mb", "MB"},
      {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},
  };
  return kMetrics;
}

/// Per-layer metrics (--trace 1), in BENCHMARK.json order.
const std::vector<Metric>& LayerMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"data.generate_us_per_row", "us/row"},
      {"core.pollute_ns_per_row", "ns/row"},
      {"core.pollution_log_ns_per_row", "ns/row"},
      {"stream.runtime_rows_per_s", "rows/s"},
      {"stream.source_blocked_pushes", "count"},
      {"stream.worker_blocked_pops", "count"},
      {"stream.worker_blocked_pushes", "count"},
      {"stream.sink_blocked_pops", "count"},
      {"stream.peak_buffered_tuples", "tuples"},
      {"stream.transpose_ns_per_row", "ns/row"},
      {"stream.due_to_sink_ms_p50", "ms"},
      {"stream.due_to_sink_ms_p99", "ms"},
      {"net.sink_to_client_ms_p50", "ms"},
      {"net.sink_to_client_ms_p99", "ms"},
      {"clean.ns_per_row", "ns/row"},
      {"clean.fired_per_krow", "1/krow"},
      {"clean.repaired_per_krow", "1/krow"},
      {"dq.observe_ns_per_row", "ns/row"},
      {"dq.windows_failed", "count"},
      {"io.csv_read_us_per_row", "us/row"},
      {"io.csv_write_us_per_row", "us/row"},
      {"io.csv_bytes_per_row", "B/row"},
      {"net.encode_tuple_ns_per_row", "ns/row"},
      {"net.decode_tuple_ns_per_row", "ns/row"},
      {"net.encode_batch_ns_per_row", "ns/row"},
      {"net.decode_batch_ns_per_row", "ns/row"},
      {"net.wire_bytes_per_row", "B/row"},
      {"net.send_latency_p99_ms", "ms"},
      {"net.queue_blocked_pushes_per_krow", "1/krow"},
      {"serve.sink_write_ns_per_row", "ns/row"},
      {"serve.gap_to_bottleneck_ns_per_row", "ns/row"},
      {"client.next_wait_ns_per_row", "ns/row"},
      {"client.consume_ns_per_row", "ns/row"},
      {"scenarios.segment_restart_ms_p50", "ms"},
      {"scenarios.segments_per_run", "count"},
      {"scenarios.adopt_ms_p99", "ms"},
      {"trace.overhead_frac", "fraction"},
  };
  return kMetrics;
}

struct Options {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int min_reps = kMinReps;
  bool corrupt_reference = false;
  std::string workdir = ".";
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  LayerValues values;
  /// Run-to-run quartiles of the end-to-end metrics (human output).
  std::map<std::string, std::pair<double, double>> quartiles;
  int reps = 0;
};

Report RunWorkload(const Workload& w, const Options& opt, Spans* spans) {
  Report report;
  const int64_t workload_start = NowNs();
  const bool served = w.subscribers > 0;
  if (opt.trace) {
    Result<Inputs> in = MakeInputs(w, opt.seed);
    Status st = in.ok() ? LayerReplays(w, in.ValueOrDie(), spans, opt.workdir,
                                       &report.values)
                        : in.status();
    if (!st.ok()) {
      std::fprintf(stderr, "%s layer replay failed: %s\n", w.name.c_str(),
                   st.ToString().c_str());
      ++report.attempted;
      ++report.failed;
    }
  }

  // The traced pass alternates bare and instrumented repetitions, so
  // the overhead compares neighbours rather than two drifting phases.
  std::vector<Rep> reps;
  double measured_s = 0;
  for (int i = 0; i < kMaxReps && (i < opt.min_reps || measured_s < opt.seconds);
       ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    const int64_t rep_start = NowNs();
    reps.push_back(served ? RunServedRep(w, opt.seed, traced, spans)
                          : RunOfflineRep(w, opt.seed, traced, spans,
                                          opt.workdir));
    Span(traced ? spans : nullptr, "rep", "bench", 0, rep_start, NowNs());
    measured_s += reps.back().setup_s + reps.back().seconds;
    if (!reps.back().status.ok()) break;
  }
  report.reps = static_cast<int>(reps.size());
  const double peak_rss_mb = PeakRssMb();

  Verifier verifier(w, opt.seed, opt.corrupt_reference);
  for (const Rep& rep : reps) verifier.Check(rep, &report.attempted, &report.failed);

  if (opt.trace) {
    ServeTrace traced;
    std::vector<double> bare_rows_per_s, traced_rows_per_s;
    for (Rep& rep : reps) {
      (rep.traced ? traced_rows_per_s : bare_rows_per_s)
          .push_back(rep.rows_per_s());
      if (rep.traced) traced.Merge(std::move(rep.trace));
    }
    double served_rows_per_s = Median(bare_rows_per_s);
    Workload replay = w;
    if (!served) {
      // offline_csv has no net layer; its serve-path layers come from a
      // traced replay of its rows to one per-tuple subscriber.
      replay.subscribers = 1;
      replay.runs_per_rep = 1;
      Rep rep = RunServedRep(replay, opt.seed, true, spans);
      Verifier(replay, opt.seed, false)
          .Check(rep, &report.attempted, &report.failed);
      served_rows_per_s = rep.rows_per_s();
      traced.Merge(std::move(rep.trace));
    }
    ServeLayers(replay, traced, served_rows_per_s, &report.values);
    const double bare = Median(bare_rows_per_s);
    report.values["trace.overhead_frac"] =
        bare > 0 ? 1.0 - Median(traced_rows_per_s) / bare : 0.0;
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (const Rep& rep : reps) {
      samples["setup_s"].push_back(rep.setup_s);
      samples["rows_per_s"].push_back(rep.rows_per_s());
      samples["cpu_us_per_row"].push_back(
          rep.rows > 0 ? rep.cpu_s * 1e6 / static_cast<double>(rep.rows) : 0.0);
      samples["peak_rss_mb"].push_back(peak_rss_mb);
      samples["latency_p50_ms"].push_back(rep.latency_p50_ms);
      samples["latency_p99_ms"].push_back(rep.latency_p99_ms);
    }
    // The host's neighbours slow this machine for seconds at a time
    // (README.md, "Noise"), so a run reports its uncontended quartile:
    // the upper quartile of per-repetition rates, the lower one of costs.
    for (const auto& [name, values] : samples) {
      const bool higher_is_better = name == "rows_per_s";
      report.values[name] = Quantile(values, higher_is_better ? 0.75 : 0.25);
      report.quartiles[name] = {Quantile(values, 0.25), Quantile(values, 0.75)};
    }
  }
  Span(spans, "workload " + w.name, "bench", 0, workload_start, NowNs());
  return report;
}

void PrintReport(const Workload& w, const Options& opt, const Report& report) {
  const std::vector<Metric>& metrics =
      opt.trace ? LayerMetrics() : EndToEndMetrics();
  std::printf("%s: seed %llu, %d repetitions, %llu operations, %llu failed\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              report.reps, static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (const Metric& m : metrics) {
    auto value = report.values.find(m.name);
    auto q = report.quartiles.find(m.name);
    std::printf("  %-36s %14.6g %-8s", m.name.c_str(),
                value == report.values.end() ? 0.0 : value->second,
                m.unit.c_str());
    if (q != report.quartiles.end()) {
      std::printf("  [q1 %.6g, q3 %.6g]", q->second.first, q->second.second);
    }
    std::printf("\n");
  }
}

Json ResultJson(const Options& opt, const Report& report) {
  Json metrics = Json::MakeObject();
  for (const Metric& m : opt.trace ? LayerMetrics() : EndToEndMetrics()) {
    auto value = report.values.find(m.name);
    Json entry = Json::MakeObject();
    entry.Set("value", value == report.values.end() ? 0.0 : value->second);
    entry.Set("unit", m.unit);
    metrics.Set(m.name, std::move(entry));
  }
  Json result = Json::MakeObject();
  result.Set("correct", report.failed == 0 && report.attempted > 0);
  result.Set("attempted", static_cast<int64_t>(report.attempted));
  result.Set("failed", static_cast<int64_t>(report.failed));
  result.Set("metrics", std::move(metrics));
  return result;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--chrome-trace PATH] [--workdir DIR]\n"
               "       bench_e2e --smoke [--corrupt-reference] [--workdir DIR]\n"
               "workloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  alarm(kWatchdogSeconds);
  Options opt;
  if (const char* v = Flag(argc, argv, "--seed")) opt.seed = std::strtoull(v, nullptr, 10);
  if (const char* v = Flag(argc, argv, "--seconds")) opt.seconds = std::atof(v);
  if (const char* v = Flag(argc, argv, "--trace")) opt.trace = std::strcmp(v, "0") != 0;
  if (const char* v = Flag(argc, argv, "--workdir")) opt.workdir = v;
  opt.corrupt_reference = HasFlag(argc, argv, "--corrupt-reference");
  const char* chrome_trace = Flag(argc, argv, "--chrome-trace");
  Spans spans;

  if (HasFlag(argc, argv, "--smoke")) {
    // Every workload at ~2k rows: one bare and one traced repetition,
    // the layer replays, and every reference check.
    opt.seconds = 0;
    opt.min_reps = 2;
    opt.trace = true;
    uint64_t failed = 0;
    for (const Workload& full : Workloads()) {
      const Workload w = SmokeVariant(full);
      const Report report = RunWorkload(w, opt, &spans);
      PrintReport(w, opt, report);
      failed += report.failed + (report.attempted == 0 ? 1 : 0);
    }
    std::printf("smoke: %s\n", failed == 0 ? "ok" : "FAILED");
    return failed == 0 ? 0 : 1;
  }

  const char* name = Flag(argc, argv, "--workload");
  const Workload* w = name != nullptr ? FindWorkload(name) : nullptr;
  if (w == nullptr || opt.seconds < 0) return Usage();
  const Report report = RunWorkload(*w, opt, &spans);
  PrintReport(*w, opt, report);
  if (chrome_trace != nullptr) {
    std::ofstream out(chrome_trace, std::ios::binary);
    out << spans.ToJson();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", chrome_trace);
      return 1;
    }
  }
  std::printf("%s\n", ResultJson(opt, report).Dump().c_str());
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
