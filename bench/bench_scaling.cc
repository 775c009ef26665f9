// Ablation A2: scaling behaviour of the pollution process. Sweeps the
// pipeline length l and the number of sub-streams m — the dimensions of
// the complexity bound O(n * m * (1/m + l + log(n*m))) given in Section
// 2.3 — and the pipelined runtime's worker parallelism.

#include <benchmark/benchmark.h>

#include <chrono>

#include "core/errors_numeric.h"
#include "core/polluter_operator.h"
#include "obs/metrics.h"
#include "stream/runtime.h"
#include "core/process.h"
#include "data/airquality.h"

namespace {

using namespace icewafl;  // NOLINT

const TupleVector& Stream() {
  static const TupleVector stream = [] {
    data::AirQualityOptions options;
    options.hours = 8760;  // one year of hourly tuples
    auto generated = data::GenerateAirQuality(options);
    return std::move(generated).ValueOrDie();
  }();
  return stream;
}

PollutionPipeline MakePipeline(int length) {
  PollutionPipeline pipeline("bench");
  for (int i = 0; i < length; ++i) {
    pipeline.Add(std::make_unique<StandardPolluter>(
        "noise_" + std::to_string(i),
        std::make_unique<GaussianNoiseError>(0.5),
        std::make_unique<RandomCondition>(0.1),
        std::vector<std::string>{"NO2"}));
  }
  return pipeline;
}

void BM_PipelineLength(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const TupleVector& stream = Stream();
  SchemaPtr schema = stream.front().schema();
  for (auto _ : state) {
    VectorSource source(schema, stream);
    auto result = PollutionProcess::Pollute(&source, MakePipeline(length), 1,
                                            /*enable_log=*/false);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_PipelineLength)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SubstreamsSequential(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const TupleVector& stream = Stream();
  SchemaPtr schema = stream.front().schema();
  for (auto _ : state) {
    ProcessOptions options;
    options.num_substreams = m;
    options.enable_log = false;
    options.seed = 1;
    PollutionProcess process(options);
    for (int i = 0; i < m; ++i) process.AddPipeline(MakePipeline(4));
    VectorSource source(schema, stream);
    auto result = process.Run(&source);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_SubstreamsSequential)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_OverlapFraction(benchmark::State& state) {
  const double overlap = static_cast<double>(state.range(0)) / 100.0;
  const TupleVector& stream = Stream();
  SchemaPtr schema = stream.front().schema();
  for (auto _ : state) {
    ProcessOptions options;
    options.num_substreams = 2;
    options.overlap_fraction = overlap;
    options.enable_log = false;
    options.seed = 1;
    PollutionProcess process(options);
    process.AddPipeline(MakePipeline(2));
    process.AddPipeline(MakePipeline(2));
    VectorSource source(schema, stream);
    auto result = process.Run(&source);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_OverlapFraction)->Arg(0)->Arg(25)->Arg(50)->Arg(100);

void BM_GlobalPolluterOperator(benchmark::State& state) {
  const TupleVector& stream = Stream();
  SchemaPtr schema = stream.front().schema();
  for (auto _ : state) {
    VectorSource source(schema, stream);
    CountingSink sink;
    Status st = PipelineRuntime().Run(
        &source,
        [](int) {
          OperatorChain chain;
          chain.push_back(
              std::make_unique<PolluterOperator>(MakePipeline(4), 1));
          return chain;
        },
        &sink);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(sink.checksum());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_GlobalPolluterOperator);

void BM_RuntimeParallelism(benchmark::State& state) {
  // The pipelined runtime end to end; RuntimeStats counters expose the
  // pipeline's behaviour (batches, backpressure, peak buffering) next to
  // the throughput numbers.
  const int parallelism = static_cast<int>(state.range(0));
  const TupleVector& stream = Stream();
  SchemaPtr schema = stream.front().schema();
  RuntimeStats last_stats;
  // Per-iteration wall times land in a histogram so the counters expose
  // tail latency (p50/p95/p99) instead of only google-benchmark's mean.
  obs::Histogram wall_hist(obs::ExponentialBounds(1e-4, 64.0, 2.0));
  for (auto _ : state) {
    VectorSource source(schema, stream);
    CountingSink sink;
    RuntimeOptions options;
    options.parallelism = parallelism;
    PipelineRuntime runtime(options);
    const auto start = std::chrono::steady_clock::now();
    Status st = runtime.Run(
        &source,
        [](int worker) {
          OperatorChain chain;
          chain.push_back(std::make_unique<PolluterOperator>(
              MakePipeline(4), 1 + static_cast<uint64_t>(worker)));
          return chain;
        },
        &sink);
    const auto end = std::chrono::steady_clock::now();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(sink.checksum());
    last_stats = runtime.stats();
    wall_hist.Observe(std::chrono::duration<double>(end - start).count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
  state.counters["source_tuples"] =
      static_cast<double>(last_stats.source_tuples);
  state.counters["sink_tuples"] = static_cast<double>(last_stats.sink_tuples);
  state.counters["batches"] = static_cast<double>(last_stats.batches);
  state.counters["blocked_pushes"] =
      static_cast<double>(last_stats.blocked_pushes);
  state.counters["blocked_pops"] =
      static_cast<double>(last_stats.blocked_pops);
  state.counters["peak_buffered"] =
      static_cast<double>(last_stats.peak_buffered_tuples);
  state.counters["wall_p50"] = wall_hist.Quantile(0.5);
  state.counters["wall_p95"] = wall_hist.Quantile(0.95);
  state.counters["wall_p99"] = wall_hist.Quantile(0.99);
}
BENCHMARK(BM_RuntimeParallelism)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
