// Ablation A1: single-polluter throughput. Measures tuples/second for
// each error-function family and each condition type in isolation, so
// the cost structure behind Figure 8's end-to-end overhead is visible.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/composite_polluter.h"
#include "core/derived_error.h"
#include "core/errors_numeric.h"
#include "core/errors_temporal.h"
#include "core/errors_value.h"
#include "core/pipeline.h"
#include "data/wearable.h"
#include "stream/batch.h"
#include "stream/bind.h"

namespace {

using namespace icewafl;  // NOLINT

const TupleVector& WearableStream() {
  static const TupleVector stream = [] {
    auto generated = data::GenerateWearable();
    return std::move(generated).ValueOrDie();
  }();
  return stream;
}

/// Drives one polluter over the wearable stream repeatedly. The polluter
/// is bound once up front (two-phase lifecycle, DESIGN.md section 8) so
/// the loop measures the indexed per-tuple path.
void RunPolluter(benchmark::State& state, PolluterPtr polluter) {
  const TupleVector& stream = WearableStream();
  BindContext bind_ctx(*stream.front().schema());
  if (Status bound = polluter->Bind(bind_ctx); !bound.ok()) {
    state.SkipWithError(bound.ToString().c_str());
    return;
  }
  Rng master(1);
  polluter->Seed(&master);
  PollutionContext ctx;
  ctx.stream_start = stream.front().GetTimestamp().ValueOrDie();
  ctx.stream_end = stream.back().GetTimestamp().ValueOrDie();
  for (auto _ : state) {
    for (const Tuple& original : stream) {
      Tuple t = original;
      t.set_event_time(t.GetTimestamp().ValueOrDie());
      t.set_arrival_time(t.event_time());
      ctx.tau = t.event_time();
      ctx.severity = 1.0;
      ctx.rng = nullptr;
      Status st = polluter->Pollute(&t, &ctx, nullptr);
      if (!st.ok()) state.SkipWithError(st.ToString().c_str());
      benchmark::DoNotOptimize(t);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}

PolluterPtr Standard(ErrorFunctionPtr error, ConditionPtr condition,
                     std::vector<std::string> attrs) {
  return std::make_unique<StandardPolluter>("bench", std::move(error),
                                            std::move(condition),
                                            std::move(attrs));
}

void BM_GaussianNoise(benchmark::State& state) {
  RunPolluter(state,
              Standard(std::make_unique<GaussianNoiseError>(1.0),
                       std::make_unique<AlwaysCondition>(), {"BPM"}));
}
BENCHMARK(BM_GaussianNoise);

void BM_UniformNoise(benchmark::State& state) {
  RunPolluter(state,
              Standard(std::make_unique<UniformNoiseError>(0.0, 0.5),
                       std::make_unique<AlwaysCondition>(), {"BPM"}));
}
BENCHMARK(BM_UniformNoise);

void BM_Scale(benchmark::State& state) {
  RunPolluter(state, Standard(std::make_unique<ScaleError>(0.125),
                              std::make_unique<AlwaysCondition>(), {"BPM"}));
}
BENCHMARK(BM_Scale);

void BM_MissingValue(benchmark::State& state) {
  RunPolluter(state, Standard(std::make_unique<MissingValueError>(),
                              std::make_unique<AlwaysCondition>(), {"BPM"}));
}
BENCHMARK(BM_MissingValue);

void BM_Round(benchmark::State& state) {
  RunPolluter(state,
              Standard(std::make_unique<RoundError>(2),
                       std::make_unique<AlwaysCondition>(),
                       {"CaloriesBurned"}));
}
BENCHMARK(BM_Round);

void BM_Delay(benchmark::State& state) {
  RunPolluter(state, Standard(std::make_unique<DelayError>(3600),
                              std::make_unique<AlwaysCondition>(), {}));
}
BENCHMARK(BM_Delay);

void BM_FrozenValue(benchmark::State& state) {
  RunPolluter(state,
              Standard(std::make_unique<FrozenValueError>(3600),
                       std::make_unique<RandomCondition>(0.1), {"BPM"}));
}
BENCHMARK(BM_FrozenValue);

void BM_DerivedNoiseRamp(benchmark::State& state) {
  RunPolluter(state,
              Standard(std::make_unique<DerivedTemporalError>(
                           std::make_unique<GaussianNoiseError>(1.0),
                           std::make_unique<StreamRampProfile>()),
                       std::make_unique<AlwaysCondition>(), {"BPM"}));
}
BENCHMARK(BM_DerivedNoiseRamp);

void BM_ConditionRandom(benchmark::State& state) {
  RunPolluter(state, Standard(std::make_unique<MissingValueError>(),
                              std::make_unique<RandomCondition>(0.2),
                              {"BPM"}));
}
BENCHMARK(BM_ConditionRandom);

void BM_ConditionValue(benchmark::State& state) {
  RunPolluter(state,
              Standard(std::make_unique<MissingValueError>(),
                       std::make_unique<ValueCondition>(
                           "BPM", CompareOp::kGt, Value(100.0)),
                       {"BPM"}));
}
BENCHMARK(BM_ConditionValue);

void BM_ConditionSinusoidalProfile(benchmark::State& state) {
  RunPolluter(state,
              Standard(std::make_unique<MissingValueError>(),
                       std::make_unique<ProfileProbabilityCondition>(
                           std::make_unique<SinusoidalProfile>(24, 0.25,
                                                               0.25)),
                       {"BPM"}));
}
BENCHMARK(BM_ConditionSinusoidalProfile);

void BM_ConditionComposite(benchmark::State& state) {
  std::vector<ConditionPtr> children;
  children.push_back(std::make_unique<DailyWindowCondition>(780, 899));
  children.push_back(std::make_unique<RandomCondition>(0.2));
  RunPolluter(state,
              Standard(std::make_unique<MissingValueError>(),
                       std::make_unique<AndCondition>(std::move(children)),
                       {"BPM"}));
}
BENCHMARK(BM_ConditionComposite);

void BM_CompositeSequential(benchmark::State& state) {
  auto composite = std::make_unique<SequentialPolluter>(
      "composite", std::make_unique<AlwaysCondition>());
  composite->Register(Standard(std::make_unique<ScaleError>(2.0),
                               std::make_unique<AlwaysCondition>(),
                               {"Distance"}));
  composite->Register(Standard(std::make_unique<RoundError>(2),
                               std::make_unique<AlwaysCondition>(),
                               {"CaloriesBurned"}));
  RunPolluter(state, std::move(composite));
}
BENCHMARK(BM_CompositeSequential);

// ---------------------------------------------------------------------------
// The bound per-tuple path over a whole pipeline, and the cost of
// building the Batch wire frame (DESIGN.md section 13) from the same rows.

/// A bound, seeded single-polluter pipeline applied tuple by tuple, as
/// PolluterOperator does.
void BM_ScaleTuplePath(benchmark::State& state) {
  const TupleVector& stream = WearableStream();
  PollutionPipeline pipeline("scale");
  pipeline.Add(std::make_unique<StandardPolluter>(
      "scale", std::make_unique<ScaleError>(0.125),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"BPM"}));
  if (Status bound = pipeline.Bind(stream.front().schema()); !bound.ok()) {
    state.SkipWithError(bound.ToString().c_str());
    return;
  }
  pipeline.Seed(7);
  PollutionContext ctx;
  ctx.stream_start = stream.front().GetTimestamp().ValueOrDie();
  ctx.stream_end = stream.back().GetTimestamp().ValueOrDie();
  for (auto _ : state) {
    for (const Tuple& original : stream) {
      Tuple t = original;
      t.set_event_time(t.GetTimestamp().ValueOrDie());
      t.set_arrival_time(t.event_time());
      ctx.tau = t.event_time();
      ctx.severity = 1.0;
      ctx.rng = nullptr;
      Status st = pipeline.Apply(&t, &ctx, nullptr);
      if (!st.ok()) state.SkipWithError(st.ToString().c_str());
      benchmark::DoNotOptimize(t);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_ScaleTuplePath);

void BM_BatchTranspose(benchmark::State& state) {
  // The tuples → Batch → tuples round trip a Batch-frame subscriber
  // costs: FanoutSink transposes to encode, StreamClient back on decode.
  for (auto _ : state) {
    auto transposed = Batch::FromTuples(WearableStream());
    if (!transposed.ok()) std::abort();
    TupleVector back = transposed.ValueOrDie().ToTuples();
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(WearableStream().size()));
}
BENCHMARK(BM_BatchTranspose);

}  // namespace

BENCHMARK_MAIN();
