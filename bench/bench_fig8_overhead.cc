// Reproduces Figure 8: runtime overhead of the three Section 3.1
// pollution scenarios against an unpolluted baseline pipeline. Like the
// paper, each configuration executes 50 times over the wearable stream
// (load -> [pollute] -> serialize to CSV); the harness prints box-plot
// statistics (min / Q1 / median / Q3 / max) and the median overhead in
// percent (paper: 3-7% across scenarios). The empty_pipeline row runs
// Pollute with no polluter, so it prices the pollution process itself.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/process.h"
#include "data/wearable.h"
#include "io/csv.h"
#include "scenarios/scenarios.h"
#include "util/strings.h"

namespace {

using namespace icewafl;  // NOLINT

constexpr int kRepetitions = 50;

struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
};

BoxStats Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
  };
  return {samples.front(), quantile(0.25), quantile(0.5), quantile(0.75),
          samples.back()};
}

/// One end-to-end pipeline execution: replay the stream, optionally
/// pollute it, serialize the output to CSV (discarded). Returns elapsed
/// microseconds.
double RunOnce(const TupleVector& clean, const SchemaPtr& schema,
               const std::function<PollutionPipeline()>* pipeline_factory,
               uint64_t seed, uint64_t* sink_bytes) {
  const auto start = std::chrono::steady_clock::now();
  TupleVector output;
  if (pipeline_factory != nullptr) {
    VectorSource source(schema, clean);
    auto result = PollutionProcess::Pollute(&source, (*pipeline_factory)(),
                                            seed, /*enable_log=*/false);
    if (!result.ok()) {
      std::fprintf(stderr, "pollution failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    output = std::move(result.ValueOrDie().polluted);
  } else {
    VectorSource source(schema, clean);
    auto collected = CollectAll(&source);
    if (!collected.ok()) std::exit(1);
    output = std::move(collected).ValueOrDie();
  }
  const std::string csv = ToCsvString(schema, output);
  *sink_bytes += csv.size();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count();
}

int Run() {
  auto stream = data::GenerateWearable();
  if (!stream.ok()) {
    std::fprintf(stderr, "wearable generation failed\n");
    return 1;
  }
  const TupleVector clean = std::move(stream).ValueOrDie();
  SchemaPtr schema = clean.front().schema();

  struct Config {
    const char* name;
    std::optional<std::function<PollutionPipeline()>> factory;
  };
  const std::vector<Config> configs = {
      {"no_pollution", std::nullopt},
      // The framework alone: Pollute with no polluter to apply.
      {"empty_pipeline",
       std::make_optional<std::function<PollutionPipeline()>>(
           [] { return PollutionPipeline("empty"); })},
      {"software_update",
       std::make_optional<std::function<PollutionPipeline()>>(
           [] { return scenarios::SoftwareUpdatePipeline(); })},
      {"bad_network", std::make_optional<std::function<PollutionPipeline()>>(
                          [] { return scenarios::NetworkDelayPipeline(); })},
      {"random_temporal",
       std::make_optional<std::function<PollutionPipeline()>>(
           [] { return scenarios::RandomTemporalErrorsPipeline(); })},
  };

  uint64_t sink_bytes = 0;
  std::printf("=== Figure 8: runtime overhead of pollution scenarios ===\n");
  std::printf("%-18s %-10s %-10s %-10s %-10s %-10s %-10s\n", "scenario",
              "min_us", "q1_us", "median_us", "q3_us", "max_us",
              "overhead");
  double baseline_median = 0.0;
  for (const Config& config : configs) {
    std::vector<double> samples;
    samples.reserve(kRepetitions);
    // Warm-up run outside the measurement.
    RunOnce(clean, schema,
            config.factory ? &config.factory.value() : nullptr, 1,
            &sink_bytes);
    for (int rep = 0; rep < kRepetitions; ++rep) {
      samples.push_back(RunOnce(
          clean, schema, config.factory ? &config.factory.value() : nullptr,
          4000 + static_cast<uint64_t>(rep), &sink_bytes));
    }
    const BoxStats stats = Summarize(std::move(samples));
    std::string overhead = "baseline";
    if (config.factory) {
      overhead =
          FormatDouble(100.0 * (stats.median / baseline_median - 1.0), 1) +
          "%";
    } else {
      baseline_median = stats.median;
    }
    std::printf("%-18s %-10.0f %-10.0f %-10.0f %-10.0f %-10.0f %-10s\n",
                config.name, stats.min, stats.q1, stats.median, stats.q3,
                stats.max, overhead.c_str());
  }
  std::printf("\npaper reference: 3-7%% overhead for all scenarios\n");
  std::printf("repetitions: %d (plus 1 warm-up each); sink=%llu bytes\n",
              kRepetitions, static_cast<unsigned long long>(sink_bytes));
  return 0;
}

}  // namespace

int main() { return Run(); }
