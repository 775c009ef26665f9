// Integration scenarios (Section 2.2.2): the pollution process splits
// the input into overlapping sub-streams, applies a different pipeline
// to each, and merges them again — modeling several independently
// polluted sources whose integration produces fuzzy duplicates. The
// example also shows how the DQ engine's uniqueness expectation flags
// the duplicates afterwards.
//
// Run:  ./build/examples/multi_stream_integration

#include <cstdio>
#include <map>

#include "core/errors_numeric.h"
#include "core/errors_value.h"
#include "core/process.h"
#include "data/airquality.h"
#include "dq/suite.h"

using namespace icewafl;  // NOLINT

int main() {
  data::AirQualityOptions options;
  options.hours = 24 * 14;  // two weeks of hourly data
  auto stream = data::GenerateAirQuality(options);
  if (!stream.ok()) {
    std::fprintf(stderr, "generation failed\n");
    return 1;
  }
  const TupleVector& clean = stream.ValueOrDie();

  // Two sub-streams with 30% overlap: overlapping tuples land in both
  // and get polluted independently.
  ProcessOptions process_options;
  process_options.num_substreams = 2;
  process_options.overlap_fraction = 0.3;
  process_options.seed = 99;
  PollutionProcess process(process_options);

  // Sub-stream 0: a flaky sensor that drops NO2 readings.
  PollutionPipeline dropouts("dropouts");
  dropouts.Add(std::make_unique<StandardPolluter>(
      "no2_dropouts", std::make_unique<MissingValueError>(),
      std::make_unique<RandomCondition>(0.15),
      std::vector<std::string>{"NO2"}));
  process.AddPipeline(std::move(dropouts));

  // Sub-stream 1: a miscalibrated sensor with noisy, offset readings.
  PollutionPipeline miscalibrated("miscalibrated");
  miscalibrated.Add(std::make_unique<StandardPolluter>(
      "no2_offset", std::make_unique<OffsetError>(12.0),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"NO2"}));
  miscalibrated.Add(std::make_unique<StandardPolluter>(
      "no2_noise", std::make_unique<GaussianNoiseError>(3.0),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"NO2"}));
  process.AddPipeline(std::move(miscalibrated));

  VectorSource source(clean.front().schema(), clean);
  auto result = process.Run(&source);
  if (!result.ok()) {
    std::fprintf(stderr, "pollution failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const PollutionResult& r = result.ValueOrDie();

  std::printf("input tuples:  %zu\n", r.clean.size());
  std::printf("output tuples: %zu (overlap creates duplicates)\n",
              r.polluted.size());

  // Count fuzzy duplicates: same id in both sub-streams with differing
  // values after independent pollution.
  std::map<TupleId, const Tuple*> first_copy;
  int duplicates = 0;
  int fuzzy = 0;
  for (const Tuple& t : r.polluted) {
    auto [it, inserted] = first_copy.try_emplace(t.id(), &t);
    if (!inserted) {
      ++duplicates;
      if (!t.ValuesEqual(*it->second)) ++fuzzy;
    }
  }
  std::printf("duplicated ids: %d, of which fuzzy (values differ): %d\n\n",
              duplicates, fuzzy);

  // A DQ check on the merged stream: timestamps are no longer unique.
  dq::ExpectationSuite suite("integration");
  suite.Expect<dq::ExpectColumnValuesToBeUnique>("timestamp");
  suite.Expect<dq::ExpectColumnValuesToNotBeNull>("NO2");
  auto validation = suite.Validate(r.polluted);
  if (!validation.ok()) {
    std::fprintf(stderr, "validation failed\n");
    return 1;
  }
  std::printf("validation of the merged stream:\n%s",
              validation.ValueOrDie().ToReport().c_str());
  return 0;
}
