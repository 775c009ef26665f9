// Every built-in scenario artifact must pass static analysis: each
// pipeline (round-tripped through ToJson) is linted against its dataset
// schema, cross-checked with its matching expectation suite where one
// exists, and must have no error-severity findings.
#include <gtest/gtest.h>

#include <optional>

#include "analysis/analyzer.h"
#include "data/airquality.h"
#include "data/wearable.h"
#include "scenarios/scenarios.h"

namespace icewafl::scenarios {
namespace {

TEST(ScenarioLintTest, BuiltInScenariosPassStaticAnalysis) {
  struct Artifact {
    const char* name;
    PollutionPipeline pipeline;
    std::optional<dq::ExpectationSuite> suite;
    SchemaPtr schema;
  };
  const SchemaPtr wearable = data::WearableSchema();
  const SchemaPtr airquality = data::AirQualitySchema();
  Artifact artifacts[] = {
      {"random_temporal", RandomTemporalErrorsPipeline(),
       RandomTemporalErrorsSuite(), wearable},
      {"software_update", SoftwareUpdatePipeline(), SoftwareUpdateSuite(),
       wearable},
      {"network_delay", NetworkDelayPipeline(), NetworkDelaySuite(),
       wearable},
      {"temporal_noise",
       TemporalNoisePipeline(AirQualityNumericAttributes(), 0.5),
       std::nullopt, airquality},
      {"temporal_scale",
       TemporalScalePipeline(AirQualityNumericAttributes(), 10.0, 0.1, 24),
       std::nullopt, airquality},
  };
  for (const Artifact& artifact : artifacts) {
    analysis::AnalyzeOptions options;
    options.schema = artifact.schema;
    Json suite_json;
    const Json* suite = nullptr;
    if (artifact.suite.has_value()) {
      suite_json = artifact.suite->ToJson();
      suite = &suite_json;
    }
    Diagnostics diags = analysis::AnalyzeArtifacts(
        artifact.pipeline.ToJson(), suite, options);
    EXPECT_FALSE(diags.HasErrors())
        << "scenario '" << artifact.name
        << "' rejected by static analysis:\n"
        << diags.ToReport();
  }
}

}  // namespace
}  // namespace icewafl::scenarios
