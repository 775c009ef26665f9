// Pins the JSON files shipped under configs/ against the in-code
// builders: the CLI-facing configs must never drift from the scenario
// definitions the benches use.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "clean/config.h"
#include "core/config.h"
#include "core/process.h"
#include "data/airquality.h"
#include "data/wearable.h"
#include "dq/config.h"
#include "io/schema_json.h"
#include "net/serve_config.h"
#include "scenarios/closed_loop.h"
#include "scenarios/scenarios.h"

namespace icewafl {
namespace {

// ctest runs the binaries from build/tests; the config directory is
// resolved relative to the source tree via the compile definition.
std::string ConfigPath(const std::string& name) {
  return std::string(ICEWAFL_CONFIG_DIR) + "/" + name;
}

TEST(ShippedConfigsTest, PipelinesMatchScenarioBuilders) {
  const struct {
    const char* file;
    PollutionPipeline (*builder)();
  } kCases[] = {
      {"random_temporal.json", scenarios::RandomTemporalErrorsPipeline},
      {"software_update.json", scenarios::SoftwareUpdatePipeline},
      {"network_delay.json", scenarios::NetworkDelayPipeline},
  };
  for (const auto& c : kCases) {
    auto from_file = PipelineFromConfigFile(ConfigPath(c.file));
    ASSERT_TRUE(from_file.ok())
        << c.file << ": " << from_file.status().ToString();
    EXPECT_EQ(from_file.ValueOrDie().ToJson(), c.builder().ToJson())
        << c.file;
  }
}

TEST(ShippedConfigsTest, SchemasMatchGenerators) {
  auto wearable = SchemaFromJsonFile(ConfigPath("wearable_schema.json"));
  ASSERT_TRUE(wearable.ok()) << wearable.status().ToString();
  EXPECT_TRUE(wearable.ValueOrDie()->Equals(*data::WearableSchema()));

  auto airquality = SchemaFromJsonFile(ConfigPath("airquality_schema.json"));
  ASSERT_TRUE(airquality.ok()) << airquality.status().ToString();
  EXPECT_TRUE(airquality.ValueOrDie()->Equals(*data::AirQualitySchema()));
}

TEST(ShippedConfigsTest, CleanerMatchesStockScenarioCleaner) {
  std::ifstream in(ConfigPath("software_update_clean.json"));
  std::ostringstream text;
  text << in.rdbuf();
  auto json = Json::Parse(text.str());
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  auto stock = scenarios::CleanerForScenario("software_update");
  ASSERT_TRUE(stock.ok()) << stock.status().ToString();
  EXPECT_EQ(json.ValueOrDie(), stock.ValueOrDie().rules)
      << "configs/software_update_clean.json drifted from the builder in "
         "src/scenarios/closed_loop.cc";

  // The shipped document loads and binds against the wearable schema
  // without a single finding.
  Diagnostics diags;
  auto rules = clean::RulesFromJson(json.ValueOrDie(), data::WearableSchema(),
                                    &diags);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_TRUE(diags.empty()) << diags.ToReport();
  EXPECT_EQ(rules.ValueOrDie().rules.size(), 5u);
}

TEST(ShippedConfigsTest, ServeSessionsLoadAndBuildPlans) {
  std::ifstream in(ConfigPath("serve_sessions.json"));
  std::ostringstream text;
  text << in.rdbuf();
  auto json = Json::Parse(text.str());
  ASSERT_TRUE(json.ok()) << json.status().ToString();

  Diagnostics diags;
  auto config = net::ServeConfig::FromJson(
      json.ValueOrDie(), scenarios::ScenarioNames(), &diags);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_TRUE(diags.empty()) << diags.ToReport();
  ASSERT_EQ(config.ValueOrDie().sessions.size(), 2u);
  EXPECT_EQ(config.ValueOrDie().ToJson(), json.ValueOrDie())
      << "configs/serve_sessions.json is not in canonical form";

  // Every session compiles into a servable plan; the embedded cleaner
  // binds against its scenario's schema.
  size_t cleaned = 0;
  for (const net::SessionConfig& session : config.ValueOrDie().sessions) {
    auto plan = scenarios::BuildScenarioPlan(session.scenario, session.seed,
                                             session.parallelism);
    ASSERT_TRUE(plan.ok()) << session.name << ": "
                           << plan.status().ToString();
    if (session.cleaner.is_null()) continue;
    auto with_cleaner =
        scenarios::BuildPlanWithCleaner(*plan.ValueOrDie(), session.cleaner);
    ASSERT_TRUE(with_cleaner.ok())
        << session.name << ": " << with_cleaner.status().ToString();
    ++cleaned;
  }
  EXPECT_EQ(cleaned, 1u);
}

TEST(ShippedConfigsTest, SuiteLoadsAndDetectsSoftwareUpdateErrors) {
  auto suite = dq::SuiteFromConfigFile(ConfigPath("wearable_suite.json"));
  ASSERT_TRUE(suite.ok()) << suite.status().ToString();
  ASSERT_EQ(suite.ValueOrDie().size(), 5u);

  // The loaded suite detects the software-update errors end to end.
  auto stream = data::GenerateWearable();
  ASSERT_TRUE(stream.ok());
  VectorSource source(stream.ValueOrDie().front().schema(),
                      stream.ValueOrDie());
  auto polluted = PollutionProcess::Pollute(
      &source, scenarios::SoftwareUpdatePipeline(), 4);
  ASSERT_TRUE(polluted.ok());
  auto result =
      suite.ValueOrDie().Validate(polluted.ValueOrDie().polluted);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.ValueOrDie().success());
  EXPECT_GT(result.ValueOrDie().TotalUnexpected(), 1300u);  // 374+960+...
}

}  // namespace
}  // namespace icewafl
