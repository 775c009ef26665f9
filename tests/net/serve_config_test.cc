#include "net/serve_config.h"

#include <gtest/gtest.h>

#include <string>

#include "analysis/analyzer.h"
#include "net/wire.h"
#include "scenarios/scenarios.h"

namespace icewafl {
namespace net {
namespace {

Json ParseOrDie(const std::string& text) {
  auto parsed = Json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).ValueOrDie();
}

// ---------------------------------------------------------------------
// ServeConfig::FromJson — the loader and the one checker of serve
// documents. Per-code (code, pointer) fixtures live in
// tests/integration/config_fixtures_test.cc.
// ---------------------------------------------------------------------

TEST(ServeConfig, LegacyDocumentFailsWithIW608AtScenario) {
  // The retired single-session shape still routes here and fails with
  // one attributable error whose hint shows the sessions form.
  Diagnostics diags;
  auto config = ServeConfig::FromJson(
      ParseOrDie(R"({"scenario": "network_delay", "port": 9099,
                     "max_sessions": 5})"),
      scenarios::ScenarioNames(), &diags);
  ASSERT_FALSE(config.ok());
  const Diagnostic* legacy = nullptr;
  for (const Diagnostic& d : diags.items()) {
    if (d.code == "IW608" && d.path == "/scenario") legacy = &d;
  }
  ASSERT_NE(legacy, nullptr) << diags.ToReport();
  EXPECT_EQ(legacy->severity, DiagSeverity::kError);
  EXPECT_NE(
      legacy->hint.find(R"({"sessions": [{"scenario": "network_delay"}]})"),
      std::string::npos)
      << legacy->hint;
  EXPECT_NE(config.status().message().find("IW608"), std::string::npos);
  // The retired max_sessions key is just an unknown key now.
  EXPECT_TRUE(diags.HasCode("IW604")) << diags.ToReport();
}

TEST(ServeConfig, ParsesMultiSessionDocument) {
  Json json = ParseOrDie(R"({
    "sessions": [
      {"name": "alpha", "scenario": "random_temporal", "seed": 1,
       "min_subscribers": 3, "max_runs": 2},
      {"scenario": "network_delay", "parallelism": 2}
    ],
    "port": 9099,
    "workers": 4,
    "slow_consumer": "disconnect"
  })");
  auto config = ServeConfig::FromJson(json);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const ServeConfig& c = config.ValueOrDie();
  ASSERT_EQ(c.sessions.size(), 2u);
  EXPECT_EQ(c.sessions[0].name, "alpha");
  EXPECT_EQ(c.sessions[0].scenario, "random_temporal");
  EXPECT_EQ(c.sessions[0].seed, 1u);
  EXPECT_EQ(c.sessions[0].min_subscribers, 3);
  EXPECT_EQ(c.sessions[0].max_runs, 2u);
  EXPECT_EQ(c.sessions[1].name, "network_delay");  // defaults to scenario
  EXPECT_EQ(c.sessions[1].parallelism, 2);
  EXPECT_EQ(c.workers, 4);
  EXPECT_EQ(c.slow_consumer, SlowConsumerPolicy::kDisconnect);
}

TEST(ServeConfig, DefaultsApplyWhenOnlyScenarioGiven) {
  auto config = ServeConfig::FromJson(
      ParseOrDie(R"({"sessions": [{"scenario": "temporal_noise"}]})"));
  ASSERT_TRUE(config.ok());
  const ServeConfig& c = config.ValueOrDie();
  EXPECT_EQ(c.host, "127.0.0.1");
  EXPECT_EQ(c.port, 0);
  EXPECT_EQ(c.workers, 2);
  EXPECT_EQ(c.queue_capacity, 256u);
  EXPECT_EQ(c.slow_consumer, SlowConsumerPolicy::kBlock);
  ASSERT_EQ(c.sessions.size(), 1u);
  EXPECT_EQ(c.sessions[0].seed, 42u);
  EXPECT_EQ(c.sessions[0].parallelism, 1);
  EXPECT_EQ(c.sessions[0].min_subscribers, 1);
  EXPECT_EQ(c.sessions[0].max_runs, 0u);
}

TEST(ServeConfig, RejectsBadDocuments) {
  const std::string oversized(kMaxSessionIdBytes + 1, 'n');
  const std::string bad[] = {
      R"(42)",                                            // not an object
      R"({})",                                            // no sessions
      R"({"scenario": "s"})",                             // retired shape
      R"({"sessions": [{"scenario": 3}]})",               // scenario type
      R"({"sessions": [{"scenario": "s"}], "port": 65536})",  // port range
      R"({"sessions": [{"scenario": "s"}], "port": -1})",     // port range
      R"({"sessions": [{"scenario": "s"}], "port": 80.5})",   // fraction
      R"({"sessions": [{"scenario": "s"}], "admin_port": 65536})",
      R"({"sessions": [{"scenario": "s"}], "admin_port": -1})",
      R"({"sessions": [{"scenario": "s"}], "admin_port": "auto"})",
      R"({"sessions": [{"scenario": "s"}], "queue_capacity": 0})",
      R"({"sessions": [{"scenario": "s"}], "workers": 0})",
      R"({"sessions": [{"scenario": "s"}], "workers": 2.5})",
      R"({"sessions": [{"scenario": "s"}], "workers": "many"})",
      R"({"sessions": [{"scenario": "s"}], "workers": 4294967296})",
      R"({"sessions": [{"scenario": "s", "parallelism": 0}]})",
      R"({"sessions": [{"scenario": "s", "parallelism": 2.7}]})",
      R"({"sessions": [{"scenario": "s", "parallelism": 4294967297}]})",
      R"({"sessions": [{"scenario": "s", "min_subscribers": 0}]})",
      R"({"sessions": [{"scenario": "s", "seed": -1}]})",
      R"({"sessions": [{"scenario": "s"}], "slow_consumer": "panic"})",
      R"({"sessions": [{"scenario": "s"}], "host": 1})",
      R"({"scenario": "s", "sessions": []})",             // mixed shapes
      R"({"sessions": []})",                              // empty array
      R"({"sessions": {}})",                              // not an array
      R"({"sessions": [7]})",                             // entry not object
      R"({"sessions": [{}]})",                            // entry no scenario
      R"({"sessions": [{"scenario": "s", "name": ""}]})",  // empty name
      R"({"sessions": [{"scenario": "s", "name": "a\tb"}]})",  // control char
      R"({"sessions": [{"scenario": "s", "max_runs": -1}]})",
      R"({"sessions": [{"scenario": "s"}, {"scenario": "s"}]})",  // dup name
      R"({"sessions": [{"scenario": "s", "name": ")" + oversized + R"("}]})",
  };
  for (const std::string& text : bad) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(ServeConfig::FromJson(ParseOrDie(text)).ok());
  }
}

TEST(ServeConfig, JsonRoundTripIsStable) {
  ServeConfig config;
  SessionConfig alpha;
  alpha.name = "alpha";
  alpha.scenario = "temporal_scale";
  alpha.min_subscribers = 4;
  SessionConfig beta;
  beta.name = "beta";
  beta.scenario = "network_delay";
  beta.max_runs = 3;
  config.sessions = {alpha, beta};
  config.port = 1234;
  config.admin_port = 9100;
  config.workers = 3;
  config.slow_consumer = SlowConsumerPolicy::kDisconnect;
  auto back = ServeConfig::FromJson(config.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie().ToJson().Dump(), config.ToJson().Dump());
}

TEST(ServeConfig, SessionCleanerKeyParsesAndRoundTrips) {
  auto config = ServeConfig::FromJson(ParseOrDie(R"({
    "sessions": [
      {"name": "scrubbed", "scenario": "software_update",
       "cleaner": {"name": "wear_clean",
                   "rules": [{"label": "bpm", "column": "BPM",
                              "detect": {"type": "not_null"},
                              "repair": "last_good"}]}},
      {"name": "raw", "scenario": "software_update", "cleaner": null}
    ],
    "port": 0
  })"));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const ServeConfig& c = config.ValueOrDie();
  ASSERT_EQ(c.sessions.size(), 2u);
  ASSERT_TRUE(c.sessions[0].cleaner.is_object());
  EXPECT_EQ(c.sessions[0].cleaner.GetString("name", ""), "wear_clean");
  // `"cleaner": null` means "no cleaner" and canonicalizes to absence.
  EXPECT_TRUE(c.sessions[1].cleaner.is_null());

  Json json = c.ToJson();
  const Json sessions = json.Get("sessions").ValueOrDie();
  const Json::Array& entries = sessions.items();
  EXPECT_TRUE(entries[0].Has("cleaner"));
  EXPECT_FALSE(entries[1].Has("cleaner"));
  auto back = ServeConfig::FromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie().ToJson().Dump(), json.Dump());
}

TEST(ServeConfig, RejectsNonObjectCleaner) {
  auto config = ServeConfig::FromJson(ParseOrDie(
      R"({"sessions": [{"scenario": "s", "cleaner": 7}], "port": 0})"));
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().ToString().find("cleaning document"),
            std::string::npos)
      << config.status().ToString();
}

TEST(ServeConfig, ToServerOptionsCarriesEveryKnob) {
  ServeConfig config;
  config.host = "::1";
  config.port = 4242;
  config.workers = 5;
  config.queue_capacity = 17;
  config.slow_consumer = SlowConsumerPolicy::kDropOldest;
  ServerOptions options = config.ToServerOptions(nullptr);
  EXPECT_EQ(options.host, "::1");
  EXPECT_EQ(options.port, 4242);
  EXPECT_EQ(options.workers, 5);
  EXPECT_EQ(options.queue_capacity, 17u);
  EXPECT_EQ(options.slow_consumer, SlowConsumerPolicy::kDropOldest);
  EXPECT_EQ(options.metrics, nullptr);
}

TEST(ServeConfig, ToSessionOptionsCarriesPerSessionKnobs) {
  SessionConfig session;
  session.min_subscribers = 3;
  session.max_runs = 9;
  SessionOptions options = session.ToSessionOptions();
  EXPECT_EQ(options.min_subscribers, 3);
  EXPECT_EQ(options.max_runs, 9u);
}

TEST(SlowConsumerPolicy, NamesRoundTrip) {
  for (const std::string& name : SlowConsumerPolicyNames()) {
    auto policy = SlowConsumerPolicyFromName(name);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ(SlowConsumerPolicyName(policy.ValueOrDie()), name);
  }
  EXPECT_FALSE(SlowConsumerPolicyFromName("never-heard-of-it").ok());
}

TEST(ServeConfig, AdminPortParsesAndDefaultsOff) {
  // Absent: the admin channel stays disabled and round-trips away.
  auto off = ServeConfig::FromJson(
      ParseOrDie(R"({"sessions": [{"scenario": "random_temporal"}]})"));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.ValueOrDie().admin_port, -1);
  EXPECT_FALSE(off.ValueOrDie().ToJson().Has("admin_port"));
  // 0 is a legal value: bind an ephemeral admin port.
  auto ephemeral = ServeConfig::FromJson(ParseOrDie(
      R"({"sessions": [{"scenario": "random_temporal"}], "admin_port": 0})"));
  ASSERT_TRUE(ephemeral.ok());
  EXPECT_EQ(ephemeral.ValueOrDie().admin_port, 0);
  EXPECT_TRUE(ephemeral.ValueOrDie().ToJson().Has("admin_port"));
}

TEST(LooksLikeServeConfig, RoutesDocumentsByShape) {
  EXPECT_TRUE(analysis::LooksLikeServeConfig(
      ParseOrDie(R"({"scenario": "random_temporal"})")));
  EXPECT_TRUE(analysis::LooksLikeServeConfig(
      ParseOrDie(R"({"sessions": [{"scenario": "random_temporal"}]})")));
  EXPECT_FALSE(analysis::LooksLikeServeConfig(
      ParseOrDie(R"({"polluters": []})")));
  EXPECT_FALSE(analysis::LooksLikeServeConfig(ParseOrDie(
      R"({"scenario": "x", "polluters": []})")));
  EXPECT_FALSE(analysis::LooksLikeServeConfig(ParseOrDie(R"([1, 2])")));
}

}  // namespace
}  // namespace net
}  // namespace icewafl
