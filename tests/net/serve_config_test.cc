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

analysis::ServeAnalyzeOptions LintOptions() {
  analysis::ServeAnalyzeOptions options;
  options.known_scenarios = scenarios::ScenarioNames();
  options.known_policies = SlowConsumerPolicyNames();
  return options;
}

// ---------------------------------------------------------------------
// ServeConfig::FromJson — the enforcing twin of the IW6xx lint.
// ---------------------------------------------------------------------

TEST(ServeConfig, ParsesLegacySingleSessionDocument) {
  Json json = ParseOrDie(R"({
    "scenario": "network_delay",
    "host": "0.0.0.0",
    "port": 9099,
    "seed": 7,
    "parallelism": 3,
    "min_subscribers": 2,
    "max_sessions": 5,
    "queue_capacity": 64,
    "slow_consumer": "drop_oldest"
  })");
  auto config = ServeConfig::FromJson(json);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const ServeConfig& c = config.ValueOrDie();
  ASSERT_EQ(c.sessions.size(), 1u);
  // The legacy shape is one anonymous session named after its scenario;
  // `max_sessions` is the pre-v2 name of `max_runs`.
  EXPECT_EQ(c.sessions[0].name, "network_delay");
  EXPECT_EQ(c.sessions[0].scenario, "network_delay");
  EXPECT_EQ(c.sessions[0].seed, 7u);
  EXPECT_EQ(c.sessions[0].parallelism, 3);
  EXPECT_EQ(c.sessions[0].min_subscribers, 2);
  EXPECT_EQ(c.sessions[0].max_runs, 5u);
  EXPECT_EQ(c.host, "0.0.0.0");
  EXPECT_EQ(c.port, 9099);
  EXPECT_EQ(c.queue_capacity, 64u);
  EXPECT_EQ(c.slow_consumer, SlowConsumerPolicy::kDropOldest);
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
  auto config =
      ServeConfig::FromJson(ParseOrDie(R"({"scenario": "temporal_noise"})"));
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
      R"({})",                                            // no scenario
      R"({"scenario": 3})",                               // scenario type
      R"({"scenario": "s", "port": 65536})",              // port range
      R"({"scenario": "s", "port": -1})",                 // port range
      R"({"scenario": "s", "admin_port": 65536})",        // admin range
      R"({"scenario": "s", "admin_port": -1})",           // admin range
      R"({"scenario": "s", "admin_port": "auto"})",       // admin type
      R"({"scenario": "s", "queue_capacity": 0})",        // capacity
      R"({"scenario": "s", "workers": 0})",               // worker pool
      R"({"scenario": "s", "workers": 2.5})",             // fractional pool
      R"({"scenario": "s", "workers": "many"})",          // pool type
      R"({"scenario": "s", "workers": 4294967296})",      // pool overflow
      R"({"scenario": "s", "parallelism": 0})",           // parallelism
      R"({"scenario": "s", "min_subscribers": 0})",       // subscribers
      R"({"scenario": "s", "max_sessions": -2})",         // legacy max_runs
      R"({"scenario": "s", "seed": -1})",                 // seed
      R"({"scenario": "s", "slow_consumer": "panic"})",   // policy enum
      R"({"scenario": "s", "host": 1})",                  // host type
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

TEST(ServeConfig, LegacyDocumentCanonicalizesToSessionsArray) {
  auto config = ServeConfig::FromJson(
      ParseOrDie(R"({"scenario": "random_temporal", "max_sessions": 2})"));
  ASSERT_TRUE(config.ok());
  Json json = config.ValueOrDie().ToJson();
  EXPECT_TRUE(json.Has("sessions"));
  EXPECT_FALSE(json.Has("scenario"));
  auto back = ServeConfig::FromJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie().sessions[0].max_runs, 2u);
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

// ---------------------------------------------------------------------
// IW6xx lint fixtures — every code fires on its fixture and stays
// silent on a clean document.
// ---------------------------------------------------------------------

TEST(AnalyzeServeConfig, CleanConfigsHaveNoDiagnostics) {
  for (const char* text :
       {R"({
          "scenario": "random_temporal",
          "port": 9099,
          "queue_capacity": 32,
          "slow_consumer": "block"
        })",
        R"({
          "sessions": [
            {"name": "alpha", "scenario": "random_temporal", "max_runs": 1},
            {"scenario": "network_delay", "min_subscribers": 2}
          ],
          "workers": 3,
          "port": 9099
        })",
        // "cleaner": null means "no cleaner" — FromJson parity; a valid
        // embedded document must lint clean too.
        R"({
          "sessions": [
            {"name": "raw", "scenario": "software_update", "cleaner": null},
            {"name": "scrubbed", "scenario": "software_update",
             "cleaner": {"rules": [{"label": "bpm", "column": "BPM",
                                    "detect": {"type": "not_null"},
                                    "repair": "last_good"}]}}
          ],
          "port": 9099
        })"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.empty()) << diags.ToReport();
  }
}

TEST(AnalyzeServeConfig, IW601FiresOnBadPort) {
  for (const char* text :
       {R"({"scenario": "random_temporal", "port": 70000})",
        R"({"scenario": "random_temporal", "port": -5})",
        R"({"scenario": "random_temporal", "port": "http"})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW601")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
}

TEST(AnalyzeServeConfig, IW602FiresOnUnknownPolicy) {
  Diagnostics diags = analysis::AnalyzeServeConfig(
      ParseOrDie(R"({"scenario": "random_temporal",
                     "slow_consumer": "drop_newest"})"),
      LintOptions());
  EXPECT_TRUE(diags.HasCode("IW602")) << diags.ToReport();
}

TEST(AnalyzeServeConfig, IW603FiresOnNonPositiveQueueCapacity) {
  for (const char* text :
       {R"({"scenario": "random_temporal", "queue_capacity": 0})",
        R"({"scenario": "random_temporal", "queue_capacity": "big"})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW603")) << diags.ToReport();
  }
}

TEST(AnalyzeServeConfig, IW604WarnsOnUnknownKey) {
  for (const char* text :
       {R"({"scenario": "random_temporal", "protocl": "tcp"})",
        R"({"sessions": [{"scenario": "random_temporal", "sed": 1}]})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW604")) << diags.ToReport();
    EXPECT_FALSE(diags.HasErrors()) << "unknown keys warn, not fail";
  }
}

TEST(AnalyzeServeConfig, IW604FlagsSessionKnobsAtTopLevelOfSessionsDoc) {
  // In the multi-session shape the per-session knobs belong inside the
  // entries; a stray top-level `seed` is a likely porting mistake.
  Diagnostics diags = analysis::AnalyzeServeConfig(
      ParseOrDie(R"({"sessions": [{"scenario": "random_temporal"}],
                     "seed": 1})"),
      LintOptions());
  EXPECT_TRUE(diags.HasCode("IW604")) << diags.ToReport();
}

TEST(AnalyzeServeConfig, IW605FiresOnMissingOrUnknownScenario) {
  for (const char* text :
       {R"({})", R"({"scenario": 9})",
        R"({"scenario": "random_temporel"})",
        R"({"sessions": [{"name": "a"}]})",
        R"({"sessions": [{"scenario": "random_temporel"}]})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW605")) << diags.ToReport();
  }
}

TEST(AnalyzeServeConfig, IW606FiresOnOtherBadBounds) {
  for (const char* text :
       {R"({"scenario": "random_temporal", "seed": -1})",
        R"({"scenario": "random_temporal", "parallelism": 0})",
        R"({"scenario": "random_temporal", "min_subscribers": 0})",
        R"({"scenario": "random_temporal", "max_sessions": -1})",
        R"({"scenario": "random_temporal", "host": 7})",
        R"({"sessions": [{"scenario": "random_temporal", "max_runs": -1}]})",
        R"({"sessions": [{"scenario": "random_temporal", "seed": -2}]})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW606")) << diags.ToReport();
  }
}

TEST(AnalyzeServeConfig, IW609FiresOnNonPositiveIntegerWorkers) {
  for (const char* text :
       {R"({"scenario": "random_temporal", "workers": 0})",
        R"({"scenario": "random_temporal", "workers": -2})",
        R"({"scenario": "random_temporal", "workers": 2.5})",
        R"({"scenario": "random_temporal", "workers": "many"})",
        R"({"scenario": "random_temporal", "workers": 4294967296})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW609")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
  // Whole-valued doubles (a JSON "4" parsed as 4.0) are integers.
  Diagnostics diags = analysis::AnalyzeServeConfig(
      ParseOrDie(R"({"scenario": "random_temporal", "workers": 4})"),
      LintOptions());
  EXPECT_FALSE(diags.HasCode("IW609")) << diags.ToReport();
}

TEST(AnalyzeServeConfig, IW607FiresOnBadSessionNames) {
  const std::string oversized(300, 'n');
  for (const std::string& text :
       {std::string(
            R"({"sessions": [{"scenario": "random_temporal", "name": ""}]})"),
        std::string(
            R"({"sessions": [{"scenario": "random_temporal", "name": 7}]})"),
        R"({"sessions": [{"scenario": "random_temporal", "name": ")" +
            oversized + R"("}]})",
        std::string(R"({"sessions": [
            {"scenario": "random_temporal", "name": "twin"},
            {"scenario": "network_delay", "name": "twin"}]})")}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW607")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
  // Two entries of the same scenario with distinct names are fine.
  Diagnostics diags = analysis::AnalyzeServeConfig(
      ParseOrDie(R"({"sessions": [
          {"scenario": "random_temporal", "name": "a"},
          {"scenario": "random_temporal", "name": "b"}]})"),
      LintOptions());
  EXPECT_FALSE(diags.HasCode("IW607")) << diags.ToReport();
}

TEST(ServeConfig, AdminPortParsesAndDefaultsOff) {
  // Absent: the admin channel stays disabled and round-trips away.
  auto off = ServeConfig::FromJson(
      ParseOrDie(R"({"scenario": "random_temporal"})"));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.ValueOrDie().admin_port, -1);
  EXPECT_FALSE(off.ValueOrDie().ToJson().Has("admin_port"));
  // 0 is a legal value: bind an ephemeral admin port.
  auto ephemeral = ServeConfig::FromJson(
      ParseOrDie(R"({"scenario": "random_temporal", "admin_port": 0})"));
  ASSERT_TRUE(ephemeral.ok());
  EXPECT_EQ(ephemeral.ValueOrDie().admin_port, 0);
  EXPECT_TRUE(ephemeral.ValueOrDie().ToJson().Has("admin_port"));
}

TEST(AnalyzeServeConfig, IW601FiresOnBadAdminPort) {
  for (const char* text :
       {R"({"scenario": "random_temporal", "admin_port": 65536})",
        R"({"scenario": "random_temporal", "admin_port": -1})",
        R"({"scenario": "random_temporal", "admin_port": "auto"})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW601")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
  Diagnostics clean = analysis::AnalyzeServeConfig(
      ParseOrDie(R"({"scenario": "random_temporal", "admin_port": 0})"),
      LintOptions());
  EXPECT_FALSE(clean.HasCode("IW601")) << clean.ToReport();
}

TEST(AnalyzeServeConfig, IW615FiresOnControlCharacterNames) {
  for (const char* text :
       {R"({"sessions": [{"scenario": "random_temporal",
                          "name": "a\tb"}]})",
        R"({"sessions": [{"scenario": "random_temporal",
                          "name": "line\nbreak"}]})",
        R"({"sessions": [{"scenario": "random_temporal",
                          "name": "del\u007fete"}]})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW615")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
  // Spaces and punctuation are printable, not control characters.
  Diagnostics clean = analysis::AnalyzeServeConfig(
      ParseOrDie(R"({"sessions": [{"scenario": "random_temporal",
                                   "name": "live session #1"}]})"),
      LintOptions());
  EXPECT_FALSE(clean.HasCode("IW615")) << clean.ToReport();
}

TEST(AnalyzeServeConfig, IW608FiresOnMalformedSessionsShape) {
  for (const char* text :
       {R"({"scenario": "random_temporal", "sessions": []})",
        R"({"sessions": []})", R"({"sessions": {}})",
        R"({"sessions": [7]})"}) {
    SCOPED_TRACE(text);
    Diagnostics diags =
        analysis::AnalyzeServeConfig(ParseOrDie(text), LintOptions());
    EXPECT_TRUE(diags.HasCode("IW608")) << diags.ToReport();
    EXPECT_TRUE(diags.HasErrors());
  }
}

TEST(AnalyzeServeConfig, LintAgreesWithFromJson) {
  // The advisory lint and the enforcing parser must accept/reject the
  // same documents (modulo IW604 warnings and scenario-name knowledge).
  const char* docs[] = {
      R"({"scenario": "random_temporal"})",
      R"({"scenario": "random_temporal", "port": 70000})",
      R"({"scenario": "random_temporal", "queue_capacity": 0})",
      R"({"scenario": "random_temporal", "slow_consumer": "nope"})",
      R"({"scenario": "random_temporal", "parallelism": -3})",
      R"({"scenario": "random_temporal", "workers": 0})",
      R"({"scenario": "random_temporal", "workers": 2.5})",
      R"({"scenario": "random_temporal", "workers": "many"})",
      R"({"sessions": [{"name": "a", "scenario": "random_temporal"}]})",
      R"({"sessions": []})",
      R"({"sessions": [{"scenario": "random_temporal", "name": ""}]})",
      R"({"sessions": [{"scenario": "random_temporal"},
                       {"scenario": "random_temporal"}]})",
      R"({"scenario": "random_temporal", "sessions": []})",
  };
  for (const char* text : docs) {
    SCOPED_TRACE(text);
    Json json = ParseOrDie(text);
    Diagnostics diags = analysis::AnalyzeServeConfig(json, LintOptions());
    EXPECT_EQ(ServeConfig::FromJson(json).ok(), !diags.HasErrors())
        << diags.ToReport();
  }
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
