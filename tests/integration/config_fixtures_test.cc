// The config-rule fixture set: one table of serve and cleaning
// documents, each with the exact (code, JSON pointer) findings its
// loader must report and whether it loads. The loaders
// (net::ServeConfig::FromJson, clean::RulesFromJson) are the only
// checkers of these rules, so `icewafl_cli lint`, `serve`, `clean`, and
// the admin hooks all see exactly these findings. Each TEST below runs
// the rows tagged with its own name; EveryRowBelongsToATest keeps the
// tags honest.
//
// Also here: the cleaner soundness sweep (a document the loader accepts
// runs, deterministically across parallelism), the IW616 admin gate,
// and a seeded mutation test over the shipped documents.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "clean/cleaner.h"
#include "clean/config.h"
#include "data/wearable.h"
#include "net/serve_config.h"
#include "scenarios/scenarios.h"
#include "stream/sink.h"

namespace icewafl {
namespace {

enum class Loader {
  kServe,         // net::ServeConfig::FromJson, stock scenario names known
  kCleaner,       // clean::RulesFromJson, schemaless
  kBoundCleaner,  // clean::RulesFromJson bound to the wearable schema
};

struct Finding {
  std::string code;
  std::string pointer;

  bool operator<(const Finding& o) const {
    return std::tie(code, pointer) < std::tie(o.code, o.pointer);
  }
  bool operator==(const Finding& o) const {
    return code == o.code && pointer == o.pointer;
  }
};

std::ostream& operator<<(std::ostream& os, const Finding& f) {
  return os << f.code << " at " << (f.pointer.empty() ? "/" : f.pointer);
}

struct Row {
  /// "Suite.Name" of the TEST that checks this row.
  std::string test;
  Loader loader;
  std::string doc;
  /// Every finding, errors and warnings alike (compared as a multiset).
  std::vector<Finding> findings;
  bool loads;
};

/// Runs the row's loader; true when it loaded.
bool Load(Loader loader, const Json& json, Diagnostics* diags) {
  switch (loader) {
    case Loader::kServe:
      return net::ServeConfig::FromJson(json, scenarios::ScenarioNames(),
                                        diags)
          .ok();
    case Loader::kCleaner:
      return clean::RulesFromJson(json, nullptr, diags).ok();
    case Loader::kBoundCleaner:
      return clean::RulesFromJson(json, data::WearableSchema(), diags).ok();
  }
  return false;
}

// Shorthands for the table.
constexpr Loader kServe = Loader::kServe;
constexpr Loader kClean = Loader::kCleaner;
constexpr Loader kBound = Loader::kBoundCleaner;
constexpr bool kLoads = true;
constexpr bool kFails = false;

/// One random_temporal session plus `extra` top-level keys.
std::string Serve(const std::string& extra) {
  return R"({"sessions": [{"scenario": "random_temporal"}])" +
         (extra.empty() ? "" : ", " + extra) + "}";
}

/// One session entry carrying `entry_keys` after its scenario.
std::string Session(const std::string& entry_keys) {
  return R"({"sessions": [{"scenario": "random_temporal", )" + entry_keys +
         "}]}";
}

/// One rule {"label": "a", "column": "BPM", <rest>} in a document.
std::string Rule(const std::string& rest, const std::string& doc_keys = "") {
  return "{" + doc_keys + R"("rules": [{"label": "a", "column": "BPM", )" +
         rest + "}]}";
}

const std::vector<Row>& Rows() {
  static const auto* rows = new std::vector<Row>{
      // --- serve documents -----------------------------------------
      {"AnalyzeServeConfig.CleanConfigsHaveNoDiagnostics", kServe,
       Serve(R"("port": 9099, "queue_capacity": 32, "slow_consumer": "block")"),
       {}, kLoads},
      {"AnalyzeServeConfig.CleanConfigsHaveNoDiagnostics", kServe,
       R"({"sessions": [
            {"name": "alpha", "scenario": "random_temporal", "max_runs": 1},
            {"scenario": "network_delay", "min_subscribers": 2}],
           "workers": 3, "port": 9099})",
       {}, kLoads},
      // "cleaner": null means "no cleaner"; an embedded document is
      // checked by the cleaner loader.
      {"AnalyzeServeConfig.CleanConfigsHaveNoDiagnostics", kServe,
       R"({"sessions": [
            {"name": "raw", "scenario": "software_update", "cleaner": null},
            {"name": "scrubbed", "scenario": "software_update",
             "cleaner": {"rules": [{"label": "bpm", "column": "BPM",
                                    "detect": {"type": "not_null"},
                                    "repair": "last_good"}]}}],
           "port": 9099})",
       {}, kLoads},

      {"AnalyzeServeConfig.IW601FiresOnBadPort", kServe,
       Serve(R"("port": 70000)"), {{"IW601", "/port"}}, kFails},
      {"AnalyzeServeConfig.IW601FiresOnBadPort", kServe,
       Serve(R"("port": -5)"), {{"IW601", "/port"}}, kFails},
      {"AnalyzeServeConfig.IW601FiresOnBadPort", kServe,
       Serve(R"("port": "http")"), {{"IW601", "/port"}}, kFails},

      {"AnalyzeServeConfig.IW601FiresOnBadAdminPort", kServe,
       Serve(R"("admin_port": 65536)"), {{"IW601", "/admin_port"}}, kFails},
      {"AnalyzeServeConfig.IW601FiresOnBadAdminPort", kServe,
       Serve(R"("admin_port": -1)"), {{"IW601", "/admin_port"}}, kFails},
      {"AnalyzeServeConfig.IW601FiresOnBadAdminPort", kServe,
       Serve(R"("admin_port": "auto")"), {{"IW601", "/admin_port"}}, kFails},
      {"AnalyzeServeConfig.IW601FiresOnBadAdminPort", kServe,
       Serve(R"("admin_port": 0)"), {}, kLoads},

      {"AnalyzeServeConfig.IW602FiresOnUnknownPolicy", kServe,
       Serve(R"("slow_consumer": "drop_newest")"),
       {{"IW602", "/slow_consumer"}}, kFails},
      {"AnalyzeServeConfig.IW602FiresOnUnknownPolicy", kServe,
       Serve(R"("slow_consumer": 3)"), {{"IW602", "/slow_consumer"}}, kFails},

      {"AnalyzeServeConfig.IW603FiresOnNonPositiveQueueCapacity", kServe,
       Serve(R"("queue_capacity": 0)"), {{"IW603", "/queue_capacity"}},
       kFails},
      {"AnalyzeServeConfig.IW603FiresOnNonPositiveQueueCapacity", kServe,
       Serve(R"("queue_capacity": "big")"), {{"IW603", "/queue_capacity"}},
       kFails},

      {"AnalyzeServeConfig.IW604WarnsOnUnknownKey", kServe,
       Serve(R"("protocl": "tcp")"), {{"IW604", "/protocl"}}, kLoads},
      {"AnalyzeServeConfig.IW604WarnsOnUnknownKey", kServe,
       Session(R"("sed": 1)"), {{"IW604", "/sessions/0/sed"}}, kLoads},
      // The per-session knobs belong inside the entries.
      {"AnalyzeServeConfig.IW604FlagsSessionKnobsAtTopLevelOfSessionsDoc",
       kServe, Serve(R"("seed": 1)"), {{"IW604", "/seed"}}, kLoads},

      {"AnalyzeServeConfig.IW605FiresOnMissingOrUnknownScenario", kServe,
       R"({"sessions": [{"name": "a"}]})",
       {{"IW605", "/sessions/0/scenario"}}, kFails},
      {"AnalyzeServeConfig.IW605FiresOnMissingOrUnknownScenario", kServe,
       R"({"sessions": [{"scenario": "random_temporel"}]})",
       {{"IW605", "/sessions/0/scenario"}}, kFails},
      {"AnalyzeServeConfig.IW605FiresOnMissingOrUnknownScenario", kServe,
       R"({"sessions": [{"scenario": 9}]})",
       {{"IW605", "/sessions/0/scenario"}}, kFails},

      {"AnalyzeServeConfig.IW606FiresOnOtherBadBounds", kServe,
       Session(R"("seed": -1)"), {{"IW606", "/sessions/0/seed"}}, kFails},
      {"AnalyzeServeConfig.IW606FiresOnOtherBadBounds", kServe,
       Session(R"("parallelism": 0)"), {{"IW606", "/sessions/0/parallelism"}},
       kFails},
      {"AnalyzeServeConfig.IW606FiresOnOtherBadBounds", kServe,
       Session(R"("min_subscribers": 0)"),
       {{"IW606", "/sessions/0/min_subscribers"}}, kFails},
      {"AnalyzeServeConfig.IW606FiresOnOtherBadBounds", kServe,
       Session(R"("max_runs": -1)"), {{"IW606", "/sessions/0/max_runs"}},
       kFails},
      {"AnalyzeServeConfig.IW606FiresOnOtherBadBounds", kServe,
       Session(R"("seed": -2)"), {{"IW606", "/sessions/0/seed"}}, kFails},
      {"AnalyzeServeConfig.IW606FiresOnOtherBadBounds", kServe,
       Serve(R"("host": 7)"), {{"IW606", "/host"}}, kFails},

      {"AnalyzeServeConfig.IW607FiresOnBadSessionNames", kServe,
       Session(R"("name": "")"), {{"IW607", "/sessions/0/name"}}, kFails},
      {"AnalyzeServeConfig.IW607FiresOnBadSessionNames", kServe,
       Session(R"("name": 7)"), {{"IW607", "/sessions/0/name"}}, kFails},
      {"AnalyzeServeConfig.IW607FiresOnBadSessionNames", kServe,
       Session(R"("name": ")" + std::string(300, 'n') + "\""),
       {{"IW607", "/sessions/0/name"}}, kFails},
      {"AnalyzeServeConfig.IW607FiresOnBadSessionNames", kServe,
       R"({"sessions": [{"scenario": "random_temporal", "name": "twin"},
                        {"scenario": "network_delay", "name": "twin"}]})",
       {{"IW607", "/sessions/1/name"}}, kFails},
      // The name defaults to the scenario, so two unnamed entries of one
      // scenario collide too.
      {"AnalyzeServeConfig.IW607FiresOnBadSessionNames", kServe,
       R"({"sessions": [{"scenario": "random_temporal"},
                        {"scenario": "random_temporal"}]})",
       {{"IW607", "/sessions/1/name"}}, kFails},
      {"AnalyzeServeConfig.IW607FiresOnBadSessionNames", kServe,
       R"({"sessions": [{"scenario": "random_temporal", "name": "a"},
                        {"scenario": "random_temporal", "name": "b"}]})",
       {}, kLoads},

      {"AnalyzeServeConfig.IW608FiresOnMalformedSessionsShape", kServe,
       R"(42)", {{"IW608", ""}}, kFails},
      {"AnalyzeServeConfig.IW608FiresOnMalformedSessionsShape", kServe,
       R"({})", {{"IW608", "/sessions"}}, kFails},
      {"AnalyzeServeConfig.IW608FiresOnMalformedSessionsShape", kServe,
       R"({"sessions": []})", {{"IW608", "/sessions"}}, kFails},
      {"AnalyzeServeConfig.IW608FiresOnMalformedSessionsShape", kServe,
       R"({"sessions": {}})", {{"IW608", "/sessions"}}, kFails},
      {"AnalyzeServeConfig.IW608FiresOnMalformedSessionsShape", kServe,
       R"({"sessions": [7]})", {{"IW608", "/sessions/0"}}, kFails},
      // The retired single-session shape: a top-level scenario.
      {"AnalyzeServeConfig.IW608FiresOnMalformedSessionsShape", kServe,
       R"({"scenario": "random_temporal", "sessions": []})",
       {{"IW608", "/scenario"}, {"IW608", "/sessions"}}, kFails},
      {"AnalyzeServeConfig.IW608FiresOnMalformedSessionsShape", kServe,
       R"({"scenario": "random_temporal"})", {{"IW608", "/scenario"}},
       kFails},
      {"AnalyzeServeConfig.IW608FiresOnMalformedSessionsShape", kServe,
       R"({"scenario": "random_temporal", "max_sessions": 2,
           "sessions": [{"scenario": "random_temporal"}]})",
       {{"IW608", "/scenario"}, {"IW604", "/max_sessions"}}, kFails},

      {"AnalyzeServeConfig.IW609FiresOnNonPositiveIntegerWorkers", kServe,
       Serve(R"("workers": 0)"), {{"IW609", "/workers"}}, kFails},
      {"AnalyzeServeConfig.IW609FiresOnNonPositiveIntegerWorkers", kServe,
       Serve(R"("workers": -2)"), {{"IW609", "/workers"}}, kFails},
      {"AnalyzeServeConfig.IW609FiresOnNonPositiveIntegerWorkers", kServe,
       Serve(R"("workers": 2.5)"), {{"IW609", "/workers"}}, kFails},
      {"AnalyzeServeConfig.IW609FiresOnNonPositiveIntegerWorkers", kServe,
       Serve(R"("workers": "many")"), {{"IW609", "/workers"}}, kFails},
      {"AnalyzeServeConfig.IW609FiresOnNonPositiveIntegerWorkers", kServe,
       Serve(R"("workers": 4294967296)"), {{"IW609", "/workers"}}, kFails},
      // Whole-valued numbers are integers.
      {"AnalyzeServeConfig.IW609FiresOnNonPositiveIntegerWorkers", kServe,
       Serve(R"("workers": 4)"), {}, kLoads},

      {"AnalyzeServeConfig.IW615FiresOnControlCharacterNames", kServe,
       Session(R"("name": "a\tb")"), {{"IW615", "/sessions/0/name"}}, kFails},
      {"AnalyzeServeConfig.IW615FiresOnControlCharacterNames", kServe,
       Session(R"("name": "line\nbreak")"), {{"IW615", "/sessions/0/name"}},
       kFails},
      {"AnalyzeServeConfig.IW615FiresOnControlCharacterNames", kServe,
       Session(R"("name": "del\u007fete")"), {{"IW615", "/sessions/0/name"}},
       kFails},
      // Spaces and punctuation are printable.
      {"AnalyzeServeConfig.IW615FiresOnControlCharacterNames", kServe,
       Session(R"("name": "live session #1")"), {}, kLoads},

      // An embedded cleaner's findings are rooted at its entry.
      {"AdminCleanerLintTest.SessionEntryCleanerAnalyzedInServeConfig",
       kServe,
       Session(R"("name": "s", "cleaner": )" +
               Rule(R"("detect": {"type": "range", "min": 9, "max": 1},
                       "repair": "drop")")),
       {{"IW704", "/sessions/0/cleaner/rules/0/detect/min"}}, kFails},
      {"AdminCleanerLintTest.SessionEntryCleanerAnalyzedInServeConfig",
       kServe, Session(R"("cleaner": 7)"), {{"IW701", "/sessions/0/cleaner"}},
       kFails},

      // Integer keys: a fraction or a value past the field's type is
      // rejected with the key's own code, never truncated.
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Session(R"("parallelism": 2.7)"),
       {{"IW606", "/sessions/0/parallelism"}}, kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Session(R"("parallelism": 4294967297)"),
       {{"IW606", "/sessions/0/parallelism"}}, kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Session(R"("min_subscribers": 1.5)"),
       {{"IW606", "/sessions/0/min_subscribers"}}, kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Session(R"("max_runs": 0.5)"), {{"IW606", "/sessions/0/max_runs"}},
       kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Session(R"("seed": 2.5)"), {{"IW606", "/sessions/0/seed"}}, kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Session(R"("seed": 1e300)"), {{"IW606", "/sessions/0/seed"}}, kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Serve(R"("port": 80.5)"), {{"IW601", "/port"}}, kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Serve(R"("admin_port": 9100.5)"), {{"IW601", "/admin_port"}}, kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Serve(R"("queue_capacity": 2.5)"), {{"IW603", "/queue_capacity"}},
       kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Serve(R"("queue_capacity": 1e300)"), {{"IW603", "/queue_capacity"}},
       kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kClean,
       Rule(R"("detect": {"type": "not_null"}, "repair": "drop")",
            R"("history": 2.5, )"),
       {{"IW701", "/history"}}, kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kClean,
       Rule(R"("detect": {"type": "stuck_at", "min_repeats": 2.5},
               "repair": "drop")"),
       {{"IW704", "/rules/0/detect/min_repeats"}}, kFails},
      {"ConfigFixtures.IntegerKeysNeverTruncate", kServe,
       Session(R"("parallelism": 4, "seed": 0, "max_runs": 3)"), {}, kLoads},

      // --- cleaning documents --------------------------------------
      {"CleanerLintTest.CleanDocumentPassesWithSchema", kBound,
       R"({"name": "ok", "history": 32, "rules": [
            {"label": "a", "column": "BPM",
             "detect": {"type": "range", "min": 20, "max": 250},
             "repair": "clamp",
             "when": [{"column": "Steps", "op": "gt", "value": 0}]},
            {"label": "b", "column": "Distance",
             "detect": {"type": "cross_field", "op": "le", "other": "Steps"},
             "repair": "window_mean"}]})",
       {}, kLoads},

      {"CleanerLintTest.IW701DocumentShape", kClean, R"([1, 2])",
       {{"IW701", ""}}, kFails},
      {"CleanerLintTest.IW701DocumentShape", kClean, R"({"name": "x"})",
       {{"IW701", "/rules"}}, kFails},
      {"CleanerLintTest.IW701DocumentShape", kClean, R"({"rules": 7})",
       {{"IW701", "/rules"}}, kFails},
      {"CleanerLintTest.IW701DocumentShape", kClean,
       R"({"history": 0, "rules": []})",
       {{"IW701", "/history"}, {"IW701", "/rules"}}, kFails},
      {"CleanerLintTest.IW701DocumentShape", kClean,
       R"({"name": 5, "rules": []})",
       {{"IW701", "/name"}, {"IW701", "/rules"}}, kFails},
      {"CleanerLintTest.IW701DocumentShape", kClean,
       R"({"key": 5, "rules": []})",
       {{"IW701", "/key"}, {"IW701", "/rules"}}, kFails},
      // Empty rules array: a warning, not an error.
      {"CleanerLintTest.IW701DocumentShape", kClean, R"({"rules": []})",
       {{"IW701", "/rules"}}, kLoads},

      {"CleanerLintTest.IW702MalformedRuleEntries", kClean,
       R"({"rules": [
            7,
            {"column": "BPM", "detect": {"type": "not_null"},
             "repair": "drop"},
            {"label": "c", "column": "BPM", "repair": "drop"},
            {"label": "d", "column": "BPM", "detect": {"type": "not_null"},
             "repair": "drop", "when": [17]}]})",
       {{"IW702", "/rules/0"},
        {"IW702", "/rules/1/label"},
        {"IW702", "/rules/2/detect"},
        {"IW702", "/rules/3/when/0"}},
       kFails},
      {"CleanerLintTest.IW702MalformedRuleEntries", kClean,
       R"({"rules": [{"label": "", "column": "BPM",
                      "detect": {"type": "not_null"}, "repair": "drop"}]})",
       {{"IW702", "/rules/0/label"}}, kFails},
      {"CleanerLintTest.IW702MalformedRuleEntries", kClean,
       Rule(R"("detect": {"type": "not_null"}, "repair": "drop",
               "when": "always")"),
       {{"IW702", "/rules/0/when"}}, kFails},

      {"CleanerLintTest.IW703UnknownOrNonNumericColumn", kBound,
       R"({"rules": [{"label": "a", "column": "Heartrate",
                      "detect": {"type": "not_null"}, "repair": "drop"}]})",
       {{"IW703", "/rules/0/column"}}, kFails},
      // Without a schema, column checks are skipped entirely.
      {"CleanerLintTest.IW703UnknownOrNonNumericColumn", kClean,
       R"({"rules": [{"label": "a", "column": "Heartrate",
                      "detect": {"type": "not_null"}, "repair": "drop"}]})",
       {}, kLoads},
      // Guard columns are numeric positions too.
      {"CleanerLintTest.IW703UnknownOrNonNumericColumn", kBound,
       Rule(R"("detect": {"type": "not_null"}, "repair": "drop",
               "when": [{"column": "Ghost", "op": "gt", "value": 0}])"),
       {{"IW703", "/rules/0/when/0/column"}}, kFails},
      {"CleanerLintTest.IW703UnknownOrNonNumericColumn", kBound,
       Rule(R"("detect": {"type": "cross_field", "op": "le",
                          "other": "Ghost"}, "repair": "drop")"),
       {{"IW703", "/rules/0/detect/other"}}, kFails},
      {"CleanerLintTest.IW703UnknownOrNonNumericColumn", kBound,
       Rule(R"("detect": {"type": "not_null"}, "repair": "drop")",
            R"("key": "Sensor", )"),
       {{"IW703", "/key"}}, kFails},

      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "teleport"}, "repair": "drop")"),
       {{"IW704", "/rules/0/detect/type"}}, kFails},
      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "not_null"}, "repair": "mend")"),
       {{"IW704", "/rules/0/repair"}}, kFails},
      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "range", "min": 9, "max": 1},
               "repair": "drop")"),
       {{"IW704", "/rules/0/detect/min"}}, kFails},
      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "range", "min": 9}, "repair": "drop")"),
       {{"IW704", "/rules/0/detect/max"}}, kFails},
      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "regex", "pattern": "(unclosed"},
               "repair": "drop")"),
       {{"IW704", "/rules/0/detect/pattern"}}, kFails},
      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "type", "value_type": "quaternion"},
               "repair": "drop")"),
       {{"IW704", "/rules/0/detect/value_type"}}, kFails},
      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "cross_field", "op": "sideways",
                          "other": "Steps"}, "repair": "drop")"),
       {{"IW704", "/rules/0/detect/op"}}, kFails},
      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "rate_of_change", "max_change": -1},
               "repair": "drop")"),
       {{"IW704", "/rules/0/detect/max_change"}}, kFails},
      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "stuck_at", "min_repeats": 1},
               "repair": "drop")"),
       {{"IW704", "/rules/0/detect/min_repeats"}}, kFails},
      {"CleanerLintTest.IW704BadParams", kClean,
       Rule(R"("detect": {"type": "not_null"}, "repair": "drop",
               "when": [{"column": "Steps", "op": "near", "value": 0}])"),
       {{"IW704", "/rules/0/when/0/op"}}, kFails},

      {"CleanerLintTest.IW705ClampRequiresRangeDetect", kClean,
       Rule(R"("detect": {"type": "not_null"}, "repair": "clamp")"),
       {{"IW705", "/rules/0/repair"}}, kFails},

      {"CleanerLintTest.IW706DuplicateLabelIsAWarning", kClean,
       R"({"rules": [
            {"label": "a", "column": "BPM",
             "detect": {"type": "not_null"}, "repair": "drop"},
            {"label": "a", "column": "BPM",
             "detect": {"type": "not_null"}, "repair": "drop"}]})",
       {{"IW706", "/rules/1/label"}}, kLoads},

      {"CleanerLintTest.IW707StuckAtBeyondHistoryNeverFires", kClean,
       Rule(R"("detect": {"type": "stuck_at", "min_repeats": 6},
               "repair": "set_null")",
            R"("history": 4, )"),
       {{"IW707", "/rules/0/detect/min_repeats"}}, kLoads},
      // min_repeats == history + 1 still fires (the incoming tuple is
      // the +1).
      {"CleanerLintTest.IW707StuckAtBeyondHistoryNeverFires", kClean,
       Rule(R"("detect": {"type": "stuck_at", "min_repeats": 5},
               "repair": "set_null")",
            R"("history": 4, )"),
       {}, kLoads},

      {"CleanerLintTest.IW604UnknownKeysAreWarnings", kClean,
       R"({"rules": [], "colour": "blue"})",
       {{"IW701", "/rules"}, {"IW604", "/colour"}}, kLoads},
      {"CleanerLintTest.IW604UnknownKeysAreWarnings", kClean,
       Rule(R"("detect": {"type": "not_null"}, "repair": "drop",
               "priority": 3)"),
       {{"IW604", "/rules/0/priority"}}, kLoads},
  };
  return *rows;
}

/// Runs every row tagged with the current test's "Suite.Name".
void ExpectRowsOfThisTest() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string test =
      std::string(info->test_suite_name()) + "." + info->name();
  size_t ran = 0;
  for (const Row& row : Rows()) {
    if (row.test != test) continue;
    ++ran;
    SCOPED_TRACE(row.doc);
    auto json = Json::Parse(row.doc);
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    Diagnostics diags;
    const bool loaded = Load(row.loader, json.ValueOrDie(), &diags);
    EXPECT_EQ(loaded, row.loads) << diags.ToReport();
    EXPECT_EQ(loaded, !diags.HasErrors()) << diags.ToReport();
    std::vector<Finding> found;
    for (const Diagnostic& d : diags.items()) found.push_back({d.code, d.path});
    std::vector<Finding> expected = row.findings;
    std::sort(found.begin(), found.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(found, expected) << diags.ToReport();
  }
  EXPECT_GT(ran, 0u) << "no fixture rows tagged " << test;
}

TEST(ConfigFixtures, EveryRowBelongsToATest) {
  std::set<std::string> tests;
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  for (int i = 0; i < unit.total_test_suite_count(); ++i) {
    const ::testing::TestSuite& suite = *unit.GetTestSuite(i);
    for (int j = 0; j < suite.total_test_count(); ++j) {
      tests.insert(std::string(suite.name()) + "." +
                   suite.GetTestInfo(j)->name());
    }
  }
  for (const Row& row : Rows()) {
    EXPECT_TRUE(tests.count(row.test)) << row.test << ": " << row.doc;
  }
}

TEST(AnalyzeServeConfig, CleanConfigsHaveNoDiagnostics) {
  ExpectRowsOfThisTest();
}
TEST(AnalyzeServeConfig, IW601FiresOnBadPort) { ExpectRowsOfThisTest(); }
TEST(AnalyzeServeConfig, IW601FiresOnBadAdminPort) { ExpectRowsOfThisTest(); }
TEST(AnalyzeServeConfig, IW602FiresOnUnknownPolicy) {
  ExpectRowsOfThisTest();
}
TEST(AnalyzeServeConfig, IW603FiresOnNonPositiveQueueCapacity) {
  ExpectRowsOfThisTest();
}
TEST(AnalyzeServeConfig, IW604WarnsOnUnknownKey) { ExpectRowsOfThisTest(); }
TEST(AnalyzeServeConfig, IW604FlagsSessionKnobsAtTopLevelOfSessionsDoc) {
  ExpectRowsOfThisTest();
}
TEST(AnalyzeServeConfig, IW605FiresOnMissingOrUnknownScenario) {
  ExpectRowsOfThisTest();
}
TEST(AnalyzeServeConfig, IW606FiresOnOtherBadBounds) {
  ExpectRowsOfThisTest();
}
TEST(AnalyzeServeConfig, IW607FiresOnBadSessionNames) {
  ExpectRowsOfThisTest();
}
TEST(AnalyzeServeConfig, IW608FiresOnMalformedSessionsShape) {
  ExpectRowsOfThisTest();
}
TEST(AnalyzeServeConfig, IW609FiresOnNonPositiveIntegerWorkers) {
  ExpectRowsOfThisTest();
}
TEST(AnalyzeServeConfig, IW615FiresOnControlCharacterNames) {
  ExpectRowsOfThisTest();
}
TEST(AdminCleanerLintTest, SessionEntryCleanerAnalyzedInServeConfig) {
  ExpectRowsOfThisTest();
}
TEST(ConfigFixtures, IntegerKeysNeverTruncate) { ExpectRowsOfThisTest(); }
TEST(CleanerLintTest, CleanDocumentPassesWithSchema) {
  ExpectRowsOfThisTest();
}
TEST(CleanerLintTest, IW701DocumentShape) { ExpectRowsOfThisTest(); }
TEST(CleanerLintTest, IW702MalformedRuleEntries) { ExpectRowsOfThisTest(); }
TEST(CleanerLintTest, IW703UnknownOrNonNumericColumn) {
  ExpectRowsOfThisTest();
}
TEST(CleanerLintTest, IW704BadParams) { ExpectRowsOfThisTest(); }
TEST(CleanerLintTest, IW705ClampRequiresRangeDetect) {
  ExpectRowsOfThisTest();
}
TEST(CleanerLintTest, IW706DuplicateLabelIsAWarning) {
  ExpectRowsOfThisTest();
}
TEST(CleanerLintTest, IW707StuckAtBeyondHistoryNeverFires) {
  ExpectRowsOfThisTest();
}
TEST(CleanerLintTest, IW604UnknownKeysAreWarnings) { ExpectRowsOfThisTest(); }

std::string PathOf(const Diagnostics& diags, const std::string& code) {
  for (const Diagnostic& d : diags.items()) {
    if (d.code == code) return d.path;
  }
  return "<code not found>";
}

TEST(CleanerLintTest, PathRootPrefixesEveryPointer) {
  // An embedded document's findings are re-rooted when merged into the
  // enclosing document's report.
  Diagnostics found;
  ASSERT_FALSE(clean::RulesFromJson(
                   Json::Parse(Rule(R"("detect": {"type": "teleport"},
                                        "repair": "drop")"))
                       .ValueOrDie(),
                   nullptr, &found)
                   .ok());
  Diagnostics diags;
  diags.Merge(found, "/params/rules");
  EXPECT_EQ(PathOf(diags, "IW704"), "/params/rules/rules/0/detect/type");
}

TEST(CleanerLintTest, LooksLikeCleanerRulesHeuristic) {
  const auto looks = [](const std::string& text) {
    return analysis::LooksLikeCleanerRules(Json::Parse(text).ValueOrDie());
  };
  EXPECT_TRUE(looks(
      R"({"rules": [{"label": "a", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "drop"}]})"));
  EXPECT_TRUE(looks(R"({"rules": []})"));
  EXPECT_FALSE(looks(R"({"polluters": []})"));
  EXPECT_FALSE(looks(R"({"scenario": "software_update"})"));
  EXPECT_FALSE(looks(R"({"sessions": [], "rules": []})"));
  EXPECT_FALSE(looks(R"({"expectations": [], "rules": []})"));
  EXPECT_FALSE(looks(R"([])"));
}

// --------------------------------------------------------------------
// IW616: the set_cleaner admin gate.
// --------------------------------------------------------------------

Diagnostics AnalyzeAdmin(const std::string& params) {
  auto json = Json::Parse(
      R"({"id": 1, "method": "set_cleaner", "params": )" + params + "}");
  EXPECT_TRUE(json.ok());
  analysis::AdminAnalyzeOptions options;
  options.known_methods = {"set_cleaner"};
  return analysis::AnalyzeAdminRequest(json.ValueOrDie(), options);
}

TEST(AdminCleanerLintTest, SetCleanerRequiresRules) {
  Diagnostics missing = AnalyzeAdmin(R"({"session": "s"})");
  EXPECT_TRUE(missing.HasCode("IW616")) << missing.ToReport();

  Diagnostics wrong_type = AnalyzeAdmin(R"({"session": "s", "rules": 7})");
  EXPECT_TRUE(wrong_type.HasCode("IW616")) << wrong_type.ToReport();

  // Null removes the cleaner: valid.
  Diagnostics removal = AnalyzeAdmin(R"({"session": "s", "rules": null})");
  EXPECT_FALSE(removal.HasErrors()) << removal.ToReport();
}

TEST(AdminCleanerLintTest, RulesObjectGetsFullIW70xAnalysis) {
  Diagnostics diags = AnalyzeAdmin(
      R"({"session": "s", "rules": {"rules": [
        {"label": "a", "column": "BPM",
         "detect": {"type": "teleport"}, "repair": "drop"}]}})");
  EXPECT_TRUE(diags.HasCode("IW704")) << diags.ToReport();
  EXPECT_EQ(PathOf(diags, "IW704"), "/params/rules/rules/0/detect/type");

  Diagnostics ok = AnalyzeAdmin(
      R"({"session": "s", "rules": {"rules": [
        {"label": "a", "column": "BPM",
         "detect": {"type": "not_null"}, "repair": "drop"}]}})");
  EXPECT_FALSE(ok.HasErrors()) << ok.ToReport();
}

// --------------------------------------------------------------------
// Soundness sweep: every document the loader accepts also runs, with
// equal output at two parallelism levels.
// --------------------------------------------------------------------

const std::vector<std::string>& ColumnFragments() {
  static const auto* fragments = new std::vector<std::string>{
      "\"BPM\"", "\"Distance\"", "\"Steps\"",
      "\"Heartrate\"",  // IW703
      "\"Time\"",
  };
  return *fragments;
}

const std::vector<std::string>& DetectFragments() {
  static const auto* fragments = new std::vector<std::string>{
      R"({"type": "range", "min": 0, "max": 100})",
      R"({"type": "range", "min": 100, "max": 0})",  // IW704
      R"({"type": "not_null"})",
      R"({"type": "regex", "pattern": "\\d+"})",
      R"({"type": "regex", "pattern": "(unclosed"})",  // IW704
      R"({"type": "type", "value_type": "double"})",
      R"({"type": "cross_field", "op": "le", "other": "Steps"})",
      R"({"type": "rate_of_change", "max_change": 10})",
      R"({"type": "stuck_at", "min_repeats": 3})",
      R"({"type": "stuck_at", "min_repeats": 99})",  // IW707 (warning)
      R"({"type": "teleport"})",                     // IW704
  };
  return *fragments;
}

const std::vector<std::string>& RepairFragments() {
  static const auto* fragments = new std::vector<std::string>{
      "\"drop\"", "\"set_null\"", "\"clamp\"", "\"last_good\"",
      "\"window_mean\"", "\"window_median\"",
      "\"mend\"",  // IW704
  };
  return *fragments;
}

const std::vector<std::string>& WhenFragments() {
  static const auto* fragments = new std::vector<std::string>{
      "",  // no guard
      R"(, "when": {"column": "Steps", "op": "gt", "value": 0})",
      R"(, "when": [{"column": "BPM", "op": "le", "value": 200}])",
      R"(, "when": {"column": "Ghost", "op": "gt", "value": 0})",  // IW703
      R"(, "when": {"column": "Steps", "op": "near", "value": 0})",  // IW704
  };
  return *fragments;
}

TEST(CleanerLintSoundnessTest, LintCleanDocumentsBindAndRun) {
  const SchemaPtr schema = data::WearableSchema();
  TupleVector stream;
  for (int i = 0; i < 50; ++i) {
    stream.emplace_back(
        schema, std::vector<Value>{Value(int64_t{1000 + 60 * i}),
                                   Value(i % 9 == 0 ? Value::Null()
                                                    : Value(60.0 + i % 30)),
                                   Value(int64_t{10 * i}),
                                   Value(0.01 * i),
                                   Value(1.5 * i),
                                   Value(0.5 * i)});
    stream.back().set_id(static_cast<TupleId>(i));
  }

  size_t accepted = 0, rejected = 0;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](const std::vector<std::string>& pool) {
      return pool[rng() % pool.size()];
    };
    std::string rules;
    const size_t count = 1 + rng() % 3;
    for (size_t i = 0; i < count; ++i) {
      if (i > 0) rules += ",";
      rules += R"({"label": "r)" + std::to_string(i) +
               R"(", "column": )" + pick(ColumnFragments()) +
               R"(, "detect": )" + pick(DetectFragments()) +
               R"(, "repair": )" + pick(RepairFragments()) +
               pick(WhenFragments()) + "}";
    }
    const std::string text = R"({"name": "generated", "history": )" +
                             std::to_string(2 + rng() % 30) +
                             R"(, "rules": [)" + rules + "]}";
    auto json = Json::Parse(text);
    ASSERT_TRUE(json.ok()) << text;

    Diagnostics diags;
    auto loaded = clean::RulesFromJson(json.ValueOrDie(), schema, &diags);
    ASSERT_EQ(loaded.ok(), !diags.HasErrors()) << diags.ToReport() << text;
    if (!loaded.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    // An accepted document runs over a stream with NULLs, at two
    // parallelism levels, deterministically.
    VectorSink p1, p2;
    ASSERT_TRUE(clean::CleanTuples(loaded.ValueOrDie(), stream, 1, &p1).ok())
        << text;
    ASSERT_TRUE(clean::CleanTuples(loaded.ValueOrDie(), stream, 2, &p2).ok())
        << text;
    ASSERT_EQ(p1.tuples().size(), p2.tuples().size()) << text;
  }
  EXPECT_GT(accepted, 20u);
  EXPECT_GT(rejected, 20u);
}

// --------------------------------------------------------------------
// Mutation robustness over the shipped documents: the loaders never
// crash, and every rejection is attributable to a node of the mutated
// document (or, for a missing key, to where the key belongs).
// --------------------------------------------------------------------

using Pointer = std::vector<std::string>;

std::string PointerText(const Pointer& pointer) {
  std::string text;
  for (const std::string& token : pointer) text += "/" + token;
  return text;
}

/// The node at `pointer` ("/a/0/b"), or null when it does not resolve.
const Json* Resolve(const Json& doc, const std::string& pointer) {
  const Json* node = &doc;
  size_t pos = 0;
  while (pos < pointer.size()) {
    const size_t next = pointer.find('/', pos + 1);
    const std::string token =
        pointer.substr(pos + 1, next == std::string::npos ? std::string::npos
                                                           : next - pos - 1);
    if (node->is_object()) {
      auto it = node->fields().find(token);
      if (it == node->fields().end()) return nullptr;
      node = &it->second;
    } else if (node->is_array()) {
      if (token.empty() ||
          token.find_first_not_of("0123456789") != std::string::npos) {
        return nullptr;
      }
      const size_t index = std::stoul(token);
      if (index >= node->items().size()) return nullptr;
      node = &node->items()[index];
    } else {
      return nullptr;
    }
    pos = next == std::string::npos ? pointer.size() : next;
  }
  return node;
}

/// The pointer names a node of `doc`, or a key missing from an object
/// of `doc` (a "missing key" finding names where the key belongs).
bool Attributable(const Json& doc, const std::string& pointer) {
  if (Resolve(doc, pointer) != nullptr) return true;
  const size_t slash = pointer.rfind('/');
  if (slash == std::string::npos) return false;
  const Json* parent = Resolve(doc, pointer.substr(0, slash));
  return parent != nullptr && parent->is_object() &&
         !parent->Has(pointer.substr(slash + 1));
}

void CollectPointers(const Json& node, Pointer* at, std::vector<Pointer>* out) {
  if (node.is_object()) {
    for (const auto& [key, child] : node.fields()) {
      at->push_back(key);
      out->push_back(*at);
      CollectPointers(child, at, out);
      at->pop_back();
    }
  } else if (node.is_array()) {
    for (size_t i = 0; i < node.items().size(); ++i) {
      at->push_back(std::to_string(i));
      out->push_back(*at);
      CollectPointers(node.items()[i], at, out);
      at->pop_back();
    }
  }
}

/// `doc` with the node at `pointer` replaced, or removed (object
/// members) when `replacement` is empty.
Json Rewrite(const Json& doc, const Pointer& pointer, size_t depth,
             const std::optional<Json>& replacement) {
  if (depth == pointer.size()) return *replacement;
  const std::string& token = pointer[depth];
  if (doc.is_array()) {
    Json out = doc;
    const size_t index = std::stoul(token);
    out.items()[index] =
        Rewrite(doc.items()[index], pointer, depth + 1, replacement);
    return out;
  }
  Json out = Json::MakeObject();
  for (const auto& [key, child] : doc.fields()) {
    if (key != token) {
      out.Set(key, child);
    } else if (depth + 1 < pointer.size() || replacement.has_value()) {
      out.Set(key, Rewrite(child, pointer, depth + 1, replacement));
    }
  }
  return out;
}

/// Every mutation of the node at `pointer`: drop it (object members),
/// retype it to each JSON kind, empty a string, and set a number to 0,
/// -1, 2.5, or 1e300.
std::vector<std::optional<Json>> MutationsOf(const Json& doc,
                                             const Pointer& pointer) {
  const Json& node = *Resolve(doc, PointerText(pointer));
  const Json* parent = Resolve(
      doc, PointerText(Pointer(pointer.begin(), pointer.end() - 1)));
  std::vector<std::optional<Json>> out;
  if (parent->is_object()) out.push_back(std::nullopt);
  for (Json kind : {Json(), Json(true), Json(7), Json("x"), Json::MakeArray(),
                    Json::MakeObject()}) {
    out.push_back(kind);
  }
  if (node.is_string()) out.push_back(Json(""));
  if (node.is_number()) {
    for (double v : {0.0, -1.0, 2.5, 1e300}) out.push_back(Json(v));
  }
  return out;
}

Json ReadShippedConfig(const std::string& name) {
  std::ifstream in(std::string(ICEWAFL_CONFIG_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  auto json = Json::Parse(text.str());
  EXPECT_TRUE(json.ok()) << name << ": " << json.status().ToString();
  return json.ok() ? json.ValueOrDie() : Json();
}

/// Loads one mutated document and checks the robustness contract;
/// returns whether it loaded.
bool CheckMutant(Loader loader, const Json& mutant, const std::string& what) {
  Diagnostics diags;
  const bool loaded = Load(loader, mutant, &diags);
  EXPECT_EQ(loaded, !diags.HasErrors()) << what << "\n" << diags.ToReport();
  if (!loaded) {
    const bool attributable = std::any_of(
        diags.items().begin(), diags.items().end(), [&](const Diagnostic& d) {
          return d.severity == DiagSeverity::kError &&
                 Attributable(mutant, d.path);
        });
    EXPECT_TRUE(attributable) << what << "\n" << diags.ToReport() << "\n"
                              << mutant.Dump();
  }
  return loaded;
}

TEST(ConfigMutationTest, ShippedDocumentsNeverCrashTheLoaders) {
  const std::pair<const char*, Loader> documents[] = {
      {"software_update_clean.json", Loader::kBoundCleaner},
      {"serve_sessions.json", Loader::kServe},
  };
  for (const auto& [name, loader] : documents) {
    SCOPED_TRACE(name);
    const Json doc = ReadShippedConfig(name);
    Diagnostics clean_diags;
    ASSERT_TRUE(Load(loader, doc, &clean_diags)) << clean_diags.ToReport();

    std::vector<Pointer> pointers;
    Pointer at;
    CollectPointers(doc, &at, &pointers);
    // Every single mutation of every node.
    size_t rejected = 0, total = 0;
    for (const Pointer& pointer : pointers) {
      for (const std::optional<Json>& mutation : MutationsOf(doc, pointer)) {
        const Json mutant = Rewrite(doc, pointer, 0, mutation);
        ++total;
        if (!CheckMutant(loader, mutant, PointerText(pointer))) ++rejected;
      }
    }
    EXPECT_GT(rejected, total / 4) << "mutations should mostly break a "
                                      "document";
    // Seeded pairs of stacked mutations.
    for (uint64_t seed = 0; seed < 200; ++seed) {
      std::mt19937_64 rng(seed);
      Json mutant = doc;
      std::string what = "seed " + std::to_string(seed) + ":";
      for (int step = 0; step < 2; ++step) {
        std::vector<Pointer> live;
        CollectPointers(mutant, &at, &live);
        if (live.empty()) break;
        const Pointer& pointer = live[rng() % live.size()];
        const auto mutations = MutationsOf(mutant, pointer);
        mutant =
            Rewrite(mutant, pointer, 0, mutations[rng() % mutations.size()]);
        what += " " + PointerText(pointer);
      }
      CheckMutant(loader, mutant, what);
    }
  }
}

}  // namespace
}  // namespace icewafl
