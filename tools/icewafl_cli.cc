// icewafl_cli — command-line front end to the pollution library.
//
// Subcommands:
//   pollute   --schema s.json --config pipeline.json --input in.csv
//             --output dirty.csv [--clean-output clean.csv]
//             [--log log.json] [--seed N] [--null-repr STR]
//   validate  --schema s.json --suite suite.json --input in.csv
//             [--null-repr STR]
//   generate  --dataset wearable|airquality --output out.csv
//             [--seed N] [--hours N] [--station NAME]
//   profile   --schema s.json --input in.csv [--null-repr STR]
//             [--suggest-suite out.json]  (column stats; optionally
//                                          writes a suggested suite)
//   schema    --dataset wearable|airquality        (prints schema JSON)
//   lint      PIPELINE.json [--schema s.json] [--suite suite.json]
//             [--stream-start T] [--stream-end T] [--json]
//             (static analysis; no stream is executed)
//   run       --scenario random_temporal|software_update|network_delay|
//                         temporal_noise|temporal_scale
//             [--seed N] [--parallelism P] [--output OUT.csv]
//             [--metrics-out METRICS.prom] [--trace-out TRACE.json]
//             (generates the scenario's dataset, streams it through the
//              pipelined runtime, validates the matching expectation
//              suite, and optionally exports Prometheus metrics and a
//              Chrome trace_event JSON)
//   clean     --rules R.json --schema s.json --input in.csv
//             [--output out.csv] [--log repairs.json] [--parallelism P]
//             [--metrics-out F.prom] [--null-repr STR]
//             (rule-based stream repair: loads the cleaning document —
//              IW70x — against the schema, then detects and repairs;
//              output is byte-identical at every --parallelism)
//             OR
//             --scenario software_update|random_temporal [--seed N]
//             [--parallelism P] [--output out.csv] [--report F.json]
//             [--metrics-out F.prom] [--window-seconds N]
//             (the closed pollute -> detect -> clean -> re-validate
//              loop with the scenario's stock cleaner; prints the
//              per-family precision/recall/F1 + repair-accuracy report)
//   serve     --scenario NAME [--port P] [--host H] [--seed N]
//             [--parallelism P] [--min-subscribers N] [--max-sessions N]
//             [--queue-capacity N] [--workers N]
//             [--slow-consumer block|drop_oldest|disconnect]
//             [--config serve.json] [--metrics-out F.prom]
//             [--admin-port P]
//             (pollution as a service: binds a TCP port and hosts one
//              or more named sessions — a --config document may carry a
//              "sessions" array — streaming each session's polluted
//              runs to its subscribers over a shared worker pool; the
//              config is checked — IW6xx — before the socket opens.
//              The flags build a one-entry "sessions" document;
//              --max-sessions sets that session's max_runs.
//              Every session runs a versioned plan snapshot; with
//              --admin-port the live control plane is exposed on its
//              own port for `icewafl_cli admin`)
//   admin     METHOD --connect HOST:PORT [--session NAME]
//             [--scenario NAME] [--pipeline P.json] [--rules R.json]
//             [--rate R] [--json]
//             (control plane of a running serve: METHOD is one of
//              list_sessions, get_config, swap_pipeline, set_rate,
//              stop_session, create_session, get_metrics, set_cleaner.
//              set_cleaner installs --rules R.json as the session's
//              live cleaner — checked IW70x against the session's
//              schema — or removes it with `--rules null`. Requests are
//              linted client-side — IW61x — before the connection, and
//              again server-side; swapped pipeline documents pass the
//              full IW1xx..IW4xx analysis against the session's schema
//              before the new plan version is published. Running
//              subscribers keep streaming across a swap: in-flight rows
//              finish under the old plan, the next rows use the new one)
//   tail      --connect HOST:PORT [--session NAME] [--limit N]
//             [--csv-out OUT.csv]
//             (subscribes to one named session of a serve instance;
//              writes the received stream as CSV — byte-identical to
//              `run --output` of the same scenario/seed — to --csv-out
//              or stdout)
//
// Exit code: 0 on success (for `validate`: also when all expectations
// pass; for `lint`: no error-severity findings), 1 on failure, 2 on
// usage errors — including unknown flags and unknown subcommands, which
// are always usage errors, never silently ignored. `run` exits 0 even
// when the suite flags errors — a polluted stream is SUPPOSED to
// violate its expectations. `admin` follows the same contract: a
// malformed invocation (bad flags, client-side IW61x lint errors)
// exits 2 before connecting; a request the server rejects — e.g. a
// swap whose pipeline fails the lint gate — exits 1 with the
// Diagnostics JSON on stderr. `--version` prints the version and
// exits 0.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "analysis/analyzer.h"
#include "clean/cleaner.h"
#include "clean/config.h"
#include "core/config.h"
#include "core/process.h"
#include "data/airquality.h"
#include "data/wearable.h"
#include "dq/config.h"
#include "dq/profile.h"
#include "io/csv.h"
#include "io/schema_json.h"
#include "net/admin.h"
#include "net/client.h"
#include "net/serve_config.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenarios/closed_loop.h"
#include "scenarios/scenarios.h"

namespace {

using namespace icewafl;  // NOLINT

constexpr const char* kVersion = "0.6.0";

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  icewafl_cli pollute --schema S.json --config P.json --input IN.csv\n"
      "              --output OUT.csv [--clean-output C.csv] [--log L.json]\n"
      "              [--seed N] [--null-repr STR]\n"
      "  icewafl_cli validate --schema S.json --suite Q.json --input IN.csv\n"
      "              [--null-repr STR]\n"
      "  icewafl_cli generate --dataset wearable|airquality --output OUT.csv\n"
      "              [--seed N] [--hours N] [--station NAME]\n"
      "  icewafl_cli profile --schema S.json --input IN.csv\n"
      "              [--suggest-suite]\n"
      "  icewafl_cli schema --dataset wearable|airquality\n"
      "  icewafl_cli lint PIPELINE.json [--schema S.json] [--suite Q.json]\n"
      "              [--stream-start T] [--stream-end T] [--json]\n"
      "  icewafl_cli run --scenario random_temporal|software_update|\n"
      "              network_delay|temporal_noise|temporal_scale\n"
      "              [--seed N] [--parallelism P] [--output OUT.csv]\n"
      "              [--metrics-out F.prom] [--trace-out F.json]\n"
      "  icewafl_cli clean --rules R.json --schema S.json --input IN.csv\n"
      "              [--output OUT.csv] [--log L.json] [--parallelism P]\n"
      "              [--metrics-out F.prom] [--null-repr STR]\n"
      "  icewafl_cli clean --scenario software_update|random_temporal\n"
      "              [--seed N] [--parallelism P] [--output OUT.csv]\n"
      "              [--report F.json] [--metrics-out F.prom]\n"
      "              [--window-seconds N]\n"
      "  icewafl_cli serve --scenario NAME [--port P] [--host H] [--seed N]\n"
      "              [--parallelism P] [--min-subscribers N]\n"
      "              [--max-sessions N] [--queue-capacity N] [--workers N]\n"
      "              [--slow-consumer block|drop_oldest|disconnect]\n"
      "              [--config serve.json] [--metrics-out F.prom]\n"
      "              [--admin-port P]\n"
      "  icewafl_cli admin list_sessions|get_config|swap_pipeline|set_rate|\n"
      "              stop_session|create_session|get_metrics|set_cleaner\n"
      "              --connect HOST:PORT [--session NAME] [--scenario NAME]\n"
      "              [--pipeline P.json] [--rules R.json|null] [--rate R]\n"
      "              [--json]\n"
      "  icewafl_cli tail --connect HOST:PORT [--session NAME] [--limit N]\n"
      "              [--csv-out OUT.csv]\n"
      "  icewafl_cli --version\n");
  return 2;
}

/// Rejects flags outside the subcommand's documented surface: a typoed
/// flag must exit 2, not be silently dropped.
bool CheckFlags(const char* command,
                const std::map<std::string, std::string>& flags,
                std::initializer_list<const char*> allowed) {
  for (const auto& entry : flags) {
    bool known = false;
    for (const char* name : allowed) {
      if (entry.first == name) known = true;
    }
    if (!known) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", command,
                   entry.first.c_str());
      return false;
    }
  }
  return true;
}

/// Strict integer flag parse; trailing garbage is a usage error.
bool ParseInt64Flag(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<int64_t>(value);
  return true;
}

/// Reads integer flag `--name` with ParseInt64Flag into `out`, leaving
/// `*out` (the default) when the flag is absent. A malformed value, one
/// below `min` (>= 0), or one that does not fit T prints a usage error
/// and returns false.
template <typename T>
bool ReadIntFlag(const std::map<std::string, std::string>& flags,
                 const char* command, const char* name, T min, T* out) {
  auto it = flags.find(name);
  if (it == flags.end()) return true;
  int64_t value = 0;
  if (!ParseInt64Flag(it->second, &value) ||
      value < static_cast<int64_t>(min) ||
      static_cast<uint64_t>(value) >
          static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    std::fprintf(stderr, "%s: --%s needs an integer >= %lld, got '%s'\n",
                 command, name, static_cast<long long>(min),
                 it->second.c_str());
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// Parses --key value pairs starting at argv[first]. `--json` is the one
/// boolean flag and takes no value.
bool ParseFlags(int argc, char** argv, int first,
                std::map<std::string, std::string>* out) {
  for (int i = first; i < argc; ++i) {
    const char* key = argv[i];
    if (std::strncmp(key, "--", 2) != 0) return false;
    // insert_or_assign with explicit std::string values dodges a GCC 12
    // -Wrestrict false positive (PR105651) on operator[] + char* assign.
    if (std::strcmp(key, "--json") == 0) {
      out->insert_or_assign(std::string("json"), std::string("1"));
      continue;
    }
    if (i + 1 >= argc) return false;
    out->insert_or_assign(std::string(key + 2), std::string(argv[++i]));
  }
  return true;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: '" + path + "'");
  out << text;
  out.flush();
  if (!out) return Status::IOError("write failed: '" + path + "'");
  return Status::OK();
}

int RunPollute(const std::map<std::string, std::string>& flags) {
  for (const char* required : {"schema", "config", "input", "output"}) {
    if (!flags.count(required)) {
      std::fprintf(stderr, "pollute: missing --%s\n", required);
      return 2;
    }
  }
  uint64_t seed = 42;
  if (!ReadIntFlag<uint64_t>(flags, "pollute", "seed", 0, &seed)) return 2;
  CsvOptions csv;
  csv.null_repr = FlagOr(flags, "null-repr", "");
  auto schema = SchemaFromJsonFile(flags.at("schema"));
  if (!schema.ok()) return Fail(schema.status());
  auto pipeline = PipelineFromConfigFile(flags.at("config"));
  if (!pipeline.ok()) return Fail(pipeline.status());
  auto tuples = ReadCsvFile(schema.ValueOrDie(), flags.at("input"), csv);
  if (!tuples.ok()) return Fail(tuples.status());

  VectorSource source(schema.ValueOrDie(), std::move(tuples).ValueOrDie());
  auto result = PollutionProcess::Pollute(
      &source, std::move(pipeline).ValueOrDie(), seed);
  if (!result.ok()) return Fail(result.status());
  const PollutionResult& r = result.ValueOrDie();

  Status st = WriteCsvFile(r.schema, r.polluted, flags.at("output"), csv);
  if (!st.ok()) return Fail(st);
  if (flags.count("clean-output")) {
    st = WriteCsvFile(r.schema, r.clean, flags.at("clean-output"), csv);
    if (!st.ok()) return Fail(st);
  }
  if (flags.count("log")) {
    st = WriteTextFile(flags.at("log"), r.log.ToJson().DumpPretty());
    if (!st.ok()) return Fail(st);
  }
  std::printf("polluted %zu tuples, %zu injections, seed %llu\n",
              r.polluted.size(), r.log.size(),
              static_cast<unsigned long long>(seed));
  return 0;
}

int RunValidate(const std::map<std::string, std::string>& flags) {
  for (const char* required : {"schema", "suite", "input"}) {
    if (!flags.count(required)) {
      std::fprintf(stderr, "validate: missing --%s\n", required);
      return 2;
    }
  }
  CsvOptions csv;
  csv.null_repr = FlagOr(flags, "null-repr", "");
  auto schema = SchemaFromJsonFile(flags.at("schema"));
  if (!schema.ok()) return Fail(schema.status());
  auto suite = dq::SuiteFromConfigFile(flags.at("suite"));
  if (!suite.ok()) return Fail(suite.status());
  auto tuples = ReadCsvFile(schema.ValueOrDie(), flags.at("input"), csv);
  if (!tuples.ok()) return Fail(tuples.status());
  auto result = suite.ValueOrDie().Validate(tuples.ValueOrDie());
  if (!result.ok()) return Fail(result.status());
  std::printf("%s", result.ValueOrDie().ToReport().c_str());
  return result.ValueOrDie().success() ? 0 : 1;
}

int RunGenerate(const std::map<std::string, std::string>& flags) {
  if (!flags.count("dataset") || !flags.count("output")) {
    std::fprintf(stderr, "generate: need --dataset and --output\n");
    return 2;
  }
  const std::string dataset = flags.at("dataset");
  uint64_t seed = 0;
  size_t hours = 0;
  if (!ReadIntFlag<uint64_t>(flags, "generate", "seed", 0, &seed) ||
      !ReadIntFlag<size_t>(flags, "generate", "hours", 1, &hours)) {
    return 2;
  }
  Result<TupleVector> tuples = Status::Internal("unset");
  SchemaPtr schema;
  if (dataset == "wearable") {
    data::WearableOptions options;
    if (seed != 0) options.seed = seed;
    tuples = data::GenerateWearable(options);
    schema = data::WearableSchema();
  } else if (dataset == "airquality") {
    data::AirQualityOptions options;
    if (seed != 0) options.seed = seed;
    if (hours != 0) options.hours = hours;
    options.station = FlagOr(flags, "station", options.station);
    tuples = data::GenerateAirQuality(options);
    schema = data::AirQualitySchema();
  } else {
    std::fprintf(stderr, "unknown dataset: '%s'\n", dataset.c_str());
    return 2;
  }
  if (!tuples.ok()) return Fail(tuples.status());
  Status st =
      WriteCsvFile(schema, tuples.ValueOrDie(), flags.at("output"));
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu tuples to %s\n", tuples.ValueOrDie().size(),
              flags.at("output").c_str());
  return 0;
}

int RunProfile(const std::map<std::string, std::string>& flags) {
  for (const char* required : {"schema", "input"}) {
    if (!flags.count(required)) {
      std::fprintf(stderr, "profile: missing --%s\n", required);
      return 2;
    }
  }
  CsvOptions csv;
  csv.null_repr = FlagOr(flags, "null-repr", "");
  auto schema = SchemaFromJsonFile(flags.at("schema"));
  if (!schema.ok()) return Fail(schema.status());
  auto tuples = ReadCsvFile(schema.ValueOrDie(), flags.at("input"), csv);
  if (!tuples.ok()) return Fail(tuples.status());
  auto profiles = dq::ProfileColumns(tuples.ValueOrDie());
  if (!profiles.ok()) return Fail(profiles.status());
  std::printf("%s", dq::ProfilesToReport(profiles.ValueOrDie()).c_str());
  if (flags.count("suggest-suite")) {
    auto suite = dq::SuggestSuite(tuples.ValueOrDie());
    if (!suite.ok()) return Fail(suite.status());
    // Round-trip sanity: validate the stream against its own suite.
    auto self_check = suite.ValueOrDie().Validate(tuples.ValueOrDie());
    if (!self_check.ok()) return Fail(self_check.status());
    Status st = WriteTextFile(flags.at("suggest-suite"),
                              suite.ValueOrDie().ToJson().DumpPretty());
    if (!st.ok()) return Fail(st);
    std::printf("\nwrote %zu suggested expectations to %s "
                "(self-check: %s)\n",
                suite.ValueOrDie().size(),
                flags.at("suggest-suite").c_str(),
                self_check.ValueOrDie().success() ? "pass" : "FAIL");
  }
  return 0;
}

int RunSchema(const std::map<std::string, std::string>& flags) {
  const std::string dataset = FlagOr(flags, "dataset", "");
  SchemaPtr schema;
  if (dataset == "wearable") {
    schema = data::WearableSchema();
  } else if (dataset == "airquality") {
    schema = data::AirQualitySchema();
  } else {
    std::fprintf(stderr, "unknown dataset: '%s'\n", dataset.c_str());
    return 2;
  }
  std::printf("%s\n", SchemaToJson(*schema).DumpPretty().c_str());
  return 0;
}

Result<Json> ReadJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return Json::Parse(buf.str());
}

int RunLint(const std::string& config_path,
            const std::map<std::string, std::string>& flags) {
  auto pipeline_json = ReadJsonFile(config_path);
  if (!pipeline_json.ok()) return Fail(pipeline_json.status());

  analysis::AnalyzeOptions options;
  if (flags.count("schema")) {
    auto schema = SchemaFromJsonFile(flags.at("schema"));
    if (!schema.ok()) return Fail(schema.status());
    options.schema = std::move(schema).ValueOrDie();
  }
  for (const char* bound : {"stream-start", "stream-end"}) {
    if (!flags.count(bound)) continue;
    const std::string& text = flags.at(bound);
    auto parsed = ParseTimestamp(text);
    Timestamp value;
    if (parsed.ok()) {
      value = parsed.ValueOrDie();
    } else {
      char* end = nullptr;
      value = std::strtoll(text.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') return Fail(parsed.status());
    }
    if (std::strcmp(bound, "stream-start") == 0) {
      options.stream_start = value;
    } else {
      options.stream_end = value;
    }
  }

  Diagnostics diags;
  if (analysis::LooksLikeServeConfig(pipeline_json.ValueOrDie())) {
    // A serve document (sessions, no polluters): its loader reports the
    // IW6xx surface.
    (void)net::ServeConfig::FromJson(pipeline_json.ValueOrDie(),
                                     scenarios::ScenarioNames(), &diags);
  } else if (analysis::LooksLikeCleanerRules(pipeline_json.ValueOrDie())) {
    // A cleaning document (rules with repairs): its loader reports the
    // IW70x surface, bound against --schema when given.
    (void)clean::RulesFromJson(pipeline_json.ValueOrDie(), options.schema,
                               &diags);
  } else if (flags.count("suite")) {
    auto suite_json = ReadJsonFile(flags.at("suite"));
    if (!suite_json.ok()) return Fail(suite_json.status());
    diags = analysis::AnalyzeArtifacts(pipeline_json.ValueOrDie(),
                                       &suite_json.ValueOrDie(), options);
  } else {
    diags = analysis::AnalyzePipeline(pipeline_json.ValueOrDie(), options);
  }

  if (flags.count("json")) {
    std::printf("%s\n", diags.ToJson().DumpPretty().c_str());
  } else {
    std::printf("%s", diags.ToReport().c_str());
  }
  return diags.HasErrors() ? 1 : 0;
}

int RunScenario(const std::map<std::string, std::string>& flags) {
  if (!flags.count("scenario")) {
    std::fprintf(stderr, "run: missing --scenario\n");
    return 2;
  }
  const std::string name = flags.at("scenario");
  uint64_t seed = 42;
  int parallelism = 1;
  if (!ReadIntFlag<uint64_t>(flags, "run", "seed", 0, &seed) ||
      !ReadIntFlag(flags, "run", "parallelism", 1, &parallelism)) {
    return 2;
  }

  // Resolve the scenario: pipeline, dataset, suite, and stream bounds —
  // the same single definition `serve` uses, which is what makes the
  // served stream byte-identical to this offline run.
  auto resolved = scenarios::ResolveScenario(name, seed);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    return 2;
  }
  scenarios::ResolvedScenario& scenario = resolved.ValueOrDie();

  // Observability is opt-in: the registry/recorder are only wired into
  // the run when an export path asks for them, so a plain run pays
  // nothing but a null check per batch.
  obs::MetricRegistry registry;
  obs::TraceRecorder trace;
  obs::MetricRegistry* metrics_ptr =
      flags.count("metrics-out") ? &registry : nullptr;
  obs::TraceRecorder* trace_ptr = flags.count("trace-out") ? &trace : nullptr;

  const size_t clean_size = scenario.clean.size();
  VectorSource source(scenario.schema, std::move(scenario.clean));
  RuntimeStats stats;
  VectorSink polluted;
  Status run_status = scenarios::StreamPipelineToSink(
      &source, scenario.pipeline, seed, parallelism, &polluted, &stats,
      metrics_ptr, trace_ptr, scenario.stream_start, scenario.stream_end);
  if (!run_status.ok()) return Fail(run_status);

  std::printf("scenario %s: %zu tuples in, %zu out (seed %llu, "
              "parallelism %d)\n",
              name.c_str(), clean_size, polluted.tuples().size(),
              static_cast<unsigned long long>(seed), parallelism);
  std::printf("%s\n", stats.ToString().c_str());

  if (scenario.suite.has_value()) {
    auto validation = scenario.suite->Validate(polluted.tuples());
    if (!validation.ok()) return Fail(validation.status());
    std::printf("%s", validation.ValueOrDie().ToReport().c_str());
    dq::PublishSuiteResult(validation.ValueOrDie(), scenario.suite->name(),
                           metrics_ptr);
  }

  if (flags.count("output")) {
    Status st = WriteCsvFile(scenario.schema, polluted.tuples(),
                             flags.at("output"));
    if (!st.ok()) return Fail(st);
  }
  if (metrics_ptr != nullptr) {
    Status st =
        WriteTextFile(flags.at("metrics-out"), registry.ToPrometheusText());
    if (!st.ok()) return Fail(st);
    std::printf("wrote %zu metric series to %s\n", registry.size(),
                flags.at("metrics-out").c_str());
  }
  if (trace_ptr != nullptr) {
    Status st =
        WriteTextFile(flags.at("trace-out"), trace.ToChromeTraceJson());
    if (!st.ok()) return Fail(st);
    std::printf("wrote %zu trace events to %s\n", trace.size(),
                flags.at("trace-out").c_str());
  }
  return 0;
}

/// The closed-loop scenario mode of `clean`: pollute with the stock
/// pipeline, repair with the stock cleaner, score against the tagged
/// ground truth, re-validate windowed.
int RunCleanScenario(const std::map<std::string, std::string>& flags) {
  const std::string name = flags.at("scenario");
  scenarios::ClosedLoopOptions options;
  if (!ReadIntFlag<uint64_t>(flags, "clean", "seed", 0, &options.seed) ||
      !ReadIntFlag(flags, "clean", "parallelism", 1, &options.parallelism) ||
      !ReadIntFlag<int64_t>(flags, "clean", "window-seconds", 1,
                            &options.window_seconds)) {
    return 2;
  }

  obs::MetricRegistry registry;
  obs::MetricRegistry* metrics_ptr =
      flags.count("metrics-out") ? &registry : nullptr;
  TupleVector cleaned;
  auto report = scenarios::RunClosedLoop(name, options, metrics_ptr,
                                         &cleaned);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;  // unknown scenario / no stock cleaner: a usage error
  }
  const scenarios::ClosedLoopReport& r = report.ValueOrDie();

  std::printf("closed loop %s: %llu rows, %llu injections, %llu "
              "detections (seed %llu, parallelism %d)\n",
              name.c_str(),
              static_cast<unsigned long long>(r.polluted_rows),
              static_cast<unsigned long long>(r.injections),
              static_cast<unsigned long long>(r.detections),
              static_cast<unsigned long long>(options.seed),
              options.parallelism);
  for (const scenarios::FamilyScore& f : r.families) {
    std::printf("  %-24s P %.3f  R %.3f  F1 %.3f  (gt %llu%s)\n",
                f.family.c_str(), f.precision, f.recall, f.f1,
                static_cast<unsigned long long>(f.ground_truth),
                f.deterministic ? "" : ", random");
  }
  std::printf("  min deterministic F1 %.3f, repair accuracy %.3f "
              "(%llu/%llu scored)\n",
              r.MinDeterministicF1(), r.repair_accuracy,
              static_cast<unsigned long long>(r.repairs_accurate),
              static_cast<unsigned long long>(r.repairs_scored));

  if (flags.count("output")) {
    auto resolved = scenarios::ResolveScenario(name, options.dataset_seed);
    if (!resolved.ok()) return Fail(resolved.status());
    Status st = WriteCsvFile(resolved.ValueOrDie().schema, cleaned,
                             flags.at("output"));
    if (!st.ok()) return Fail(st);
  }
  if (flags.count("report")) {
    Status st =
        WriteTextFile(flags.at("report"), r.ToJson().DumpPretty());
    if (!st.ok()) return Fail(st);
    std::printf("wrote closed-loop report to %s\n",
                flags.at("report").c_str());
  }
  if (metrics_ptr != nullptr) {
    Status st =
        WriteTextFile(flags.at("metrics-out"), registry.ToPrometheusText());
    if (!st.ok()) return Fail(st);
  }
  return 0;
}

int RunClean(const std::map<std::string, std::string>& flags) {
  if (flags.count("scenario")) return RunCleanScenario(flags);
  for (const char* required : {"rules", "schema", "input"}) {
    if (!flags.count(required)) {
      std::fprintf(stderr, "clean: missing --%s (or use --scenario)\n",
                   required);
      return 2;
    }
  }
  int parallelism = 1;
  if (!ReadIntFlag(flags, "clean", "parallelism", 1, &parallelism)) return 2;
  CsvOptions csv;
  csv.null_repr = FlagOr(flags, "null-repr", "");
  auto schema = SchemaFromJsonFile(flags.at("schema"));
  if (!schema.ok()) return Fail(schema.status());
  auto rules_json = ReadJsonFile(flags.at("rules"));
  if (!rules_json.ok()) return Fail(rules_json.status());

  // A broken document exits 1 with the loader's report before any
  // tuple is read.
  Diagnostics diags;
  auto rules = clean::RulesFromJson(rules_json.ValueOrDie(),
                                    schema.ValueOrDie(), &diags);
  if (!diags.empty()) std::fprintf(stderr, "%s", diags.ToReport().c_str());
  if (!rules.ok()) return 1;
  auto tuples = ReadCsvFile(schema.ValueOrDie(), flags.at("input"), csv);
  if (!tuples.ok()) return Fail(tuples.status());

  obs::MetricRegistry registry;
  obs::MetricRegistry* metrics_ptr =
      flags.count("metrics-out") ? &registry : nullptr;
  const size_t rows_in = tuples.ValueOrDie().size();
  VectorSink cleaned;
  clean::RepairLog log;
  clean::CleanStats stats;
  Status st = clean::CleanTuples(rules.ValueOrDie(),
                                 std::move(tuples).ValueOrDie(), parallelism,
                                 &cleaned, metrics_ptr, &log, &stats);
  if (!st.ok()) return Fail(st);

  std::printf("cleaned %zu tuples: %llu kept, %llu dropped, %llu rule "
              "firings, %llu repairs\n",
              rows_in, static_cast<unsigned long long>(stats.tuples_out),
              static_cast<unsigned long long>(stats.tuples_dropped),
              static_cast<unsigned long long>(stats.fired),
              static_cast<unsigned long long>(stats.repaired));
  for (const clean::RuleStats& rule : stats.rules) {
    std::printf("  %-24s fired %llu, repaired %llu, dropped %llu\n",
                rule.label.c_str(),
                static_cast<unsigned long long>(rule.fired),
                static_cast<unsigned long long>(rule.repaired),
                static_cast<unsigned long long>(rule.dropped));
  }

  if (flags.count("output")) {
    st = WriteCsvFile(schema.ValueOrDie(), cleaned.tuples(),
                      flags.at("output"), csv);
    if (!st.ok()) return Fail(st);
  }
  if (flags.count("log")) {
    st = WriteTextFile(flags.at("log"), log.ToJson().DumpPretty());
    if (!st.ok()) return Fail(st);
  }
  if (metrics_ptr != nullptr) {
    st = WriteTextFile(flags.at("metrics-out"), registry.ToPrometheusText());
    if (!st.ok()) return Fail(st);
  }
  return 0;
}

/// Builds the serve JSON document from --config (file) or the flag set
/// (a one-entry "sessions" document), so both paths go through the same
/// ServeConfig loader.
int BuildServeJson(const std::map<std::string, std::string>& flags,
                   Json* out) {
  if (flags.count("config")) {
    auto json = ReadJsonFile(flags.at("config"));
    if (!json.ok()) return Fail(json.status());
    *out = std::move(json).ValueOrDie();
    return 0;
  }
  Json doc = Json::MakeObject();
  Json session = Json::MakeObject();
  session.Set("scenario", flags.at("scenario"));
  if (flags.count("host")) doc.Set("host", flags.at("host"));
  struct IntFlag {
    const char* flag;
    const char* key;
    bool per_session;
  };
  for (const IntFlag& f :
       {IntFlag{"port", "port", false},
        IntFlag{"admin-port", "admin_port", false},
        IntFlag{"seed", "seed", true},
        IntFlag{"parallelism", "parallelism", true},
        IntFlag{"min-subscribers", "min_subscribers", true},
        IntFlag{"max-sessions", "max_runs", true},
        IntFlag{"queue-capacity", "queue_capacity", false},
        IntFlag{"workers", "workers", false}}) {
    if (!flags.count(f.flag)) continue;
    int64_t value = 0;
    if (!ParseInt64Flag(flags.at(f.flag), &value)) {
      std::fprintf(stderr, "serve: --%s needs an integer, got '%s'\n", f.flag,
                   flags.at(f.flag).c_str());
      return 2;
    }
    (f.per_session ? session : doc).Set(f.key, Json(value));
  }
  if (flags.count("slow-consumer")) {
    doc.Set("slow_consumer", flags.at("slow-consumer"));
  }
  Json sessions = Json::MakeArray();
  sessions.Append(std::move(session));
  doc.Set("sessions", std::move(sessions));
  *out = std::move(doc);
  return 0;
}

/// Compiles one session entry into a versioned plan and registers it:
/// the session serves scenarios::ServePlanToSink, so SwapPlan /
/// `admin swap_pipeline` apply live.
Status AddPlanSession(net::PollutionServer* server,
                      const net::SessionConfig& entry) {
  auto plan = scenarios::BuildScenarioPlan(entry.scenario, entry.seed,
                                           entry.parallelism);
  if (!plan.ok()) return plan.status();
  net::SessionOptions options = entry.ToSessionOptions();
  options.plan = std::move(plan).ValueOrDie();
  if (!entry.cleaner.is_null()) {
    // The entry's cleaning document, schema-validated like a
    // set_cleaner mutation would be.
    auto with_cleaner =
        scenarios::BuildPlanWithCleaner(*options.plan, entry.cleaner);
    if (!with_cleaner.ok()) return with_cleaner.status();
    options.plan = std::move(with_cleaner).ValueOrDie();
  }
  return server->AddSession(entry.name, nullptr, scenarios::ServePlanToSink,
                            std::move(options));
}

/// The admin channel's mutation hooks: compile swap_pipeline /
/// create_session params through the scenarios layer, lint-gating
/// pipeline documents (full IW1xx..IW4xx analysis against the session's
/// schema and stream bounds) before any snapshot exists to publish.
net::AdminHooks MakeAdminHooks(net::PollutionServer* server) {
  net::AdminHooks hooks;
  hooks.known_scenarios = scenarios::ScenarioNames();
  hooks.compile_swap = [](const PlanSnapshot& current, const Json& params,
                          Json* diagnostics)
      -> Result<std::shared_ptr<PlanSnapshot>> {
    if (params.Has("scenario")) {
      return scenarios::BuildScenarioPlan(params.GetString("scenario", ""),
                                          current.seed, current.parallelism,
                                          current.tuples_per_sec);
    }
    auto pipeline_json = params.Get("pipeline");
    if (!pipeline_json.ok()) return pipeline_json.status();
    analysis::AnalyzeOptions options;
    options.schema = current.schema;
    options.stream_start = current.stream_start;
    options.stream_end = current.stream_end;
    Diagnostics diags =
        analysis::AnalyzePipeline(pipeline_json.ValueOrDie(), options);
    if (diags.HasErrors()) {
      *diagnostics = diags.ToJson();
      return Status::InvalidArgument("pipeline rejected by lint:\n" +
                                     diags.ToReport());
    }
    return scenarios::BuildPlanFromPipelineJson(current,
                                                pipeline_json.ValueOrDie());
  };
  hooks.compile_cleaner = [](const PlanSnapshot& current, const Json& params,
                             Json* diagnostics)
      -> Result<std::shared_ptr<PlanSnapshot>> {
    Json rules;
    if (params.Has("rules")) rules = params.Get("rules").ValueOrDie();
    // The envelope gate already ran the schemaless load; binding
    // against the session's schema catches unknown columns (IW703).
    Diagnostics diags;
    auto next = scenarios::BuildPlanWithCleaner(current, rules, &diags);
    if (!next.ok()) *diagnostics = diags.ToJson();
    return next;
  };
  hooks.create_session = [server](const Json& params,
                                  Json* diagnostics) -> Status {
    auto entry_json = params.Get("session");
    if (!entry_json.ok()) return entry_json.status();
    // Route the entry through the same loader a --config sessions[]
    // entry gets.
    Json doc = Json::MakeObject();
    Json sessions = Json::MakeArray();
    sessions.Append(entry_json.ValueOrDie());
    doc.Set("sessions", std::move(sessions));
    Diagnostics diags;
    auto config =
        net::ServeConfig::FromJson(doc, scenarios::ScenarioNames(), &diags);
    if (!config.ok()) {
      *diagnostics = diags.ToJson();
      return config.status();
    }
    return AddPlanSession(server, config.ValueOrDie().sessions[0]);
  };
  return hooks;
}

int RunServe(const std::map<std::string, std::string>& flags) {
  if (!flags.count("scenario") && !flags.count("config")) {
    std::fprintf(stderr, "serve: need --scenario or --config\n");
    return 2;
  }
  Json doc;
  if (const int rc = BuildServeJson(flags, &doc); rc != 0) return rc;

  // Checked before the socket opens, by the same loader `icewafl_cli
  // lint` runs on a serve document.
  Diagnostics diags;
  auto config =
      net::ServeConfig::FromJson(doc, scenarios::ScenarioNames(), &diags);
  if (!diags.empty()) std::fprintf(stderr, "%s", diags.ToReport().c_str());
  if (!config.ok()) return 2;
  const net::ServeConfig& serve = config.ValueOrDie();

  // The admin channel reports metrics (get_metrics, plan_version), so
  // enabling it wires the registry in even without --metrics-out.
  obs::MetricRegistry registry;
  obs::MetricRegistry* metrics_ptr =
      (flags.count("metrics-out") || serve.admin_port >= 0) ? &registry
                                                            : nullptr;

  net::PollutionServer server(serve.ToServerOptions(metrics_ptr));
  for (const net::SessionConfig& entry : serve.sessions) {
    Status st = AddPlanSession(&server, entry);
    if (!st.ok()) return Fail(st);
  }
  Status st = server.Start();
  if (!st.ok()) return Fail(st);

  std::unique_ptr<net::AdminServer> admin;
  if (serve.admin_port >= 0) {
    net::AdminOptions admin_options;
    admin_options.host = serve.host;
    admin_options.port = static_cast<uint16_t>(serve.admin_port);
    admin = std::make_unique<net::AdminServer>(
        &server, metrics_ptr, admin_options, MakeAdminHooks(&server));
    st = admin->Start();
    if (!st.ok()) {
      server.RequestStop();
      server.Wait();
      return Fail(st);
    }
  }

  std::string desc;
  for (const net::SessionConfig& entry : serve.sessions) {
    if (!desc.empty()) desc += ", ";
    desc += entry.name == entry.scenario ? entry.scenario
                                         : entry.name + "=" + entry.scenario;
  }
  std::printf("serving scenario %s on %s:%u (workers %d, queue %zu, "
              "slow-consumer %s)\n",
              desc.c_str(), serve.host.c_str(),
              static_cast<unsigned>(server.port()), serve.workers,
              serve.queue_capacity,
              net::SlowConsumerPolicyName(serve.slow_consumer));
  if (admin != nullptr) {
    std::printf("admin channel on %s:%u\n", serve.host.c_str(),
                static_cast<unsigned>(admin->port()));
  }
  for (const net::SessionConfig& entry : serve.sessions) {
    std::printf("  session %s: seed %llu, parallelism %d, "
                "min-subscribers %d, %s\n",
                entry.name.c_str(),
                static_cast<unsigned long long>(entry.seed),
                entry.parallelism, entry.min_subscribers,
                entry.max_runs == 0
                    ? "until stopped"
                    : (std::to_string(entry.max_runs) + " run(s)").c_str());
  }
  std::fflush(stdout);
  st = server.Wait();
  if (admin != nullptr) admin->Stop();

  if (metrics_ptr != nullptr && flags.count("metrics-out")) {
    Status write_st = WriteTextFile(flags.at("metrics-out"),
                                    registry.ToPrometheusText());
    if (!write_st.ok()) return Fail(write_st);
    std::printf("wrote %zu metric series to %s\n", registry.size(),
                flags.at("metrics-out").c_str());
  }
  if (!st.ok()) return Fail(st);
  std::printf("served %llu run(s) across %zu session(s)\n",
              static_cast<unsigned long long>(server.runs_completed()),
              serve.sessions.size());
  return 0;
}

int RunTail(const std::map<std::string, std::string>& flags) {
  if (!flags.count("connect")) {
    std::fprintf(stderr, "tail: missing --connect HOST:PORT\n");
    return 2;
  }
  const std::string& endpoint = flags.at("connect");
  const size_t colon = endpoint.rfind(':');
  int64_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseInt64Flag(endpoint.substr(colon + 1), &port) || port < 1 ||
      port > 65535) {
    std::fprintf(stderr, "tail: --connect needs HOST:PORT, got '%s'\n",
                 endpoint.c_str());
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  int64_t limit = 0;  // 0 = until end of stream
  if (flags.count("limit") &&
      (!ParseInt64Flag(flags.at("limit"), &limit) || limit < 1)) {
    std::fprintf(stderr, "tail: --limit needs a positive integer\n");
    return 2;
  }

  auto client = net::StreamClient::Connect(host, static_cast<uint16_t>(port),
                                           FlagOr(flags, "session", ""));
  if (!client.ok()) return Fail(client.status());
  net::StreamClient& stream = *client.ValueOrDie();

  TupleVector tuples;
  Tuple tuple;
  bool truncated = false;
  while (true) {
    auto next = stream.Next(&tuple);
    if (!next.ok()) return Fail(next.status());
    if (!next.ValueOrDie()) break;
    tuples.push_back(std::move(tuple));
    if (limit > 0 && tuples.size() >= static_cast<size_t>(limit)) {
      truncated = true;  // deliberate early hang-up, not an error
      break;
    }
  }

  // Default CsvOptions on both sides keep `tail --csv-out` byte-identical
  // to `run --output` of the same scenario and seed.
  if (flags.count("csv-out")) {
    Status st = WriteCsvFile(stream.schema(), tuples, flags.at("csv-out"));
    if (!st.ok()) return Fail(st);
    std::printf("received %zu tuples%s, wrote %s\n", tuples.size(),
                truncated ? " (limit reached)" : "",
                flags.at("csv-out").c_str());
  } else {
    std::printf("%s", ToCsvString(stream.schema(), tuples).c_str());
  }
  return 0;
}

int RunAdmin(const std::string& method,
             const std::map<std::string, std::string>& flags) {
  if (!flags.count("connect")) {
    std::fprintf(stderr, "admin: missing --connect HOST:PORT\n");
    return 2;
  }
  const std::string& endpoint = flags.at("connect");
  const size_t colon = endpoint.rfind(':');
  int64_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseInt64Flag(endpoint.substr(colon + 1), &port) || port < 1 ||
      port > 65535) {
    std::fprintf(stderr, "admin: --connect needs HOST:PORT, got '%s'\n",
                 endpoint.c_str());
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);

  Json params = Json::MakeObject();
  if (flags.count("session")) params.Set("session", flags.at("session"));
  if (flags.count("scenario")) params.Set("scenario", flags.at("scenario"));
  if (flags.count("pipeline")) {
    auto doc = ReadJsonFile(flags.at("pipeline"));
    if (!doc.ok()) {
      std::fprintf(stderr, "admin: --pipeline: %s\n",
                   doc.status().ToString().c_str());
      return 2;
    }
    params.Set("pipeline", std::move(doc).ValueOrDie());
  }
  if (flags.count("rules")) {
    // `--rules null` removes the session's cleaner; a path installs
    // the file's cleaning document.
    if (flags.at("rules") == "null") {
      params.Set("rules", Json());
    } else {
      auto doc = ReadJsonFile(flags.at("rules"));
      if (!doc.ok()) {
        std::fprintf(stderr, "admin: --rules: %s\n",
                     doc.status().ToString().c_str());
        return 2;
      }
      params.Set("rules", std::move(doc).ValueOrDie());
    }
  }
  if (flags.count("rate")) {
    const std::string& text = flags.at("rate");
    char* end = nullptr;
    errno = 0;
    const double rate = std::strtod(text.c_str(), &end);
    if (text.empty() || errno != 0 || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "admin: --rate needs a number, got '%s'\n",
                   text.c_str());
      return 2;
    }
    params.Set("tuples_per_sec", Json(rate));
  }

  // Client-side gate: a request the server would reject as malformed
  // (IW61x) is a usage error here, caught before any connection.
  Json request = Json::MakeObject();
  request.Set("id", Json(static_cast<int64_t>(1)));
  request.Set("method", Json(method));
  request.Set("params", params);
  analysis::AdminAnalyzeOptions lint;
  lint.known_methods = net::AdminMethodNames();
  lint.known_scenarios = scenarios::ScenarioNames();
  Diagnostics diags = analysis::AnalyzeAdminRequest(request, lint);
  if (!diags.empty()) std::fprintf(stderr, "%s", diags.ToReport().c_str());
  if (diags.HasErrors()) return 2;

  auto client = net::AdminClient::Connect(host, static_cast<uint16_t>(port));
  if (!client.ok()) return Fail(client.status());
  auto response = client.ValueOrDie()->Call(method, params);
  if (!response.ok()) return Fail(response.status());
  const Json& body = response.ValueOrDie();
  if (body.Has("error")) {
    // The server's rejection — lint-gated swaps land here with the full
    // Diagnostics JSON.
    const Json error = body.Get("error").ValueOrDie();
    std::fprintf(stderr, "admin %s failed [%s]: %s\n", method.c_str(),
                 error.GetString("code", "?").c_str(),
                 error.GetString("message", "").c_str());
    if (error.Has("diagnostics")) {
      std::fprintf(
          stderr, "%s\n",
          error.Get("diagnostics").ValueOrDie().DumpPretty().c_str());
    }
    return 1;
  }
  Json result =
      body.Has("result") ? body.Get("result").ValueOrDie() : Json();
  if (!flags.count("json") && method == "get_metrics" &&
      result.is_object() && result.Has("text")) {
    std::printf("%s", result.GetString("text", "").c_str());
  } else {
    std::printf("%s\n", result.DumpPretty().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("icewafl_cli %s\n", kVersion);
    return 0;
  }
  std::map<std::string, std::string> flags;
  if (command == "lint") {
    // lint takes the pipeline as a positional argument.
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) return Usage();
    if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
    if (!CheckFlags("lint", flags,
                    {"schema", "suite", "stream-start", "stream-end", "json"}))
      return 2;
    return RunLint(argv[2], flags);
  }
  if (command == "admin") {
    // admin takes the method as a positional argument.
    if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) return Usage();
    if (!ParseFlags(argc, argv, 3, &flags)) return Usage();
    if (!CheckFlags("admin", flags,
                    {"connect", "session", "scenario", "pipeline", "rules",
                     "rate", "json"}))
      return 2;
    return RunAdmin(argv[2], flags);
  }
  if (!ParseFlags(argc, argv, 2, &flags)) return Usage();
  if (command == "pollute") {
    if (!CheckFlags("pollute", flags,
                    {"schema", "config", "input", "output", "clean-output",
                     "log", "seed", "null-repr"}))
      return 2;
    return RunPollute(flags);
  }
  if (command == "validate") {
    if (!CheckFlags("validate", flags,
                    {"schema", "suite", "input", "null-repr"}))
      return 2;
    return RunValidate(flags);
  }
  if (command == "generate") {
    if (!CheckFlags("generate", flags,
                    {"dataset", "output", "seed", "hours", "station"}))
      return 2;
    return RunGenerate(flags);
  }
  if (command == "profile") {
    if (!CheckFlags("profile", flags,
                    {"schema", "input", "null-repr", "suggest-suite"}))
      return 2;
    return RunProfile(flags);
  }
  if (command == "schema") {
    if (!CheckFlags("schema", flags, {"dataset"})) return 2;
    return RunSchema(flags);
  }
  if (command == "clean") {
    if (!CheckFlags("clean", flags,
                    {"rules", "schema", "input", "output", "log",
                     "parallelism", "metrics-out", "null-repr", "scenario",
                     "seed", "report", "window-seconds"}))
      return 2;
    return RunClean(flags);
  }
  if (command == "run") {
    if (!CheckFlags("run", flags,
                    {"scenario", "seed", "parallelism", "output",
                     "metrics-out", "trace-out"}))
      return 2;
    return RunScenario(flags);
  }
  if (command == "serve") {
    if (!CheckFlags("serve", flags,
                    {"scenario", "config", "host", "port", "admin-port",
                     "seed", "parallelism", "min-subscribers",
                     "max-sessions", "workers", "queue-capacity",
                     "slow-consumer", "metrics-out"}))
      return 2;
    return RunServe(flags);
  }
  if (command == "tail") {
    if (!CheckFlags("tail", flags,
                    {"connect", "session", "limit", "csv-out"}))
      return 2;
    return RunTail(flags);
  }
  std::fprintf(stderr, "unknown subcommand: '%s'\n", command.c_str());
  return Usage();
}
