// Cleaning-engine microbench: per-rule-family detection throughput of
// the sequential cleaner (clean::CleanTuples), and the cost of a
// stateful (windowed-repair) document next to a pure stateless one.
// The stream is a synthetic wearable trace with deterministic
// arithmetic pollution (no RNG), so every run evaluates the same rule
// firings.
//
// Alongside the human-readable table it emits a machine-readable JSON
// report (BENCH_clean.json in CI, validated by tools/check.sh bench) so
// the cleaning perf trajectory lives in a tracked artifact next to
// BENCH_wire.json.
//
// Built-in assertions (exit 1 on violation, so CI turns a regression
// into a red build instead of a silently worse number):
//   - every family measures > 0 tuples/s and fires at least once
//
// Usage: bench_clean [--tuples N] [--out PATH]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "clean/cleaner.h"
#include "clean/config.h"
#include "stream/sink.h"
#include "stream/tuple.h"
#include "util/json.h"

namespace {

using namespace icewafl;  // NOLINT

uint64_t kTuples = 200000;  // --tuples

int64_t IntFlag(int argc, char** argv, const char* name, int64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

std::string StringFlag(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

SchemaPtr WearableSchema() {
  return Schema::Make({{"Time", ValueType::kInt64},
                       {"BPM", ValueType::kDouble},
                       {"Steps", ValueType::kInt64},
                       {"Distance", ValueType::kDouble}},
                      "Time")
      .ValueOrDie();
}

/// Deterministic dirty stream: a diurnal BPM curve with arithmetic
/// pollution — every 37th BPM is an out-of-range spike, every 53rd is
/// NULL, every 97th Distance outruns its Steps, and tuples 41..48 of
/// every 1000 repeat the same BPM (a stuck sensor). The co-prime strides
/// keep each family's firing rate stable as --tuples grows.
TupleVector MakeStream(const SchemaPtr& schema) {
  TupleVector tuples;
  tuples.reserve(kTuples);
  for (uint64_t i = 0; i < kTuples; ++i) {
    const double phase = static_cast<double>(i % 86400) / 86400.0;
    double bpm = 72.0 + 26.0 * std::sin(phase * 6.283185307179586);
    const auto steps = static_cast<int64_t>(
        45.0 + 40.0 * std::sin(phase * 12.566370614359172));
    double distance = 0.0007 * static_cast<double>(steps < 0 ? 0 : steps);
    if (i % 37 == 0) bpm = 400.0 + static_cast<double>(i % 7);
    if (i % 97 == 0) distance = static_cast<double>(steps) + 5.0;
    if (i % 1000 >= 41 && i % 1000 < 49) bpm = 88.0;
    Value bpm_value = (i % 53 == 0) ? Value() : Value(bpm);
    // Schema drift: every 211th Steps arrives as a double (Tuple does
    // not enforce column types), feeding the type-rule family.
    Value steps_value = (i % 211 == 0)
                            ? Value(static_cast<double>(steps) + 0.5)
                            : Value(steps < 0 ? int64_t{0} : steps);
    Tuple tuple(schema,
                {Value(static_cast<int64_t>(1456790400 + i * 60)),
                 std::move(bpm_value), std::move(steps_value),
                 Value(distance)});
    tuple.set_id(i);
    tuple.set_event_time(static_cast<int64_t>(1456790400 + i * 60));
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

clean::CleaningRules RulesFromText(const SchemaPtr& schema,
                                   const std::string& text) {
  Json json = Json::Parse(text).ValueOrDie();
  auto rules = clean::RulesFromJson(json, schema);
  if (!rules.ok()) {
    std::fprintf(stderr, "bad bench rules: %s\n",
                 rules.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(rules).ValueOrDie();
}

struct Measurement {
  double seconds = 0.0;
  uint64_t fired = 0;
};

Measurement Run(const clean::CleaningRules& rules, const TupleVector& input) {
  CountingSink sink;
  clean::CleanStats stats;
  const auto start = std::chrono::steady_clock::now();
  Status st = clean::CleanTuples(rules, input, &sink, /*metrics=*/nullptr,
                                 /*log=*/nullptr, &stats);
  const auto end = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "clean run failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  Measurement m;
  m.seconds = std::chrono::duration<double>(end - start).count();
  m.fired = stats.fired;
  return m;
}

double Mtps(const Measurement& m) {
  if (m.seconds <= 0.0) return 0.0;
  return static_cast<double>(kTuples) / m.seconds / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  kTuples = static_cast<uint64_t>(
      IntFlag(argc, argv, "--tuples", static_cast<int64_t>(kTuples)));
  const std::string out = StringFlag(argc, argv, "--out", "BENCH_clean.json");

  SchemaPtr schema = WearableSchema();
  const TupleVector input = MakeStream(schema);

  std::printf("Cleaning engine microbench\n");
  std::printf("stream: %llu synthetic wearable tuples, deterministic "
              "pollution\n\n",
              static_cast<unsigned long long>(kTuples));

  // One single-rule document per detect family. set_null keeps every
  // family's repair cost identical, so the column isolates detection.
  struct Family {
    const char* name;
    const char* doc;
  };
  const Family families[] = {
      {"range", R"({"rules": [{"label": "r", "column": "BPM",
          "detect": {"type": "range", "min": 30, "max": 220},
          "repair": "set_null"}]})"},
      {"not_null", R"({"rules": [{"label": "r", "column": "BPM",
          "detect": {"type": "not_null"}, "repair": "drop"}]})"},
      {"regex", R"({"rules": [{"label": "r", "column": "BPM",
          "detect": {"type": "regex", "pattern": "\\d{2}(\\.\\d+)?"},
          "repair": "set_null"}]})"},
      {"type", R"({"rules": [{"label": "r", "column": "Steps",
          "detect": {"type": "type", "value_type": "int64"},
          "repair": "set_null"}]})"},
      {"cross_field", R"({"rules": [{"label": "r", "column": "Distance",
          "detect": {"type": "cross_field", "op": "le", "other": "Steps"},
          "repair": "set_null"}]})"},
      {"rate_of_change", R"({"rules": [{"label": "r", "column": "BPM",
          "detect": {"type": "rate_of_change", "max_change": 50},
          "repair": "last_good"}]})"},
      {"stuck_at", R"({"rules": [{"label": "r", "column": "BPM",
          "detect": {"type": "stuck_at", "min_repeats": 4},
          "repair": "set_null"}]})"},
  };

  std::printf("%-16s %10s %10s %12s\n", "family", "seconds", "Mtuples/s",
              "rule_fired");
  Json family_json = Json::MakeObject();
  for (const Family& family : families) {
    clean::CleaningRules rules = RulesFromText(schema, family.doc);
    const Measurement m = Run(rules, input);
    std::printf("%-16s %10.3f %10.2f %12llu\n", family.name, m.seconds,
                Mtps(m), static_cast<unsigned long long>(m.fired));
    if (m.seconds <= 0.0 || m.fired == 0) {
      std::fprintf(stderr, "family %s measured nothing (%.6fs, %llu fired)\n",
                   family.name, m.seconds,
                   static_cast<unsigned long long>(m.fired));
      return 1;
    }
    Json entry = Json::MakeObject();
    entry.Set("seconds", Json(m.seconds));
    entry.Set("mtuples_per_sec", Json(Mtps(m)));
    entry.Set("fired", Json(static_cast<int64_t>(m.fired)));
    family_json.Set(family.name, std::move(entry));
  }

  // Stateless vs stateful: the same three detections, once with pure
  // repairs and once with windowed repairs, which keep a per-column
  // value history.
  const char* pure_doc = R"({"name": "pure", "rules": [
      {"label": "bpm_range", "column": "BPM",
       "detect": {"type": "range", "min": 30, "max": 220},
       "repair": "set_null"},
      {"label": "bpm_null", "column": "BPM",
       "detect": {"type": "not_null"}, "repair": "drop"},
      {"label": "distance", "column": "Distance",
       "detect": {"type": "cross_field", "op": "le", "other": "Steps"},
       "repair": "set_null"}]})";
  const char* stateful_doc = R"({"name": "stateful", "history": 16, "rules": [
      {"label": "bpm_range", "column": "BPM",
       "detect": {"type": "range", "min": 30, "max": 220},
       "repair": "window_mean"},
      {"label": "bpm_null", "column": "BPM",
       "detect": {"type": "not_null"}, "repair": "last_good"},
      {"label": "distance", "column": "Distance",
       "detect": {"type": "cross_field", "op": "le", "other": "Steps"},
       "repair": "window_median"}]})";
  clean::CleaningRules pure = RulesFromText(schema, pure_doc);
  clean::CleaningRules stateful = RulesFromText(schema, stateful_doc);

  const Measurement pure_run = Run(pure, input);
  const Measurement stateful_run = Run(stateful, input);
  const double overhead =
      pure_run.seconds > 0.0 ? stateful_run.seconds / pure_run.seconds : 0.0;
  std::printf("\n%-16s %10.3f %10.2f\n", "pure x3", pure_run.seconds,
              Mtps(pure_run));
  std::printf("%-16s %10.3f %10.2f   (%.2fx the pure document)\n",
              "stateful x3", stateful_run.seconds, Mtps(stateful_run),
              overhead);

  Json report = Json::MakeObject();
  report.Set("bench", Json("clean"));
  report.Set("tuples", Json(static_cast<int64_t>(kTuples)));
  report.Set("families", std::move(family_json));
  report.Set("pure_seconds", Json(pure_run.seconds));
  report.Set("stateful_seconds", Json(stateful_run.seconds));
  report.Set("stateful_overhead", Json(overhead));

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  const std::string text = report.DumpPretty();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
