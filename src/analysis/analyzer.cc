#include "analysis/analyzer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "clean/config.h"
#include "core/config.h"
#include "core/error_function.h"
#include "core/time_profile.h"
#include "dq/config.h"
#include "util/strings.h"

namespace icewafl {
namespace analysis {

namespace {

// Delay / timestamp-shift magnitudes beyond this are almost certainly a
// unit mistake (seconds vs milliseconds); one week, in seconds.
constexpr int64_t kShiftMagnitudeLimit = 7 * 24 * 3600;

std::string PathOf(const std::string& prefix, const std::string& key) {
  return prefix + "/" + key;
}
std::string PathOf(const std::string& prefix, size_t index) {
  return prefix + "/" + std::to_string(index);
}

/// Three-valued constant folding over a condition tree.
enum class Truth { kNever, kVaries, kAlways };

struct CondInfo {
  Truth truth = Truth::kVaries;
  /// The kNever derives from a literal {"type": "never"} — the
  /// documented off-switch — so the polluter-level IW201 is suppressed.
  bool intentional_never = false;
  /// An IW201 was already emitted inside the subtree (contradictory
  /// window intersection); don't repeat it at the polluter level.
  bool reported = false;
  /// Half-open firing window [start, end) when the subtree constrains
  /// event time (a time_window, or an AND containing ones).
  std::optional<std::pair<Timestamp, Timestamp>> window;
};

/// What a standard polluter injects — kept for the suite cross-check.
struct Injection {
  std::string path;
  std::string label;
  std::vector<std::string> attributes;  ///< empty = all attributes
  ErrorTraits traits;
};

/// Per-node-type allowlists of config keys, used by the IW402
/// unknown-key check. Matches exactly what the ToJson() serializers
/// emit (plus loader-accepted aliases like "<key>_type").
const std::map<std::string, std::set<std::string>>& ErrorKeys() {
  static const auto* keys = new std::map<std::string, std::set<std::string>>{
      {"gaussian_noise", {"type", "stddev", "multiplicative"}},
      {"uniform_noise", {"type", "lo", "hi"}},
      {"scale", {"type", "factor"}},
      {"offset", {"type", "delta"}},
      {"round", {"type", "precision"}},
      {"unit_conversion", {"type", "factor", "from_unit", "to_unit"}},
      {"outlier", {"type", "min_factor", "max_factor"}},
      {"missing_value", {"type"}},
      {"set_constant", {"type", "value", "value_type"}},
      {"incorrect_category", {"type", "categories"}},
      {"typo", {"type"}},
      {"digit_swap", {"type"}},
      {"sign_flip", {"type"}},
      {"case", {"type", "flip_probability"}},
      {"truncate", {"type", "max_length"}},
      {"swap_attributes", {"type"}},
      {"delay", {"type", "delay_seconds"}},
      {"frozen_value", {"type", "hold_seconds"}},
      {"timestamp_shift", {"type", "shift_seconds"}},
      {"timestamp_jitter", {"type", "max_jitter_seconds"}},
      {"derived", {"type", "base", "profile"}},
  };
  return *keys;
}

const std::map<std::string, std::set<std::string>>& ConditionKeys() {
  static const auto* keys = new std::map<std::string, std::set<std::string>>{
      {"always", {"type"}},
      {"never", {"type"}},
      {"random", {"type", "p"}},
      {"value", {"type", "attribute", "op", "operand", "operand_type"}},
      {"time_window", {"type", "start", "end"}},
      {"daily_window", {"type", "start_minute", "end_minute"}},
      {"profile_probability", {"type", "profile"}},
      {"and", {"type", "children"}},
      {"or", {"type", "children"}},
      {"not", {"type", "child"}},
      {"window_aggregate",
       {"type", "attribute", "window_seconds", "agg", "op", "threshold"}},
      {"hold", {"type", "inner", "hold_seconds"}},
  };
  return *keys;
}

const std::map<std::string, std::set<std::string>>& PolluterKeys() {
  static const auto* keys = new std::map<std::string, std::set<std::string>>{
      {"standard", {"type", "label", "error", "condition", "attributes"}},
      {"sequential", {"type", "label", "condition", "children"}},
      {"exclusive", {"type", "label", "condition", "children", "weights"}},
  };
  return *keys;
}

const std::map<std::string, std::set<std::string>>& ExpectationKeys() {
  static const auto* keys = new std::map<std::string, std::set<std::string>>{
      {"expect_column_values_to_not_be_null", {"type", "column"}},
      {"expect_column_values_to_be_null", {"type", "column"}},
      {"expect_column_values_to_be_between", {"type", "column", "min", "max"}},
      {"expect_column_values_to_match_regex", {"type", "column", "regex"}},
      {"expect_column_values_to_be_increasing",
       {"type", "column", "strictly"}},
      {"expect_column_pair_values_a_to_be_greater_than_b",
       {"type", "column_a", "column_b", "or_equal"}},
      {"expect_multicolumn_sum_to_equal",
       {"type", "columns", "total", "tolerance", "where_column",
        "where_value"}},
      {"expect_column_values_to_be_in_set", {"type", "column", "values"}},
      {"expect_column_values_to_be_unique", {"type", "column"}},
      {"expect_column_mean_to_be_between", {"type", "column", "min", "max"}},
      {"expect_column_stdev_to_be_between", {"type", "column", "min", "max"}},
      {"expect_column_value_lengths_to_be_between",
       {"type", "column", "min_length", "max_length"}},
      {"expect_column_values_to_be_of_type", {"type", "column", "value_type"}},
  };
  return *keys;
}

bool IsNumericType(ValueType type) {
  return type == ValueType::kInt64 || type == ValueType::kDouble;
}

class Analyzer {
 public:
  Analyzer(const AnalyzeOptions& options, Diagnostics* diags)
      : options_(options), diags_(diags) {}

  void AnalyzePipelineDoc(const Json& json) {
    if (!json.is_object()) {
      diags_->AddError("IW100", "/", "pipeline description is not a JSON object");
      return;
    }
    CheckKeys(json, "", {"name", "polluters"});
    if (!json.Has("polluters")) {
      diags_->AddError("IW100", "/", "missing field 'polluters'",
                       "a pipeline is {\"name\": ..., \"polluters\": [...]}");
      return;
    }
    const Json& polluters = json.fields().at("polluters");
    if (!polluters.is_array()) {
      diags_->AddError("IW100", "/polluters", "'polluters' must be an array");
      return;
    }
    for (size_t i = 0; i < polluters.items().size(); ++i) {
      AnalyzePolluter(polluters.items()[i], PathOf("/polluters", i));
    }
    ReportDuplicateLabels();
  }

  void AnalyzeSuiteDoc(const Json& json, const std::string& prefix) {
    if (!json.is_object()) {
      diags_->AddError("IW100", prefix + "/",
                       "suite description is not a JSON object");
      return;
    }
    CheckKeys(json, prefix, {"name", "expectations"});
    if (!json.Has("expectations")) {
      diags_->AddError("IW100", prefix + "/", "missing field 'expectations'");
      return;
    }
    const Json& expectations = json.fields().at("expectations");
    if (!expectations.is_array()) {
      diags_->AddError("IW100", prefix + "/expectations",
                       "'expectations' must be an array");
      return;
    }
    for (size_t i = 0; i < expectations.items().size(); ++i) {
      AnalyzeExpectation(expectations.items()[i],
                         PathOf(prefix + "/expectations", i));
    }
  }

  /// IW502: a standard polluter whose injected error no expectation can
  /// observe. Requires both documents; runs after both walks.
  void CrossCheckCoverage() {
    if (!saw_suite_) return;
    for (const Injection& inj : injections_) {
      if (Covered(inj)) continue;
      std::string targets;
      for (const std::string& a : inj.attributes) {
        if (!targets.empty()) targets += ", ";
        targets += "'" + a + "'";
      }
      if (targets.empty()) targets = "any attribute";
      diags_->AddWarning(
          "IW502", inj.path,
          "coverage gap: no expectation can detect errors injected by "
          "polluter '" + inj.label + "' (targets " + targets + ")",
          "add an expectation over the polluted column(s), or an "
          "increasing-timestamp expectation for temporal errors");
    }
  }

 private:
  // -- shared helpers -------------------------------------------------

  void CheckKeys(const Json& json, const std::string& path,
                 const std::set<std::string>& allowed) {
    for (const auto& [key, value] : json.fields()) {
      if (allowed.count(key) == 0) {
        diags_->AddWarning("IW402", PathOf(path, key),
                           "unknown config key '" + key + "' is ignored",
                           "remove it or fix the spelling");
      }
    }
  }

  /// Timestamp field shaped like the loader accepts: epoch number or
  /// "YYYY-MM-DD[ HH:MM:SS]" string. nullopt when absent or malformed
  /// (the loader reports malformed ones as IW100 elsewhere).
  std::optional<Timestamp> ReadTimestamp(const Json& json,
                                         const std::string& key) {
    if (!json.Has(key)) return std::nullopt;
    const Json& field = json.fields().at(key);
    if (field.is_number()) return field.AsInt64();
    if (field.is_string()) {
      auto parsed = ParseTimestamp(field.AsString());
      if (parsed.ok()) return parsed.ValueOrDie();
    }
    return std::nullopt;
  }

  std::optional<ValueType> SchemaTypeOf(const std::string& attribute) const {
    if (options_.schema == nullptr) return std::nullopt;
    auto index = options_.schema->IndexOf(attribute);
    if (!index.ok()) return std::nullopt;
    return options_.schema->attribute(index.ValueOrDie()).type;
  }

  // -- polluters ------------------------------------------------------

  void AnalyzePolluter(const Json& json, const std::string& path) {
    // Delegate shape validation to the real loader so lint and load
    // never disagree about what parses.
    auto built = PolluterFromJson(json, path);
    if (!built.ok()) {
      // The loader rejects a negative delay as well; lint names it IW303.
      const bool named = json.is_object() && json.Has("error") &&
                         json.fields().at("error").is_object() &&
                         CheckDuration(json.fields().at("error"),
                                       PathOf(path, "error"));
      if (!named) {
        diags_->AddError("IW100", path,
                         "config does not load: " + built.status().message());
      }
      return;
    }
    const std::string type = json.GetString("type", "");
    auto keys = PolluterKeys().find(type);
    if (keys != PolluterKeys().end()) CheckKeys(json, path, keys->second);
    const std::string label = json.GetString("label", type);
    labels_[label].push_back(path);

    CondInfo cond;
    if (json.Has("condition")) {
      cond = AnalyzeCondition(json.fields().at("condition"),
                              PathOf(path, "condition"));
    } else {
      cond.truth = Truth::kAlways;
    }
    if (cond.truth == Truth::kNever && !cond.intentional_never &&
        !cond.reported) {
      diags_->AddError("IW201", PathOf(path, "condition"),
                       "condition can never fire; polluter '" + label +
                           "' is dead",
                       "use {\"type\": \"never\"} if disabling it is "
                       "intentional");
    }

    if (type == "standard") {
      AnalyzeStandardPolluter(json, path, label);
    } else if (type == "sequential" || type == "exclusive") {
      const Json& children = json.fields().at("children");
      std::vector<CondInfo> child_conds;
      for (size_t i = 0; i < children.items().size(); ++i) {
        child_conds.push_back(AnalyzeChildPolluter(
            children.items()[i], PathOf(PathOf(path, "children"), i)));
      }
      if (type == "exclusive") {
        CheckExclusive(json, path, child_conds);
      }
    }
  }

  /// Like AnalyzePolluter but additionally reports the child's firing
  /// window so exclusive branches can be overlap-checked.
  CondInfo AnalyzeChildPolluter(const Json& json, const std::string& path) {
    AnalyzePolluter(json, path);
    if (json.is_object() && json.Has("condition")) {
      // Re-fold just the window; the full walk above already reported.
      return FoldWindowOnly(json.fields().at("condition"));
    }
    return {};
  }

  /// Window extraction without re-emitting diagnostics.
  CondInfo FoldWindowOnly(const Json& json) {
    Diagnostics scratch;
    Diagnostics* saved = diags_;
    diags_ = &scratch;
    CondInfo info = AnalyzeCondition(json, "");
    diags_ = saved;
    return info;
  }

  void AnalyzeStandardPolluter(const Json& json, const std::string& path,
                               const std::string& label) {
    std::vector<std::string> attributes;
    if (json.Has("attributes")) {
      const Json& attrs = json.fields().at("attributes");
      if (attrs.is_array()) {
        for (size_t i = 0; i < attrs.items().size(); ++i) {
          const Json& a = attrs.items()[i];
          if (!a.is_string()) continue;
          attributes.push_back(a.AsString());
          if (options_.schema != nullptr &&
              !options_.schema->Contains(a.AsString())) {
            diags_->AddError(
                "IW101", PathOf(PathOf(path, "attributes"), i),
                "unknown attribute '" + a.AsString() + "'",
                "schema columns: " + JoinNames());
          }
        }
      }
    }

    const Json& error_json = json.fields().at("error");
    const std::string error_path = PathOf(path, "error");
    ErrorTraits traits = AnalyzeError(error_json, error_path);

    // Value-domain vs column-type compatibility (IW102) and
    // timestamp-target hygiene (IW105).
    for (const std::string& attr : attributes) {
      auto type = SchemaTypeOf(attr);
      if (type.has_value()) {
        const bool numeric = IsNumericType(*type);
        if (traits.domain == ErrorDomain::kNumeric && !numeric) {
          diags_->AddError(
              "IW102", error_path,
              "numeric error '" + error_json.GetString("type", "?") +
                  "' targets non-numeric column '" + attr + "' (" +
                  ValueTypeName(*type) + ")",
              "pick a string-domain error or retarget the polluter");
        }
        if (traits.domain == ErrorDomain::kString &&
            *type != ValueType::kString) {
          diags_->AddError(
              "IW102", error_path,
              "string error '" + error_json.GetString("type", "?") +
                  "' targets non-string column '" + attr + "' (" +
                  ValueTypeName(*type) + ")");
        }
      }
      if (options_.schema != nullptr &&
          attr == options_.schema->timestamp_name() &&
          traits.domain != ErrorDomain::kMetadata) {
        diags_->AddWarning(
            "IW105", PathOf(path, "attributes"),
            "value error targets the timestamp column '" + attr + "'",
            "temporal errors (delay, timestamp_shift, ...) mutate "
            "timestamps safely; value errors corrupt stream order");
      }
    }

    // Arity constraints that would raise a runtime TypeError.
    const std::string error_type = error_json.GetString("type", "");
    if (error_type == "swap_attributes" && attributes.size() != 2) {
      diags_->AddError(
          "IW106", PathOf(path, "attributes"),
          "swap_attributes needs exactly 2 attributes, got " +
              std::to_string(attributes.size()));
    }

    injections_.push_back({path, label, attributes, traits});
  }

  void CheckExclusive(const Json& json, const std::string& path,
                      const std::vector<CondInfo>& child_conds) {
    const size_t n_children = json.fields().at("children").items().size();
    if (json.Has("weights")) {
      const Json& weights = json.fields().at("weights");
      const std::string wpath = PathOf(path, "weights");
      if (weights.is_array()) {
        if (weights.items().size() != n_children) {
          diags_->AddError(
              "IW403", wpath,
              "weights count (" + std::to_string(weights.items().size()) +
                  ") does not match children count (" +
                  std::to_string(n_children) + ")");
        }
        double sum = 0.0;
        for (const Json& w : weights.items()) {
          if (!w.is_number()) continue;
          if (w.AsDouble() < 0.0) {
            diags_->AddError("IW403", wpath, "negative branch weight");
          }
          sum += w.AsDouble();
        }
        if (!weights.items().empty() && sum <= 0.0) {
          diags_->AddError("IW403", wpath,
                           "branch weights sum to zero; no branch can be "
                           "selected");
        }
      }
    }
    // IW302: two exclusive branches whose firing windows overlap — both
    // are live at the same event times, so attribution of a given error
    // to a branch becomes ambiguous.
    for (size_t i = 0; i < child_conds.size(); ++i) {
      if (!child_conds[i].window.has_value()) continue;
      for (size_t j = i + 1; j < child_conds.size(); ++j) {
        if (!child_conds[j].window.has_value()) continue;
        const auto& [s1, e1] = *child_conds[i].window;
        const auto& [s2, e2] = *child_conds[j].window;
        if (std::max(s1, s2) < std::min(e1, e2)) {
          diags_->AddWarning(
              "IW302", PathOf(PathOf(path, "children"), j),
              "exclusive branches " + std::to_string(i) + " and " +
                  std::to_string(j) + " have overlapping time windows",
              "make the branch windows disjoint, or use a sequential "
              "polluter if simultaneous firing is intended");
        }
      }
    }
  }

  // -- error functions ------------------------------------------------

  /// IW303/IW304 on a duration error's seconds; true when IW303 fired.
  bool CheckDuration(const Json& json, const std::string& path) {
    const std::string type = json.GetString("type", "");
    if (type != "delay" && type != "frozen_value" &&
        type != "timestamp_jitter") {
      return false;
    }
    const char* key = type == "delay" ? "delay_seconds"
                      : type == "frozen_value" ? "hold_seconds"
                                               : "max_jitter_seconds";
    const int64_t seconds = json.GetInt(key, 0);
    if (seconds < 0) {
      diags_->AddError("IW303", PathOf(path, key),
                       "negative duration (" + std::to_string(seconds) +
                           "s)");
      return true;
    }
    if (seconds > kShiftMagnitudeLimit) {
      diags_->AddWarning(
          "IW304", PathOf(path, key),
          "duration of " + std::to_string(seconds) +
              "s exceeds one week; check the unit (seconds expected)");
    }
    return false;
  }

  ErrorTraits AnalyzeError(const Json& json, const std::string& path) {
    auto built = ErrorFunctionFromJson(json, path);
    if (!built.ok()) {
      diags_->AddError("IW100", path,
                       "config does not load: " + built.status().message());
      return {};
    }
    const std::string type = json.GetString("type", "");
    auto keys = ErrorKeys().find(type);
    if (keys != ErrorKeys().end()) CheckKeys(json, path, keys->second);

    if (type == "incorrect_category") {
      const Json& cats = json.fields().at("categories");
      if (cats.is_array() && cats.items().size() < 2) {
        diags_->AddError(
            "IW107", PathOf(path, "categories"),
            "incorrect_category needs at least 2 categories, got " +
                std::to_string(cats.items().size()),
            "with fewer than 2 there is no wrong category to pick");
      }
    }
    CheckDuration(json, path);
    if (type == "timestamp_shift") {
      const int64_t shift = json.GetInt("shift_seconds", 0);
      if (std::abs(shift) > kShiftMagnitudeLimit) {
        diags_->AddWarning(
            "IW304", PathOf(path, "shift_seconds"),
            "shift of " + std::to_string(shift) +
                "s exceeds one week; check the unit (seconds expected)");
      }
    }
    if (type == "derived") {
      // Recurse for the base's own magnitude/arity checks; the traits of
      // the whole node already come from DerivedTemporalError.
      AnalyzeError(json.fields().at("base"), PathOf(path, "base"));
      AnalyzeProfile(json.fields().at("profile"), PathOf(path, "profile"));
    }
    return built.ValueOrDie()->Describe();
  }

  std::optional<ProfileBounds> AnalyzeProfile(const Json& json,
                                              const std::string& path) {
    auto built = TimeProfileFromJson(json, path);
    if (!built.ok()) {
      diags_->AddError("IW100", path,
                       "config does not load: " + built.status().message());
      return std::nullopt;
    }
    return built.ValueOrDie()->Bounds();
  }

  // -- conditions -----------------------------------------------------

  CondInfo AnalyzeCondition(const Json& json, const std::string& path) {
    auto built = ConditionFromJson(json, path);
    if (!built.ok()) {
      diags_->AddError("IW100", path,
                       "config does not load: " + built.status().message());
      return {};
    }
    const std::string type = json.GetString("type", "");
    auto keys = ConditionKeys().find(type);
    if (keys != ConditionKeys().end()) CheckKeys(json, path, keys->second);

    CondInfo info;
    if (type == "always") {
      info.truth = Truth::kAlways;
    } else if (type == "never") {
      info.truth = Truth::kNever;
      info.intentional_never = true;
    } else if (type == "random") {
      const double p = json.GetDouble("p", 0.0);
      if (p < 0.0 || p > 1.0) {
        diags_->AddError("IW203", PathOf(path, "p"),
                         "probability " + std::to_string(p) +
                             " outside [0, 1]");
      }
      if (p <= 0.0) {
        info.truth = Truth::kNever;
      } else if (p >= 1.0) {
        info.truth = Truth::kAlways;
        if (p == 1.0) {
          diags_->AddWarning("IW202", PathOf(path, "p"),
                             "random condition with p = 1 always fires",
                             "use {\"type\": \"always\"} to make the "
                             "intent explicit");
        }
      }
    } else if (type == "value") {
      AnalyzeValueCondition(json, path);
    } else if (type == "time_window") {
      info = AnalyzeTimeWindow(json, path);
    } else if (type == "daily_window") {
      info = AnalyzeDailyWindow(json, path);
    } else if (type == "profile_probability") {
      auto bounds = AnalyzeProfile(json.fields().at("profile"),
                                   PathOf(path, "profile"));
      if (bounds.has_value()) {
        if (bounds->hi <= 0.0) {
          info.truth = Truth::kNever;
        } else if (bounds->lo >= 1.0) {
          info.truth = Truth::kAlways;
          diags_->AddWarning(
              "IW202", PathOf(path, "profile"),
              "profile probability is constantly 1; the condition always "
              "fires",
              "use {\"type\": \"always\"}, or lower the profile");
        }
      }
    } else if (type == "and" || type == "or") {
      info = AnalyzeComposite(json, path, type == "and");
    } else if (type == "not") {
      CondInfo child = AnalyzeCondition(json.fields().at("child"),
                                        PathOf(path, "child"));
      info.reported = child.reported;
      if (child.truth == Truth::kAlways) info.truth = Truth::kNever;
      if (child.truth == Truth::kNever) info.truth = Truth::kAlways;
    } else if (type == "window_aggregate") {
      AnalyzeWindowAggregate(json, path);
    } else if (type == "hold") {
      const int64_t hold = json.GetInt("hold_seconds", 0);
      if (hold < 0) {
        diags_->AddError("IW303", PathOf(path, "hold_seconds"),
                         "negative duration (" + std::to_string(hold) + "s)");
      }
      CondInfo inner = AnalyzeCondition(json.fields().at("inner"),
                                        PathOf(path, "inner"));
      info.truth = inner.truth;
      info.intentional_never = inner.intentional_never;
      info.reported = inner.reported;
      // A hold extends the firing window; keep the inner window as a
      // lower estimate (good enough for overlap warnings).
      info.window = inner.window;
    }
    return info;
  }

  void AnalyzeValueCondition(const Json& json, const std::string& path) {
    const std::string attr = json.GetString("attribute", "");
    auto type = SchemaTypeOf(attr);
    if (options_.schema != nullptr && !options_.schema->Contains(attr)) {
      diags_->AddError("IW103", PathOf(path, "attribute"),
                       "condition references unknown attribute '" + attr +
                           "'",
                       "schema columns: " + JoinNames());
      return;
    }
    if (!type.has_value() || !json.Has("operand")) return;
    const Json& operand = json.fields().at("operand");
    if (operand.is_number() && *type == ValueType::kString) {
      diags_->AddError("IW104", PathOf(path, "operand"),
                       "numeric operand compared against string column '" +
                           attr + "'");
    } else if (operand.is_string() && IsNumericType(*type)) {
      diags_->AddError("IW104", PathOf(path, "operand"),
                       "string operand compared against numeric column '" +
                           attr + "'");
    }
  }

  CondInfo AnalyzeTimeWindow(const Json& json, const std::string& path) {
    CondInfo info;
    auto start = ReadTimestamp(json, "start");
    auto end = ReadTimestamp(json, "end");
    const Timestamp s = start.value_or(INT64_MIN);
    const Timestamp e = end.value_or(INT64_MAX);
    if (s >= e) {
      diags_->AddError("IW204", path,
                       "empty time window: start >= end (the window is "
                       "half-open [start, end))");
      info.truth = Truth::kNever;
      info.reported = true;  // IW204 already explains the dead window
      info.window = {{s, s}};
      return info;
    }
    info.window = {{s, e}};
    if (!start.has_value() && !end.has_value()) {
      info.truth = Truth::kAlways;
    }
    // Against the declared stream bounds (ProcessOptions).
    if ((options_.stream_end.has_value() && s >= *options_.stream_end) ||
        (options_.stream_start.has_value() && e <= *options_.stream_start)) {
      diags_->AddWarning("IW301", path,
                         "time window lies entirely outside the stream "
                         "bounds; the condition never fires on this stream");
    }
    return info;
  }

  CondInfo AnalyzeDailyWindow(const Json& json, const std::string& path) {
    CondInfo info;
    const int64_t start = json.GetInt("start_minute", 0);
    const int64_t end = json.GetInt("end_minute", 1439);
    if (start < 0 || start > 1439 || end < 0 || end > 1439) {
      diags_->AddError("IW205", path,
                       "daily window minutes must lie in [0, 1439], got [" +
                           std::to_string(start) + ", " +
                           std::to_string(end) + "]",
                       "minutes since midnight; 1439 = 23:59");
    }
    if (start == 0 && end >= 1439) info.truth = Truth::kAlways;
    return info;
  }

  CondInfo AnalyzeComposite(const Json& json, const std::string& path,
                            bool conjunction) {
    const Json& children = json.fields().at("children");
    std::vector<CondInfo> infos;
    for (size_t i = 0; i < children.items().size(); ++i) {
      infos.push_back(AnalyzeCondition(children.items()[i],
                                       PathOf(PathOf(path, "children"), i)));
    }
    CondInfo info;
    if (infos.empty()) {
      // Loader semantics: an empty AND is vacuously true, an empty OR
      // vacuously false.
      info.truth = conjunction ? Truth::kAlways : Truth::kNever;
      return info;
    }
    size_t never = 0, always = 0;
    bool intentional = false, reported = false;
    for (const CondInfo& c : infos) {
      never += c.truth == Truth::kNever;
      always += c.truth == Truth::kAlways;
      intentional |= c.intentional_never;
      reported |= c.reported;
    }
    info.reported = reported;
    if (conjunction) {
      if (never > 0) {
        info.truth = Truth::kNever;
        info.intentional_never = intentional;
      } else if (always == infos.size()) {
        info.truth = Truth::kAlways;
      }
      // Intersect the children's firing windows; an empty intersection
      // is a contradiction no single child reveals.
      Timestamp lo = INT64_MIN, hi = INT64_MAX;
      size_t windows = 0;
      for (const CondInfo& c : infos) {
        if (!c.window.has_value()) continue;
        ++windows;
        lo = std::max(lo, c.window->first);
        hi = std::min(hi, c.window->second);
      }
      if (windows > 0) info.window = {{lo, hi}};
      if (windows >= 2 && lo >= hi && info.truth != Truth::kNever) {
        diags_->AddError("IW201", path,
                         "time windows of the 'and' children do not "
                         "intersect; the condition can never fire");
        info.truth = Truth::kNever;
        info.reported = true;
      }
    } else {
      if (always > 0) {
        info.truth = Truth::kAlways;
      } else if (never == infos.size()) {
        info.truth = Truth::kNever;
        info.intentional_never = intentional;
      }
      // Union hull of the children's windows (only if all constrain time).
      Timestamp lo = INT64_MAX, hi = INT64_MIN;
      bool all_windowed = true;
      for (const CondInfo& c : infos) {
        if (!c.window.has_value()) {
          all_windowed = false;
          break;
        }
        lo = std::min(lo, c.window->first);
        hi = std::max(hi, c.window->second);
      }
      if (all_windowed && lo < hi) info.window = {{lo, hi}};
    }
    return info;
  }

  void AnalyzeWindowAggregate(const Json& json, const std::string& path) {
    const std::string attr = json.GetString("attribute", "");
    if (options_.schema != nullptr && !options_.schema->Contains(attr)) {
      diags_->AddError("IW103", PathOf(path, "attribute"),
                       "condition references unknown attribute '" + attr +
                           "'",
                       "schema columns: " + JoinNames());
    } else {
      auto type = SchemaTypeOf(attr);
      if (type.has_value() && !IsNumericType(*type)) {
        diags_->AddError("IW104", PathOf(path, "attribute"),
                         "window aggregate over non-numeric column '" +
                             attr + "' (" + ValueTypeName(*type) + ")");
      }
    }
    const int64_t window = json.GetInt("window_seconds", 0);
    if (window <= 0) {
      diags_->AddError("IW303", PathOf(path, "window_seconds"),
                       "aggregation window must be positive, got " +
                           std::to_string(window) + "s");
    }
  }

  // -- expectations ---------------------------------------------------

  void AnalyzeExpectation(const Json& json, const std::string& path) {
    auto built = dq::ExpectationFromJson(json, path);
    if (!built.ok()) {
      diags_->AddError("IW100", path,
                       "config does not load: " + built.status().message());
      return;
    }
    saw_suite_ = true;
    const std::string type = json.GetString("type", "");
    auto keys = ExpectationKeys().find(type);
    if (keys != ExpectationKeys().end()) CheckKeys(json, path, keys->second);

    for (const char* key : {"column", "column_a", "column_b", "where_column"}) {
      if (!json.Has(key)) continue;
      const Json& col = json.fields().at(key);
      if (!col.is_string()) continue;
      RecordSuiteColumn(col.AsString(), PathOf(path, key));
    }
    if (json.Has("columns") && json.fields().at("columns").is_array()) {
      const Json& cols = json.fields().at("columns");
      for (size_t i = 0; i < cols.items().size(); ++i) {
        if (cols.items()[i].is_string()) {
          RecordSuiteColumn(cols.items()[i].AsString(),
                            PathOf(PathOf(path, "columns"), i));
        }
      }
    }
    if (type == "expect_column_values_to_be_increasing") {
      suite_has_increasing_ = true;
    }

    // IW503: ranges that no value (or length) can ever satisfy.
    const auto check_range = [&](const char* lo_key, const char* hi_key) {
      if (!json.Has(lo_key) || !json.Has(hi_key)) return;
      const Json& lo = json.fields().at(lo_key);
      const Json& hi = json.fields().at(hi_key);
      if (lo.is_number() && hi.is_number() && lo.AsDouble() > hi.AsDouble()) {
        diags_->AddError(
            "IW503", path,
            std::string("empty range: ") + lo_key + " (" +
                std::to_string(lo.AsDouble()) + ") > " + hi_key + " (" +
                std::to_string(hi.AsDouble()) + "); the expectation can "
                "never pass on non-empty data");
      }
    };
    check_range("min", "max");
    check_range("min_length", "max_length");
  }

  void RecordSuiteColumn(const std::string& column, const std::string& path) {
    suite_columns_.insert(column);
    if (options_.schema != nullptr && !options_.schema->Contains(column)) {
      diags_->AddError("IW501", path,
                       "expectation references unknown column '" + column +
                           "'",
                       "schema columns: " + JoinNames());
    }
  }

  bool Covered(const Injection& inj) const {
    // Temporal/metadata errors surface as out-of-order or shifted
    // timestamps — an increasing-timestamp expectation observes them.
    if (inj.traits.mutates_timestamp || inj.traits.delays_arrival) {
      return suite_has_increasing_;
    }
    if (inj.attributes.empty()) {
      // A value error with no target attributes mutates nothing
      // (attribute resolution yields an empty index set); there is
      // nothing for a suite to detect.
      return true;
    }
    return std::any_of(inj.attributes.begin(), inj.attributes.end(),
                       [&](const std::string& a) {
                         return suite_columns_.count(a) > 0;
                       });
  }

  // -- bookkeeping ----------------------------------------------------

  void ReportDuplicateLabels() {
    for (const auto& [label, paths] : labels_) {
      if (paths.size() < 2) continue;
      for (size_t i = 1; i < paths.size(); ++i) {
        diags_->AddWarning(
            "IW401", paths[i],
            "duplicate polluter label '" + label + "' (also used at " +
                paths[0] + "); PollutionLog entries will be "
                "indistinguishable",
            "give every polluter a unique 'label'");
      }
    }
  }

  std::string JoinNames() const {
    if (options_.schema == nullptr) return "";
    std::string out;
    for (const std::string& n : options_.schema->Names()) {
      if (!out.empty()) out += ", ";
      out += n;
    }
    return out;
  }

  const AnalyzeOptions& options_;
  Diagnostics* diags_;
  std::map<std::string, std::vector<std::string>> labels_;
  std::vector<Injection> injections_;
  std::set<std::string> suite_columns_;
  bool suite_has_increasing_ = false;
  bool saw_suite_ = false;
};

AnalyzeOptions g_hook_options;

}  // namespace

Diagnostics AnalyzePipeline(const Json& pipeline_json,
                            const AnalyzeOptions& options) {
  Diagnostics diags;
  Analyzer(options, &diags).AnalyzePipelineDoc(pipeline_json);
  return diags;
}

Diagnostics AnalyzeSuite(const Json& suite_json,
                         const AnalyzeOptions& options) {
  Diagnostics diags;
  Analyzer(options, &diags).AnalyzeSuiteDoc(suite_json, "");
  return diags;
}

Diagnostics AnalyzeArtifacts(const Json& pipeline_json, const Json* suite_json,
                             const AnalyzeOptions& options) {
  Diagnostics diags;
  Analyzer analyzer(options, &diags);
  analyzer.AnalyzePipelineDoc(pipeline_json);
  if (suite_json != nullptr) {
    analyzer.AnalyzeSuiteDoc(*suite_json, "suite:");
    analyzer.CrossCheckCoverage();
  }
  return diags;
}

namespace {

/// "prefix a, b, c" — or "" when the vocabulary was not provided, so
/// no hint is attached.
std::string JoinHint(const std::string& prefix,
                     const std::vector<std::string>& words) {
  if (words.empty()) return "";
  std::string hint = prefix;
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) hint += ", ";
    hint += words[i];
  }
  return hint;
}

}  // namespace

bool LooksLikeServeConfig(const Json& json) {
  return json.is_object() &&
         (json.Has("scenario") || json.Has("sessions")) &&
         !json.Has("polluters") && !json.Has("expectations");
}

bool LooksLikeCleanerRules(const Json& json) {
  if (!json.is_object() || !json.Has("rules")) return false;
  if (json.Has("polluters") || json.Has("expectations") ||
      json.Has("sessions") || json.Has("scenario")) {
    return false;
  }
  const Json rules = json.Get("rules").ValueOrDie();
  if (!rules.is_array()) return false;
  // Pipeline/suite rule arrays do not exist; a cleaner rule names a
  // repair. An empty array still routes here (the loader then reports
  // the IW701 warning rather than a pipeline parse error).
  for (const Json& entry : rules.items()) {
    if (entry.is_object() && (entry.Has("repair") || entry.Has("detect"))) {
      return true;
    }
  }
  return rules.items().empty();
}

Diagnostics AnalyzeAdminRequest(const Json& request_json,
                                const AdminAnalyzeOptions& options) {
  Diagnostics diags;
  // IW610: the envelope itself.
  if (!request_json.is_object()) {
    diags.AddError("IW610", "", "admin request must be a JSON object",
                   "expected {\"id\": ..., \"method\": ..., \"params\": {...}}");
    return diags;
  }
  if (request_json.Has("id")) {
    const Json id = request_json.Get("id").ValueOrDie();
    if (!id.is_number() && !id.is_string()) {
      diags.AddError("IW610", "/id",
                     "request id must be a number or a string");
    }
  }
  if (!request_json.Has("method") ||
      !request_json.Get("method").ValueOrDie().is_string() ||
      request_json.GetString("method", "").empty()) {
    diags.AddError("IW610", "/method", "missing method name",
                   JoinHint("one of: ", options.known_methods));
    return diags;
  }
  const std::string method = request_json.GetString("method", "");
  Json params = Json::MakeObject();
  if (request_json.Has("params")) {
    const Json value = request_json.Get("params").ValueOrDie();
    if (!value.is_object()) {
      diags.AddError("IW610", "/params", "params must be an object");
      return diags;
    }
    params = value;
  }
  for (const auto& field : request_json.fields()) {
    if (field.first != "id" && field.first != "method" &&
        field.first != "params") {
      diags.AddWarning("IW604", "/" + field.first,
                       "unknown admin request key '" + field.first + "'");
    }
  }

  // IW611: method vocabulary. The per-method checks below would be
  // meaningless for an unknown method.
  if (!options.known_methods.empty()) {
    bool known = false;
    for (const std::string& candidate : options.known_methods) {
      if (candidate == method) known = true;
    }
    if (!known) {
      diags.AddError("IW611", "/method", "unknown method '" + method + "'",
                     JoinHint("one of: ", options.known_methods));
      return diags;
    }
  }

  // IW612: the session target of every per-session method.
  const bool needs_session_id =
      method == "get_config" || method == "swap_pipeline" ||
      method == "set_rate" || method == "stop_session" ||
      method == "set_cleaner";
  if (needs_session_id) {
    if (!params.Has("session") ||
        !params.Get("session").ValueOrDie().is_string() ||
        params.GetString("session", "").empty()) {
      diags.AddError("IW612", "/params/session",
                     method + " needs a \"session\" name (non-empty string)");
    }
  }
  if (method == "create_session") {
    if (!params.Has("session") ||
        !params.Get("session").ValueOrDie().is_object()) {
      diags.AddError(
          "IW612", "/params/session",
          "create_session needs a \"session\" entry object",
          "the same shape as one serve-config sessions[] entry");
    }
  }

  // IW613: swap_pipeline's two mutually exclusive payload forms.
  if (method == "swap_pipeline") {
    const bool has_pipeline = params.Has("pipeline");
    const bool has_scenario = params.Has("scenario");
    if (has_pipeline == has_scenario) {
      diags.AddError("IW613", "/params",
                     "swap_pipeline needs exactly one of \"pipeline\" (a "
                     "pipeline document) or \"scenario\" (a built-in name)");
    } else if (has_pipeline &&
               !params.Get("pipeline").ValueOrDie().is_object()) {
      diags.AddError("IW613", "/params/pipeline",
                     "\"pipeline\" must be a pipeline document object");
    } else if (has_scenario) {
      const Json scenario = params.Get("scenario").ValueOrDie();
      if (!scenario.is_string() || scenario.AsString().empty()) {
        diags.AddError("IW613", "/params/scenario",
                       "\"scenario\" must be a non-empty string",
                       JoinHint("one of: ", options.known_scenarios));
      } else if (!options.known_scenarios.empty()) {
        bool known = false;
        for (const std::string& candidate : options.known_scenarios) {
          if (candidate == scenario.AsString()) known = true;
        }
        if (!known) {
          diags.AddError("IW613", "/params/scenario",
                         "unknown scenario '" + scenario.AsString() + "'",
                         JoinHint("one of: ", options.known_scenarios));
        }
      }
    }
  }

  // IW616: set_cleaner's payload — a cleaning document installs, null
  // removes. A document object goes through the cleaner loader (no
  // schema here; the server binds against the session's schema on
  // apply).
  if (method == "set_cleaner") {
    if (!params.Has("rules")) {
      diags.AddError("IW616", "/params/rules",
                     "set_cleaner needs \"rules\"",
                     "a cleaning document object, or null to remove the "
                     "session's cleaner");
    } else {
      const Json rules = params.Get("rules").ValueOrDie();
      if (rules.is_object()) {
        Diagnostics found;
        (void)clean::RulesFromJson(rules, nullptr, &found);
        diags.Merge(found, "/params/rules");
      } else if (!rules.is_null()) {
        diags.AddError("IW616", "/params/rules",
                       "\"rules\" must be a cleaning document object or "
                       "null");
      }
    }
  }

  // IW614: the pacing rate must be a usable number.
  if (method == "set_rate") {
    if (!params.Has("tuples_per_sec")) {
      diags.AddError("IW614", "/params/tuples_per_sec",
                     "set_rate needs \"tuples_per_sec\"",
                     "rows per second; 0 serves unpaced");
    } else {
      const Json rate = params.Get("tuples_per_sec").ValueOrDie();
      if (!rate.is_number()) {
        diags.AddError("IW614", "/params/tuples_per_sec",
                       "tuples_per_sec must be a number");
      } else if (!std::isfinite(rate.AsDouble()) || rate.AsDouble() < 0) {
        diags.AddError("IW614", "/params/tuples_per_sec",
                       "tuples_per_sec must be finite and >= 0 (got " +
                           FormatDouble(rate.AsDouble()) + ")");
      }
    }
  }

  // IW604: unknown params keys for a known method are likely typos.
  struct MethodKeys {
    const char* method;
    std::vector<const char*> keys;
  };
  static const MethodKeys kMethodKeys[] = {
      {"list_sessions", {}},
      {"get_metrics", {}},
      {"get_config", {"session"}},
      {"stop_session", {"session"}},
      {"swap_pipeline", {"session", "pipeline", "scenario"}},
      {"set_rate", {"session", "tuples_per_sec"}},
      {"create_session", {"session"}},
      {"set_cleaner", {"session", "rules"}},
  };
  for (const MethodKeys& entry : kMethodKeys) {
    if (entry.method != method) continue;
    for (const auto& field : params.fields()) {
      bool known = false;
      for (const char* key : entry.keys) {
        if (field.first == key) known = true;
      }
      if (!known) {
        diags.AddWarning("IW604", "/params/" + field.first,
                         "unknown " + method + " params key '" + field.first +
                             "'");
      }
    }
  }
  return diags;
}

Status AnalyzeOrDie(const Json& pipeline_json, const AnalyzeOptions& options) {
  Diagnostics diags = AnalyzePipeline(pipeline_json, options);
  if (!diags.HasErrors()) return Status::OK();
  return Status::InvalidArgument("pipeline rejected by static analysis:\n" +
                                 diags.ToReport());
}

void InstallAnalyzeOrDieHook(AnalyzeOptions options) {
  g_hook_options = std::move(options);
  SetPipelineLoadHook([](const Json& pipeline_json) {
    return AnalyzeOrDie(pipeline_json, g_hook_options);
  });
}

void UninstallAnalyzeOrDieHook() { SetPipelineLoadHook(nullptr); }

}  // namespace analysis
}  // namespace icewafl
