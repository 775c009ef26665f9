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
#include "core/composite_polluter.h"
#include "core/config.h"
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

bool IsNumericType(ValueType type) {
  return type == ValueType::kInt64 || type == ValueType::kDouble;
}

/// The analyzer's passes. Each document node is built once, by its
/// loader, which reports every single-field finding (IW100, IW303,
/// IW402); the passes below walk a node's JSON, whose fields the loader
/// has type-checked, beside the object built from it.
class Analyzer {
 public:
  Analyzer(const AnalyzeOptions& options, Diagnostics* diags)
      : options_(options), diags_(diags) {}

  void AnalyzePipelineDoc(const Json& json) {
    auto polluters = PollutersOf(json, diags_);
    if (!polluters.ok()) return;
    for (size_t i = 0; i < polluters.ValueOrDie()->size(); ++i) {
      const Json& entry = (*polluters.ValueOrDie())[i];
      const std::string path = PathOf("/polluters", i);
      auto built = PolluterFromJson(entry, path, diags_);
      if (built.ok()) AnalyzePolluter(entry, *built.ValueOrDie(), path);
    }
    ReportDuplicateLabels();
  }

  /// Suite findings are rooted at `prefix`.
  void AnalyzeSuiteDoc(const Json& json, const std::string& prefix) {
    Diagnostics shape;
    auto expectations = dq::ExpectationsOf(json, &shape);
    diags_->Merge(shape, prefix);
    if (!expectations.ok()) return;
    for (size_t i = 0; i < expectations.ValueOrDie()->size(); ++i) {
      const Json& entry = (*expectations.ValueOrDie())[i];
      const std::string path = PathOf(prefix + "/expectations", i);
      if (dq::ExpectationFromJson(entry, path, diags_).ok()) {
        AnalyzeExpectation(entry, path);
      }
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
  std::optional<ValueType> SchemaTypeOf(const std::string& attribute) const {
    if (options_.schema == nullptr) return std::nullopt;
    auto index = options_.schema->IndexOf(attribute);
    if (!index.ok()) return std::nullopt;
    return options_.schema->attribute(index.ValueOrDie()).type;
  }

  // -- polluters ------------------------------------------------------

  /// Analyzes a loaded polluter; returns its condition's fold, which an
  /// exclusive parent overlap-checks.
  CondInfo AnalyzePolluter(const Json& json, const Polluter& polluter,
                           const std::string& path) {
    const std::string type = json.GetString("type", "");
    const std::string& label = polluter.label();
    labels_[label].push_back(path);

    const bool standard = type == "standard";
    const Condition& condition =
        standard ? static_cast<const StandardPolluter&>(polluter).condition()
                 : static_cast<const CompositePolluter&>(polluter).condition();
    CondInfo cond;
    if (json.Has("condition")) {
      cond = AnalyzeCondition(json.fields().at("condition"), condition,
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

    if (standard) {
      AnalyzeStandardPolluter(
          json, static_cast<const StandardPolluter&>(polluter), path, label);
      return cond;
    }
    const auto& children =
        static_cast<const CompositePolluter&>(polluter).children();
    const Json& children_json = json.fields().at("children");
    std::vector<CondInfo> child_conds;
    for (size_t i = 0; i < children.size(); ++i) {
      child_conds.push_back(
          AnalyzePolluter(children_json.items()[i], *children[i],
                          PathOf(PathOf(path, "children"), i)));
    }
    if (type == "exclusive") CheckExclusive(json, path, child_conds);
    return cond;
  }

  void AnalyzeStandardPolluter(const Json& json,
                               const StandardPolluter& polluter,
                               const std::string& path,
                               const std::string& label) {
    const std::vector<std::string>& attributes = polluter.attributes();
    for (size_t i = 0; i < attributes.size(); ++i) {
      if (options_.schema != nullptr &&
          !options_.schema->Contains(attributes[i])) {
        diags_->AddError("IW101", PathOf(PathOf(path, "attributes"), i),
                         "unknown attribute '" + attributes[i] + "'",
                         "schema columns: " + JoinNames());
      }
    }

    const Json& error_json = json.fields().at("error");
    const std::string error_path = PathOf(path, "error");
    AnalyzeError(error_json, error_path);
    const ErrorTraits traits = polluter.error().Describe();
    const std::string error_type = error_json.GetString("type", "");

    // Value-domain vs column-type compatibility (IW102) and
    // timestamp-target hygiene (IW105).
    for (const std::string& attr : attributes) {
      auto type = SchemaTypeOf(attr);
      if (type.has_value()) {
        const bool numeric = IsNumericType(*type);
        if (traits.domain == ErrorDomain::kNumeric && !numeric) {
          diags_->AddError(
              "IW102", error_path,
              "numeric error '" + error_type +
                  "' targets non-numeric column '" + attr + "' (" +
                  ValueTypeName(*type) + ")",
              "pick a string-domain error or retarget the polluter");
        }
        if (traits.domain == ErrorDomain::kString &&
            *type != ValueType::kString) {
          diags_->AddError(
              "IW102", error_path,
              "string error '" + error_type +
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
    if (json.Has("weights")) {
      const Json& weights = json.fields().at("weights");
      const std::string wpath = PathOf(path, "weights");
      if (weights.items().size() != child_conds.size()) {
        diags_->AddError(
            "IW403", wpath,
            "weights count (" + std::to_string(weights.items().size()) +
                ") does not match children count (" +
                std::to_string(child_conds.size()) + ")");
      }
      double sum = 0.0;
      for (const Json& w : weights.items()) {
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

  /// IW304 when the seconds at `key` exceed one week in magnitude.
  void CheckMagnitude(const Json& json, const std::string& path,
                      const char* key, const char* what) {
    const int64_t seconds = json.GetInt(key, 0);
    if (std::abs(seconds) > kShiftMagnitudeLimit) {
      diags_->AddWarning(
          "IW304", PathOf(path, key),
          std::string(what) + " of " + std::to_string(seconds) +
              "s exceeds one week; check the unit (seconds expected)");
    }
  }

  void AnalyzeError(const Json& json, const std::string& path) {
    const std::string type = json.GetString("type", "");
    if (type == "incorrect_category") {
      const Json& cats = json.fields().at("categories");
      if (cats.items().size() < 2) {
        diags_->AddError(
            "IW107", PathOf(path, "categories"),
            "incorrect_category needs at least 2 categories, got " +
                std::to_string(cats.items().size()),
            "with fewer than 2 there is no wrong category to pick");
      }
    } else if (type == "delay") {
      CheckMagnitude(json, path, "delay_seconds", "duration");
    } else if (type == "frozen_value") {
      CheckMagnitude(json, path, "hold_seconds", "duration");
    } else if (type == "timestamp_jitter") {
      CheckMagnitude(json, path, "max_jitter_seconds", "duration");
    } else if (type == "timestamp_shift") {
      CheckMagnitude(json, path, "shift_seconds", "shift");
    } else if (type == "derived") {
      // The base's own magnitude/arity checks; the traits of the whole
      // node come from DerivedTemporalError.
      AnalyzeError(json.fields().at("base"), PathOf(path, "base"));
    }
  }

  // -- conditions -----------------------------------------------------

  CondInfo AnalyzeCondition(const Json& json, const Condition& condition,
                            const std::string& path) {
    const std::string type = condition.name();
    CondInfo info;
    if (type == "always") {
      info.truth = Truth::kAlways;
    } else if (type == "never") {
      info.truth = Truth::kNever;
      info.intentional_never = true;
    } else if (type == "random") {
      // The loader holds p in [0, 1] (IW203).
      const double p =
          static_cast<const RandomCondition&>(condition).probability();
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
      info = AnalyzeTimeWindow(
          static_cast<const TimeWindowCondition&>(condition), path);
    } else if (type == "daily_window") {
      // The loader holds both minutes in [0, 1439] (IW205).
      const auto& window = static_cast<const DailyWindowCondition&>(condition);
      if (window.start_minute() == 0 && window.end_minute() == 1439) {
        info.truth = Truth::kAlways;
      }
    } else if (type == "profile_probability") {
      const ProfileBounds bounds =
          static_cast<const ProfileProbabilityCondition&>(condition)
              .profile()
              .Bounds();
      if (bounds.hi <= 0.0) {
        info.truth = Truth::kNever;
      } else if (bounds.lo >= 1.0) {
        info.truth = Truth::kAlways;
        diags_->AddWarning(
            "IW202", PathOf(path, "profile"),
            "profile probability is constantly 1; the condition always "
            "fires",
            "use {\"type\": \"always\"}, or lower the profile");
      }
    } else if (type == "and") {
      info = AnalyzeComposite(
          json, static_cast<const AndCondition&>(condition).children(), path,
          true);
    } else if (type == "or") {
      info = AnalyzeComposite(
          json, static_cast<const OrCondition&>(condition).children(), path,
          false);
    } else if (type == "not") {
      CondInfo child = AnalyzeCondition(
          json.fields().at("child"),
          static_cast<const NotCondition&>(condition).child(),
          PathOf(path, "child"));
      info.reported = child.reported;
      if (child.truth == Truth::kAlways) info.truth = Truth::kNever;
      if (child.truth == Truth::kNever) info.truth = Truth::kAlways;
    } else if (type == "window_aggregate") {
      AnalyzeWindowAggregate(json, path);
    } else if (type == "hold") {
      CondInfo inner = AnalyzeCondition(
          json.fields().at("inner"),
          static_cast<const HoldCondition&>(condition).inner(),
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

  CondInfo AnalyzeTimeWindow(const TimeWindowCondition& window,
                             const std::string& path) {
    CondInfo info;
    const Timestamp s = window.start();
    const Timestamp e = window.end();
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
    if (s == INT64_MIN && e == INT64_MAX) info.truth = Truth::kAlways;
    // Against the declared stream bounds (ProcessOptions).
    if ((options_.stream_end.has_value() && s >= *options_.stream_end) ||
        (options_.stream_start.has_value() && e <= *options_.stream_start)) {
      diags_->AddWarning("IW301", path,
                         "time window lies entirely outside the stream "
                         "bounds; the condition never fires on this stream");
    }
    return info;
  }

  CondInfo AnalyzeComposite(const Json& json,
                            const std::vector<ConditionPtr>& children,
                            const std::string& path, bool conjunction) {
    const Json& children_json = json.fields().at("children");
    std::vector<CondInfo> infos;
    for (size_t i = 0; i < children.size(); ++i) {
      infos.push_back(AnalyzeCondition(children_json.items()[i], *children[i],
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
      return;
    }
    auto type = SchemaTypeOf(attr);
    if (type.has_value() && !IsNumericType(*type)) {
      diags_->AddError("IW104", PathOf(path, "attribute"),
                       "window aggregate over non-numeric column '" + attr +
                           "' (" + ValueTypeName(*type) + ")");
    }
  }

  // -- expectations ---------------------------------------------------

  void AnalyzeExpectation(const Json& json, const std::string& path) {
    saw_suite_ = true;
    for (const char* key : {"column", "column_a", "column_b", "where_column"}) {
      if (!json.Has(key)) continue;
      RecordSuiteColumn(json.fields().at(key).AsString(), PathOf(path, key));
    }
    if (json.Has("columns")) {
      const Json& cols = json.fields().at("columns");
      for (size_t i = 0; i < cols.items().size(); ++i) {
        RecordSuiteColumn(cols.items()[i].AsString(),
                          PathOf(PathOf(path, "columns"), i));
      }
    }
    if (json.GetString("type", "") == "expect_column_values_to_be_increasing") {
      suite_has_increasing_ = true;
    }

    // IW503: ranges that no value (or length) can ever satisfy.
    const auto check_range = [&](const char* lo_key, const char* hi_key) {
      if (!json.Has(lo_key) || !json.Has(hi_key)) return;
      const double lo = json.fields().at(lo_key).AsDouble();
      const double hi = json.fields().at(hi_key).AsDouble();
      if (lo > hi) {
        diags_->AddError(
            "IW503", path,
            std::string("empty range: ") + lo_key + " (" +
                std::to_string(lo) + ") > " + hi_key + " (" +
                std::to_string(hi) + "); the expectation can "
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

}  // namespace

Diagnostics AnalyzePipeline(const Json& pipeline_json,
                            const AnalyzeOptions& options) {
  Diagnostics diags;
  Analyzer(options, &diags).AnalyzePipelineDoc(pipeline_json);
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

}  // namespace analysis
}  // namespace icewafl
