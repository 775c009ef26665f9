#include "scenarios/closed_loop.h"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "clean/config.h"
#include "core/process.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace icewafl {
namespace scenarios {

namespace {

Json GuardJson(const std::string& column, const std::string& op,
               double value) {
  Json g = Json::MakeObject();
  g.Set("column", column);
  g.Set("op", op);
  g.Set("value", value);
  return g;
}

Json RuleJson(const std::string& label, const std::string& column, Json detect,
              const std::string& repair) {
  Json r = Json::MakeObject();
  r.Set("label", label);
  r.Set("column", column);
  r.Set("detect", std::move(detect));
  r.Set("repair", repair);
  return r;
}

/// The software-update cleaner (scenario 3.1.2). Rule order matters:
/// repairs apply before the next rule sees the tuple, so the broad
/// cross-field distance rule runs before the range backstop, and the
/// BPM zero rule before the BPM NULL rule.
ScenarioCleaner SoftwareUpdateCleaner() {
  ScenarioCleaner cleaner;
  Json rules = Json::MakeArray();

  // km->cm conversions make Distance (cm) exceed Steps; impute from the
  // recent accepted distances.
  Json cross = Json::MakeObject();
  cross.Set("type", "cross_field");
  cross.Set("op", "le");
  cross.Set("other", "Steps");
  rules.Append(
      RuleJson("distance_vs_steps", "Distance", std::move(cross),
               "window_mean"));

  // Backstop for converted distances that still undercut Steps.
  Json range = Json::MakeObject();
  range.Set("type", "range");
  range.Set("min", 0.0);
  range.Set("max", 50.0);
  rules.Append(
      RuleJson("distance_range", "Distance", std::move(range), "window_mean"));

  // Valid calories are 0 or carry >= 3 decimals; rounding to 2 strips
  // the precision. Carry the last accepted reading forward.
  Json regex = Json::MakeObject();
  regex.Set("type", "regex");
  regex.Set("pattern", R"(0|\d+\.\d{3,})");
  Json calories =
      RuleJson("calories_precision", "CaloriesBurned", std::move(regex),
               "last_good");
  Json calories_guard = Json::MakeArray();
  calories_guard.Append(GuardJson("CaloriesBurned", "gt", 0.0));
  calories.Set("when", std::move(calories_guard));
  rules.Append(std::move(calories));

  // A BPM of zero on an active row (Steps > 0) is a sensor fault — the
  // zeroed exercise readings plus the stream's pre-existing anomalies.
  Json bpm_range = Json::MakeObject();
  bpm_range.Set("type", "range");
  bpm_range.Set("min", 1.0);
  bpm_range.Set("max", 250.0);
  Json bpm_zero =
      RuleJson("bpm_zero", "BPM", std::move(bpm_range), "last_good");
  Json bpm_guard = Json::MakeArray();
  bpm_guard.Append(GuardJson("Steps", "gt", 0.0));
  bpm_zero.Set("when", std::move(bpm_guard));
  rules.Append(std::move(bpm_zero));

  Json not_null = Json::MakeObject();
  not_null.Set("type", "not_null");
  rules.Append(RuleJson("bpm_null", "BPM", std::move(not_null), "last_good"));

  Json doc = Json::MakeObject();
  doc.Set("name", "software_update_clean");
  doc.Set("history", static_cast<int64_t>(32));
  doc.Set("rules", std::move(rules));
  cleaner.rules = std::move(doc);

  cleaner.rule_families = {
      {"distance_vs_steps", {"distance_km_to_cm"}},
      {"distance_range", {"distance_km_to_cm"}},
      {"calories_precision", {"calories_precision_2"}},
      {"bpm_zero", {"bpm_to_zero"}},
      // A NULL BPM was zeroed first, then nulled: detecting the NULL
      // detects both injections on that tuple.
      {"bpm_null", {"bpm_to_zero", "bpm_to_null"}},
  };
  cleaner.deterministic_families = {"distance_km_to_cm",
                                    "calories_precision_2", "bpm_to_zero"};
  return cleaner;
}

/// The sinusoidal-NULLs cleaner (scenario 3.1.1): impute missing
/// distances from the recent accepted readings.
ScenarioCleaner RandomTemporalCleaner() {
  ScenarioCleaner cleaner;
  Json not_null = Json::MakeObject();
  not_null.Set("type", "not_null");
  Json rules = Json::MakeArray();
  rules.Append(RuleJson("distance_null", "Distance", std::move(not_null),
                        "window_mean"));
  Json doc = Json::MakeObject();
  doc.Set("name", "random_temporal_clean");
  doc.Set("history", static_cast<int64_t>(32));
  doc.Set("rules", std::move(rules));
  cleaner.rules = std::move(doc);
  cleaner.rule_families = {{"distance_null", {"sinusoidal_nulls"}}};
  // The injection condition is the sinusoidal probability — random, so
  // the family is scored but not part of the F1 acceptance gate.
  cleaner.deterministic_families = {};
  return cleaner;
}

Result<dq::ExpectationSuite> SuiteForScenario(const std::string& scenario) {
  if (scenario == "software_update") return SoftwareUpdateSuite();
  if (scenario == "random_temporal") return RandomTemporalErrorsSuite();
  if (scenario == "network_delay") return NetworkDelaySuite();
  return Status::InvalidArgument("scenario '" + scenario +
                                 "' has no expectation suite");
}

/// Repaired-value tolerance: windowed imputations land near, not on,
/// the original. Strings and NULL must match exactly.
bool RepairAccurate(const Value& repaired, const Value& original) {
  if (repaired.is_null() || original.is_null()) {
    return repaired.is_null() && original.is_null();
  }
  if (repaired.is_numeric() && original.is_numeric()) {
    const double r = repaired.ToDouble().ValueOrDie();
    const double c = original.ToDouble().ValueOrDie();
    const double diff = std::abs(r - c);
    return diff <= 0.5 || diff <= 0.1 * std::abs(c);
  }
  return repaired == original;
}

}  // namespace

Result<ScenarioCleaner> CleanerForScenario(const std::string& scenario) {
  if (scenario == "software_update") return SoftwareUpdateCleaner();
  if (scenario == "random_temporal") return RandomTemporalCleaner();
  return Status::InvalidArgument(
      "scenario '" + scenario +
      "' has no stock cleaner (closed-loop scenarios: software_update, "
      "random_temporal)");
}

Json FamilyScore::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("family", family);
  out.Set("deterministic", deterministic);
  out.Set("ground_truth", static_cast<int64_t>(ground_truth));
  out.Set("true_positives", static_cast<int64_t>(true_positives));
  out.Set("false_positives", static_cast<int64_t>(false_positives));
  out.Set("precision", precision);
  out.Set("recall", recall);
  out.Set("f1", f1);
  return out;
}

double ClosedLoopReport::MinDeterministicF1() const {
  double min_f1 = 1.0;
  for (const FamilyScore& f : families) {
    if (f.deterministic && f.f1 < min_f1) min_f1 = f.f1;
  }
  return min_f1;
}

Json ClosedLoopReport::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("scenario", scenario);
  out.Set("clean_rows", static_cast<int64_t>(clean_rows));
  out.Set("polluted_rows", static_cast<int64_t>(polluted_rows));
  out.Set("cleaned_rows", static_cast<int64_t>(cleaned_rows));
  out.Set("injections", static_cast<int64_t>(injections));
  out.Set("detections", static_cast<int64_t>(detections));
  Json fams = Json::MakeArray();
  for (const FamilyScore& f : families) fams.Append(f.ToJson());
  out.Set("families", std::move(fams));
  out.Set("min_deterministic_f1", MinDeterministicF1());
  out.Set("repairs_scored", static_cast<int64_t>(repairs_scored));
  out.Set("repairs_accurate", static_cast<int64_t>(repairs_accurate));
  out.Set("repair_accuracy", repair_accuracy);
  Json by_rule = Json::MakeObject();
  for (const auto& [rule, counts] : repairs_by_rule) {
    Json entry = Json::MakeObject();
    entry.Set("scored", static_cast<int64_t>(counts.first));
    entry.Set("accurate", static_cast<int64_t>(counts.second));
    by_rule.Set(rule, std::move(entry));
  }
  out.Set("repairs_by_rule", std::move(by_rule));
  out.Set("clean_stats", clean_stats.ToJson());
  out.Set("monitor_polluted", monitor_polluted);
  out.Set("monitor_cleaned", monitor_cleaned);
  return out;
}

Result<ClosedLoopReport> RunClosedLoop(const std::string& scenario,
                                       const ClosedLoopOptions& options,
                                       obs::MetricRegistry* metrics,
                                       TupleVector* cleaned_out) {
  ICEWAFL_ASSIGN_OR_RETURN(ScenarioCleaner cleaner,
                           CleanerForScenario(scenario));
  ICEWAFL_ASSIGN_OR_RETURN(ResolvedScenario resolved,
                           ResolveScenario(scenario, options.dataset_seed));

  // Pollute with ground-truth logging (Algorithm 1, log enabled).
  VectorSource source(resolved.schema, std::move(resolved.clean));
  ICEWAFL_ASSIGN_OR_RETURN(
      PollutionResult polluted,
      PollutionProcess::Pollute(&source, std::move(resolved.pipeline),
                                options.seed));

  ClosedLoopReport report;
  report.scenario = scenario;
  report.clean_rows = polluted.clean.size();
  report.polluted_rows = polluted.polluted.size();

  // Diff-filtered ground truth: an injection only counts when it
  // changed the value the cleaner can observe (a km->cm conversion of
  // 0 km, or a rounding that was already exact, injects nothing).
  std::unordered_map<TupleId, size_t> clean_row, polluted_row;
  clean_row.reserve(polluted.clean.size());
  for (size_t i = 0; i < polluted.clean.size(); ++i) {
    clean_row[polluted.clean[i].id()] = i;
  }
  polluted_row.reserve(polluted.polluted.size());
  for (size_t i = 0; i < polluted.polluted.size(); ++i) {
    polluted_row[polluted.polluted[i].id()] = i;
  }
  std::map<std::string, std::set<TupleId>> ground_truth;
  for (const PollutionLogEntry& entry : polluted.log.entries()) {
    auto c = clean_row.find(entry.tuple_id);
    auto p = polluted_row.find(entry.tuple_id);
    if (c == clean_row.end() || p == polluted_row.end()) continue;
    const Tuple& before = polluted.clean[c->second];
    const Tuple& after = polluted.polluted[p->second];
    bool changed = false;
    for (const std::string& attribute : entry.attributes) {
      Result<size_t> idx = resolved.schema->IndexOf(attribute);
      if (!idx.ok()) continue;
      if (!(before.value(idx.ValueOrDie()) == after.value(idx.ValueOrDie()))) {
        changed = true;
        break;
      }
    }
    // Attribute-less errors (delays) shift time, not values.
    if (changed) ground_truth[entry.polluter].insert(entry.tuple_id);
  }
  for (const auto& [family, ids] : ground_truth) {
    (void)family;
    report.injections += ids.size();
  }

  // Detect + repair.
  ICEWAFL_ASSIGN_OR_RETURN(
      clean::CleaningRules rules,
      clean::RulesFromJson(cleaner.rules, resolved.schema));
  VectorSink cleaned_sink;
  clean::RepairLog repair_log;
  ICEWAFL_RETURN_NOT_OK(clean::CleanTuples(rules, polluted.polluted,
                                           &cleaned_sink, metrics, &repair_log,
                                           &report.clean_stats));
  TupleVector cleaned = cleaned_sink.TakeTuples();
  report.cleaned_rows = cleaned.size();
  report.detections = repair_log.size();

  // Score detection per family.
  std::map<std::string, std::set<TupleId>> detected;
  for (const clean::RepairLogEntry& entry : repair_log.entries()) {
    auto mapped = cleaner.rule_families.find(entry.rule);
    if (mapped == cleaner.rule_families.end()) continue;
    for (const std::string& family : mapped->second) {
      detected[family].insert(entry.tuple_id);
    }
  }
  std::set<std::string> all_families;
  for (const auto& [family, ids] : ground_truth) {
    (void)ids;
    all_families.insert(family);
  }
  for (const auto& [rule, families] : cleaner.rule_families) {
    (void)rule;
    all_families.insert(families.begin(), families.end());
  }
  for (const std::string& family : all_families) {
    FamilyScore score;
    score.family = family;
    score.deterministic = cleaner.deterministic_families.count(family) > 0;
    const std::set<TupleId>& gt = ground_truth[family];
    score.ground_truth = gt.size();
    for (TupleId id : detected[family]) {
      if (gt.count(id) > 0) {
        ++score.true_positives;
      } else {
        ++score.false_positives;
      }
    }
    const uint64_t flagged = score.true_positives + score.false_positives;
    score.precision =
        flagged == 0 ? (score.ground_truth == 0 ? 1.0 : 0.0)
                     : static_cast<double>(score.true_positives) /
                           static_cast<double>(flagged);
    score.recall = score.ground_truth == 0
                       ? 1.0
                       : static_cast<double>(score.true_positives) /
                             static_cast<double>(score.ground_truth);
    score.f1 = (score.precision + score.recall) == 0.0
                   ? 0.0
                   : 2.0 * score.precision * score.recall /
                         (score.precision + score.recall);
    report.families.push_back(std::move(score));
  }

  // Score repair accuracy: the final cleaned value of every repaired
  // (tuple, column) against the clean original.
  std::unordered_map<TupleId, size_t> cleaned_row;
  cleaned_row.reserve(cleaned.size());
  for (size_t i = 0; i < cleaned.size(); ++i) {
    cleaned_row[cleaned[i].id()] = i;
  }
  std::set<std::pair<TupleId, std::string>> scored;
  for (const clean::RepairLogEntry& entry : repair_log.entries()) {
    if (entry.action == "drop") continue;
    if (!scored.insert({entry.tuple_id, entry.column}).second) continue;
    auto c = clean_row.find(entry.tuple_id);
    auto r = cleaned_row.find(entry.tuple_id);
    if (c == clean_row.end() || r == cleaned_row.end()) continue;
    Result<size_t> idx = resolved.schema->IndexOf(entry.column);
    if (!idx.ok()) continue;
    ++report.repairs_scored;
    auto& rule_counts = report.repairs_by_rule[entry.rule];
    ++rule_counts.first;
    if (RepairAccurate(cleaned[r->second].value(idx.ValueOrDie()),
                       polluted.clean[c->second].value(idx.ValueOrDie()))) {
      ++report.repairs_accurate;
      ++rule_counts.second;
    }
  }
  report.repair_accuracy =
      report.repairs_scored == 0
          ? 1.0
          : static_cast<double>(report.repairs_accurate) /
                static_cast<double>(report.repairs_scored);

  // Re-validate: windowed suite verdicts before vs after cleaning.
  const dq::WindowSpec window =
      dq::WindowSpec::Tumbling(options.window_seconds);
  const dq::WatermarkPolicy lateness{options.allowed_lateness_seconds};
  {
    ICEWAFL_ASSIGN_OR_RETURN(dq::ExpectationSuite suite,
                             SuiteForScenario(scenario));
    ICEWAFL_RETURN_NOT_OK(suite.Bind(resolved.schema));
    dq::WindowedMonitor monitor(std::move(suite), window, lateness, metrics);
    ICEWAFL_RETURN_NOT_OK(monitor.ObserveAll(polluted.polluted));
    ICEWAFL_RETURN_NOT_OK(monitor.Flush());
    report.monitor_polluted = monitor.ToJson();
  }
  {
    ICEWAFL_ASSIGN_OR_RETURN(dq::ExpectationSuite suite,
                             SuiteForScenario(scenario));
    ICEWAFL_RETURN_NOT_OK(suite.Bind(resolved.schema));
    dq::WindowedMonitor monitor(std::move(suite), window, lateness, metrics);
    ICEWAFL_RETURN_NOT_OK(monitor.ObserveAll(cleaned));
    ICEWAFL_RETURN_NOT_OK(monitor.Flush());
    report.monitor_cleaned = monitor.ToJson();
  }

  if (cleaned_out != nullptr) *cleaned_out = std::move(cleaned);
  return report;
}

Result<std::shared_ptr<PlanSnapshot>> BuildPlanWithCleaner(
    const PlanSnapshot& base, const Json& rules_json, Diagnostics* diags) {
  std::shared_ptr<PlanSnapshot> next = ClonePlan(base);
  if (rules_json.is_null()) {
    next->cleaner = Json();
    return next;
  }
  // Compile against the session schema so a broken document is rejected
  // with JSON-pointer diagnostics before a snapshot exists to publish.
  ICEWAFL_RETURN_NOT_OK(
      clean::RulesFromJson(rules_json, base.schema, diags).status());
  next->cleaner = rules_json;
  return next;
}

}  // namespace scenarios
}  // namespace icewafl
