#ifndef ICEWAFL_SCENARIOS_CLOSED_LOOP_H_
#define ICEWAFL_SCENARIOS_CLOSED_LOOP_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clean/cleaner.h"
#include "dq/monitor.h"
#include "obs/metrics.h"
#include "scenarios/scenarios.h"
#include "util/diag.h"
#include "util/json.h"

namespace icewafl {
namespace scenarios {

/// \file
/// The closed pollute → detect → clean → re-validate loop (DESIGN.md
/// section 15): a scenario's pipeline pollutes the clean stream while
/// the PollutionLog tags every injected error; a stock cleaning
/// document detects and repairs; the repair log is scored against the
/// diff-filtered ground truth (per-polluter-family precision / recall /
/// F1 plus repair accuracy); and the windowed DQ monitor re-validates
/// the cleaned stream against the scenario's expectation suite.

/// \brief A scenario's stock cleaning setup: the rules document plus
/// the scoring map from rule label to the polluter families it is
/// designed to detect.
struct ScenarioCleaner {
  /// Cleaning document (clean::RulesFromJson shape).
  Json rules;
  /// Rule label -> polluter labels (families) it detects. A rule may
  /// detect several families (a NULL BPM was zeroed first, then
  /// nulled); an unmapped firing scores against no family.
  std::map<std::string, std::vector<std::string>> rule_families;
  /// Families injected by deterministic conditions — the ones the
  /// closed-loop acceptance gate (F1 >= 0.9) applies to. Families gated
  /// on RandomCondition are scored but not gated.
  std::set<std::string> deterministic_families;
};

/// \brief The stock cleaner for `scenario` ("software_update" or
/// "random_temporal"); InvalidArgument for scenarios without one
/// (temporal errors are not value-repairable).
Result<ScenarioCleaner> CleanerForScenario(const std::string& scenario);

/// \brief Detection score of one polluter family.
struct FamilyScore {
  std::string family;
  bool deterministic = false;
  /// Injections that actually changed a value (diff-filtered: a km->cm
  /// conversion of 0 km injects nothing observable).
  uint64_t ground_truth = 0;
  uint64_t true_positives = 0;
  uint64_t false_positives = 0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;

  Json ToJson() const;
};

struct ClosedLoopOptions {
  /// Dataset seed for ResolveScenario (0 keeps the dataset default —
  /// the stock scenario the acceptance thresholds are stated against).
  uint64_t dataset_seed = 0;
  /// Pollution seed (condition randomness).
  uint64_t seed = 42;
  /// Cleaning parallelism (output is byte-identical at every level).
  int parallelism = 1;
  /// Tumbling re-validation window (seconds of event time).
  int64_t window_seconds = 6 * 3600;
  int64_t allowed_lateness_seconds = 0;
};

/// \brief Everything one closed-loop run reports.
struct ClosedLoopReport {
  std::string scenario;
  uint64_t clean_rows = 0;
  uint64_t polluted_rows = 0;
  uint64_t cleaned_rows = 0;
  /// Value-changing ground-truth injections (all families).
  uint64_t injections = 0;
  /// Rule firings (repair-log entries).
  uint64_t detections = 0;
  std::vector<FamilyScore> families;
  /// Repairs whose repaired value landed within tolerance of the clean
  /// original (|r - c| <= 0.5 or within 10% of |c|; strings/NULL must
  /// match exactly). Dropped tuples are not scored.
  uint64_t repairs_scored = 0;
  uint64_t repairs_accurate = 0;
  double repair_accuracy = 0.0;
  /// Per-rule {scored, accurate} breakdown of the same scoring — a
  /// single headline number hides that statistical imputation on bursty
  /// signals (window_mean of a mostly-idle distance column) scores far
  /// worse than last_good on smooth ones (BPM).
  std::map<std::string, std::pair<uint64_t, uint64_t>> repairs_by_rule;
  clean::CleanStats clean_stats;
  /// Windowed suite verdicts before and after cleaning
  /// (dq::WindowedMonitor::ToJson()).
  Json monitor_polluted;
  Json monitor_cleaned;

  /// \brief Smallest F1 across deterministic families (1.0 when none).
  double MinDeterministicF1() const;

  Json ToJson() const;
};

/// \brief Runs the loop end-to-end for a scenario with a stock cleaner.
/// `metrics` (optional) receives the cleaner and window counter series;
/// `cleaned_out` (optional) receives the cleaned stream.
Result<ClosedLoopReport> RunClosedLoop(const std::string& scenario,
                                       const ClosedLoopOptions& options = {},
                                       obs::MetricRegistry* metrics = nullptr,
                                       TupleVector* cleaned_out = nullptr);

// ---------------------------------------------------------------------
// Serving integration: hot-swappable cleaners (PR 9 admin channel)
// ---------------------------------------------------------------------

/// \brief Clones `base` and installs (or, with a null `rules_json`,
/// removes) the cleaner document, validating it against the plan schema
/// first (clean::RulesFromJson, findings into `diags` when non-null) —
/// a broken document never reaches a published snapshot. The admin
/// `set_cleaner` hook compiles through this.
Result<std::shared_ptr<PlanSnapshot>> BuildPlanWithCleaner(
    const PlanSnapshot& base, const Json& rules_json,
    Diagnostics* diags = nullptr);

}  // namespace scenarios
}  // namespace icewafl

#endif  // ICEWAFL_SCENARIOS_CLOSED_LOOP_H_
