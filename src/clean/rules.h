#ifndef ICEWAFL_CLEAN_RULES_H_
#define ICEWAFL_CLEAN_RULES_H_

#include <cstdint>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "stream/bind.h"
#include "stream/schema.h"
#include "stream/tuple.h"
#include "util/json.h"
#include "util/result.h"

namespace icewafl {
namespace clean {

/// \file
/// The rule model of the stream cleaning engine (DESIGN.md section 15).
///
/// A cleaning document pairs *detect rules* (when is a value wrong?)
/// with *repair actions* (what to do about it). Rules follow the same
/// two-phase bind/run lifecycle as polluters and expectations: names
/// resolve to BoundAccessors exactly once, with JSON-pointer paths on
/// every rejection, and the per-tuple path is branch-lean index
/// arithmetic. Stateless rules (range/regex/not_null/type/cross_field)
/// look at one tuple; windowed rules (rate_of_change/stuck_at) and
/// windowed repairs (last_good/window_mean/window_median) consult a
/// bounded per-key history of previously *accepted* values — the
/// Bleach-style windowed context.

/// \brief What the cleaner does to a tuple once a rule fires, in
/// documentation order.
enum class RepairAction {
  kDrop,
  kSetNull,
  kClamp,
  kLastGood,
  kWindowMean,
  kWindowMedian,
};

/// \brief Stable config name of an action ("drop", "set_null", ...).
const char* RepairActionName(RepairAction action);

/// \brief Inverse of RepairActionName; InvalidArgument for unknown names.
Result<RepairAction> RepairActionFromName(const std::string& name);

/// \brief True if the action consults the value history (and therefore
/// forces its rule into the sequential stateful phase).
bool RepairNeedsHistory(RepairAction action);

/// \brief Comparison vocabulary shared by guards and cross-field rules.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };

const char* CompareOpName(CompareOp op);
Result<CompareOp> CompareOpFromName(const std::string& name);
bool EvalCompareOp(CompareOp op, double lhs, double rhs);

/// \brief Bounded ring of the most recent accepted values of one
/// numeric column within one key partition. Push evicts the oldest
/// entry once `capacity` is reached.
class ValueHistory {
 public:
  explicit ValueHistory(size_t capacity) : capacity_(capacity) {
    ring_.reserve(capacity_);
  }

  void Push(double v);
  void Clear();

  size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }

  /// \brief The i-th most recent value; i = 0 is the newest. Requires
  /// i < size().
  double Recent(size_t i) const;

  double Mean() const;
  /// \brief Median of the held values (midpoint average for even
  /// counts); 0 when empty.
  double Median() const;

 private:
  size_t capacity_;
  size_t head_ = 0;  // slot the next Push writes once the ring is full
  std::vector<double> ring_;
};

/// \brief Optional precondition on a rule: the rule is evaluated only
/// when `column op value` holds numerically (NULL and non-numeric
/// values fail the guard, skipping the rule).
struct RuleGuard {
  std::string column;
  CompareOp op = CompareOp::kGt;
  double value = 0.0;
  BoundAccessor accessor;

  Json ToJson() const;
};

/// \brief One detect rule + its repair action. Concrete subclasses
/// implement the detect predicate; repair application is shared logic
/// in the CleanerOperator.
class CleanRule {
 public:
  CleanRule(std::string label, std::string column, RepairAction repair)
      : label_(std::move(label)),
        column_(std::move(column)),
        repair_(repair) {}
  virtual ~CleanRule() = default;

  /// \brief Stable config name of the detect type ("range", ...).
  virtual const char* type() const = 0;

  /// \brief True if detection itself consults the value history.
  virtual bool windowed() const { return false; }

  /// \brief True if the rule must run in the sequential stateful phase
  /// (windowed detection or history-consuming repair).
  bool stateful() const { return windowed() || RepairNeedsHistory(repair_); }

  /// \brief True if the detect reads any column type (not_null, regex,
  /// type); every other detect reads its column numerically.
  virtual bool reads_any_type() const { return false; }

  /// \brief Resolves the rule's column references against the schema:
  /// `column()` (numerically unless reads_any_type()) and every guard
  /// column (numerically). Subclasses with more references chain up.
  virtual Status Bind(BindContext& ctx);

  /// \brief Detect predicate: does this tuple's value violate the rule?
  /// `history` is the per-key history of the rule's column (non-null
  /// only for windowed rules). NULL and type-mismatched values never
  /// violate stateless numeric rules — that is not_null's / type's job.
  virtual bool Violates(const Tuple& tuple,
                        const ValueHistory* history) const = 0;

  /// \brief Clamp bounds, when the detect type defines them (range
  /// only). False means the clamp repair is unavailable for this rule.
  virtual bool ClampBounds(double* lo, double* hi) const {
    (void)lo;
    (void)hi;
    return false;
  }

  virtual std::unique_ptr<CleanRule> Clone() const = 0;

  /// \brief Full config form: {"label", "column", "detect": {...},
  /// "repair", "when"?}.
  Json ToJson() const;

  const std::string& label() const { return label_; }
  const std::string& column() const { return column_; }
  RepairAction repair() const { return repair_; }
  const BoundAccessor& accessor() const { return accessor_; }
  const std::vector<RuleGuard>& guards() const { return guards_; }
  std::vector<RuleGuard>* mutable_guards() { return &guards_; }

  /// \brief True once every guard admits the tuple.
  bool GuardsPass(const Tuple& tuple) const;

  /// \brief Copies bind-produced state (accessors, guards) from `from`
  /// onto this rule — Clone() support, so a clone
  /// of a bound rule is itself bound. `from` must be the same concrete
  /// type. Subclasses with extra bind state override and chain up.
  virtual void CopyBindState(const CleanRule& from) {
    accessor_ = from.accessor_;
    guards_ = from.guards_;
  }

 protected:
  /// \brief The "detect" object of ToJson().
  virtual Json DetectJson() const = 0;

  std::string label_;
  std::string column_;
  RepairAction repair_;
  BoundAccessor accessor_;
  std::vector<RuleGuard> guards_;
};

/// \brief Numeric value must lie in [min, max].
class RangeRule : public CleanRule {
 public:
  RangeRule(std::string label, std::string column, double min, double max,
            RepairAction repair)
      : CleanRule(std::move(label), std::move(column), repair),
        min_(min),
        max_(max) {}

  const char* type() const override { return "range"; }
  bool Violates(const Tuple& tuple, const ValueHistory*) const override;
  bool ClampBounds(double* lo, double* hi) const override {
    *lo = min_;
    *hi = max_;
    return true;
  }
  std::unique_ptr<CleanRule> Clone() const override;

  double min() const { return min_; }
  double max() const { return max_; }

 protected:
  Json DetectJson() const override;

 private:
  double min_;
  double max_;
};

/// \brief Value must be non-NULL.
class NotNullRule : public CleanRule {
 public:
  NotNullRule(std::string label, std::string column, RepairAction repair)
      : CleanRule(std::move(label), std::move(column), repair) {}

  const char* type() const override { return "not_null"; }
  bool reads_any_type() const override { return true; }
  bool Violates(const Tuple& tuple, const ValueHistory*) const override;
  std::unique_ptr<CleanRule> Clone() const override;

 protected:
  Json DetectJson() const override;
};

/// \brief Rendered value must match the anchored pattern (same
/// rendering as CSV/suite output, so the pattern vocabulary carries
/// over from ExpectColumnValuesToMatchRegex). NULLs are skipped. The
/// pattern compiles once, in the constructor, which throws
/// std::regex_error for an invalid one (the loader reports it as
/// IW704); clones copy the compiled form.
class RegexRule : public CleanRule {
 public:
  RegexRule(std::string label, std::string column, std::string pattern,
            RepairAction repair)
      : CleanRule(std::move(label), std::move(column), repair),
        pattern_(std::move(pattern)),
        regex_(pattern_, std::regex::ECMAScript) {}

  const char* type() const override { return "regex"; }
  bool reads_any_type() const override { return true; }
  bool Violates(const Tuple& tuple, const ValueHistory*) const override;
  std::unique_ptr<CleanRule> Clone() const override;

  const std::string& pattern() const { return pattern_; }

 protected:
  Json DetectJson() const override;

 private:
  std::string pattern_;
  std::regex regex_;
  /// Reused render buffer — no per-tuple allocation for short values.
  mutable std::string storage_;
};

/// \brief Non-NULL value must carry the declared type.
class TypeRule : public CleanRule {
 public:
  TypeRule(std::string label, std::string column, ValueType expected,
           RepairAction repair)
      : CleanRule(std::move(label), std::move(column), repair),
        expected_(expected) {}

  const char* type() const override { return "type"; }
  bool reads_any_type() const override { return true; }
  bool Violates(const Tuple& tuple, const ValueHistory*) const override;
  std::unique_ptr<CleanRule> Clone() const override;

  ValueType expected() const { return expected_; }

 protected:
  Json DetectJson() const override;

 private:
  ValueType expected_;
};

/// \brief Cross-field invariant: `column op other` must hold whenever
/// both read numerically; the repair applies to `column`.
class CrossFieldRule : public CleanRule {
 public:
  CrossFieldRule(std::string label, std::string column, CompareOp op,
                 std::string other, RepairAction repair)
      : CleanRule(std::move(label), std::move(column), repair),
        op_(op),
        other_(std::move(other)) {}

  const char* type() const override { return "cross_field"; }
  Status Bind(BindContext& ctx) override;
  bool Violates(const Tuple& tuple, const ValueHistory*) const override;
  std::unique_ptr<CleanRule> Clone() const override;

  const std::string& other() const { return other_; }
  CompareOp op() const { return op_; }

  void CopyBindState(const CleanRule& from) override {
    CleanRule::CopyBindState(from);
    other_accessor_ = static_cast<const CrossFieldRule&>(from).other_accessor_;
  }

 protected:
  Json DetectJson() const override;

 private:
  CompareOp op_;
  std::string other_;
  BoundAccessor other_accessor_;
};

/// \brief Windowed: |value - last accepted value| must not exceed
/// `max_change`. Never fires while the history is empty.
class RateOfChangeRule : public CleanRule {
 public:
  RateOfChangeRule(std::string label, std::string column, double max_change,
                   RepairAction repair)
      : CleanRule(std::move(label), std::move(column), repair),
        max_change_(max_change) {}

  const char* type() const override { return "rate_of_change"; }
  bool windowed() const override { return true; }
  bool Violates(const Tuple& tuple,
                const ValueHistory* history) const override;
  std::unique_ptr<CleanRule> Clone() const override;

  double max_change() const { return max_change_; }

 protected:
  Json DetectJson() const override;

 private:
  double max_change_;
};

/// \brief Windowed stuck-at detection: fires when the value equals the
/// previous `min_repeats - 1` accepted values (the sensor has reported
/// the same reading `min_repeats` times in a row).
class StuckAtRule : public CleanRule {
 public:
  StuckAtRule(std::string label, std::string column, size_t min_repeats,
              RepairAction repair)
      : CleanRule(std::move(label), std::move(column), repair),
        min_repeats_(min_repeats) {}

  const char* type() const override { return "stuck_at"; }
  bool windowed() const override { return true; }
  bool Violates(const Tuple& tuple,
                const ValueHistory* history) const override;
  std::unique_ptr<CleanRule> Clone() const override;

  size_t min_repeats() const { return min_repeats_; }

 protected:
  Json DetectJson() const override;

 private:
  size_t min_repeats_;
};

/// \brief One parsed cleaning document: named, optionally key-
/// partitioned, with a bounded history capacity shared by every
/// windowed rule and repair.
struct CleaningRules {
  std::string name = "clean";
  /// Optional column partitioning the value history (per-device state);
  /// empty keeps one global partition.
  std::string key;
  /// Ring capacity of each per-key, per-column history.
  size_t history = 16;
  std::vector<std::unique_ptr<CleanRule>> rules;

  CleaningRules() = default;
  CleaningRules(CleaningRules&&) = default;
  CleaningRules& operator=(CleaningRules&&) = default;

  /// \brief Deep copy (each worker clone of the CleanerOperator owns
  /// its own rule instances).
  CleaningRules Clone() const;

  /// \brief Canonical JSON form; round-trips through RulesFromJson.
  Json ToJson() const;

  bool HasStateless() const;
  bool HasStateful() const;
};

}  // namespace clean
}  // namespace icewafl

#endif  // ICEWAFL_CLEAN_RULES_H_
