#ifndef ICEWAFL_CORE_CONDITION_H_
#define ICEWAFL_CORE_CONDITION_H_

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/context.h"
#include "core/time_profile.h"
#include "stream/bind.h"
#include "stream/tuple.h"
#include "util/json.h"
#include "util/result.h"

namespace icewafl {

/// \brief A pollution condition c(t, tau) (Section 2.2).
///
/// Determines per tuple whether the polluter's error is injected.
/// Following Schelter et al., conditions cover (i) completely-at-random,
/// (ii) depending on the values to be polluted, (iii) depending on other
/// values of the tuple; Icewafl adds (iv) temporal conditions on the event
/// time, and (v) composites conjoining any of the above.
///
/// Conditions follow the two-phase bind/run lifecycle (DESIGN.md §8):
/// Bind resolves attribute names against the schema once and surfaces
/// misconfiguration as a Status with a JSON-pointer path; Evaluate is the
/// noexcept per-tuple hot path with no error plumbing.
class Condition {
 public:
  virtual ~Condition() = default;

  /// \brief Compiles the condition against a schema: attribute names
  /// become column indices, type mismatches are rejected here. Default
  /// is a no-op for schema-independent conditions. Idempotent; callers
  /// may re-bind against a different schema.
  virtual Status Bind(BindContext& ctx) {
    (void)ctx;
    return Status::OK();
  }

  /// \brief Decides whether to pollute `tuple`. Schema-dependent
  /// conditions must be bound first; an unbound (or RNG-less random)
  /// condition conservatively returns false.
  virtual bool Evaluate(const Tuple& tuple,
                        PollutionContext* ctx) noexcept = 0;

  virtual std::string name() const = 0;
  virtual Json ToJson() const = 0;
  virtual std::unique_ptr<Condition> Clone() const = 0;
};

using ConditionPtr = std::unique_ptr<Condition>;

/// \brief Fires for every tuple.
class AlwaysCondition : public Condition {
 public:
  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "always"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;
};

/// \brief Never fires (disables a polluter without removing it).
class NeverCondition : public Condition {
 public:
  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "never"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;
};

/// \brief Completely-at-random condition: fires with probability p
/// (the loader refuses a p outside [0, 1] as IW203).
class RandomCondition : public Condition {
 public:
  explicit RandomCondition(double p);
  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "random"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

  double probability() const { return p_; }

 private:
  double p_;
};

/// \brief Comparison operator for value conditions.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIsNull,
  kNotNull,
};

/// \brief Parses "==", "!=", "<", "<=", ">", ">=", "is_null", "not_null".
Result<CompareOp> ParseCompareOp(const std::string& text);
const char* CompareOpName(CompareOp op);

/// \brief Value-dependent condition: compares one attribute of the input
/// tuple against a constant (e.g. "BPM > 100"). Whether this realizes
/// error mechanism (ii) or (iii) depends on whether the attribute is in
/// the polluter's target set.
class ValueCondition : public Condition {
 public:
  ValueCondition(std::string attribute, CompareOp op, Value operand = Value());

  /// Resolves the attribute and rejects operand/column type mismatches
  /// (a numeric operand against a string column and vice versa).
  Status Bind(BindContext& ctx) override;

  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "value"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

 private:
  std::string attribute_;
  CompareOp op_;
  Value operand_;
  BoundAccessor accessor_;
  bool bound_ = false;
};

/// \brief Temporal condition: fires while the event time lies in
/// [start, end) (absolute window). Either bound may be open
/// (INT64_MIN / INT64_MAX).
class TimeWindowCondition : public Condition {
 public:
  TimeWindowCondition(Timestamp start, Timestamp end);

  /// \brief Convenience: fires from `start` onward (e.g. the
  /// software-update date condition "Time >= 2016-02-27").
  static ConditionPtr After(Timestamp start);

  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "time_window"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

  Timestamp start() const { return start_; }
  Timestamp end() const { return end_; }

 private:
  Timestamp start_;
  Timestamp end_;
};

/// \brief Recurring daily window on the wall clock: fires when the event
/// time's minute-of-day lies in [start_minute, end_minute] (inclusive;
/// e.g. 13:00-14:59 -> [780, 899]).
class DailyWindowCondition : public Condition {
 public:
  DailyWindowCondition(int start_minute, int end_minute);
  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "daily_window"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

  int start_minute() const { return start_minute_; }
  int end_minute() const { return end_minute_; }

 private:
  int start_minute_;
  int end_minute_;
};

/// \brief Time-varying random condition: fires with probability
/// profile(tau) (e.g. the sinusoidal daily pattern of Experiment 3.1.1 or
/// the ramp of Equation 4).
class ProfileProbabilityCondition : public Condition {
 public:
  explicit ProfileProbabilityCondition(TimeProfilePtr profile);
  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "profile_probability"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

  const TimeProfile& profile() const { return *profile_; }

 private:
  TimeProfilePtr profile_;
};

/// \brief Conjunction: fires iff all children fire. Children are
/// evaluated in order with short-circuiting.
class AndCondition : public Condition {
 public:
  explicit AndCondition(std::vector<ConditionPtr> children);
  Status Bind(BindContext& ctx) override;
  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "and"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

  const std::vector<ConditionPtr>& children() const { return children_; }

 private:
  std::vector<ConditionPtr> children_;
};

/// \brief Disjunction: fires iff any child fires (short-circuiting).
class OrCondition : public Condition {
 public:
  explicit OrCondition(std::vector<ConditionPtr> children);
  Status Bind(BindContext& ctx) override;
  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "or"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

  const std::vector<ConditionPtr>& children() const { return children_; }

 private:
  std::vector<ConditionPtr> children_;
};

/// \brief Aggregation operator for windowed conditions.
enum class WindowAgg {
  kMean,
  kMin,
  kMax,
  kSum,
  kCount,
};

Result<WindowAgg> ParseWindowAgg(const std::string& text);
const char* WindowAggName(WindowAgg agg);

/// \brief Stream-state condition: compares an aggregate of an attribute
/// over the trailing event-time window against a threshold (e.g. the
/// motivating example's "if Avg(Temp) > 20").
///
/// This realizes the paper's future-work extension of the pollution
/// model to "time-dependent states of the data stream": the condition
/// maintains the window incrementally as tuples flow past, so errors can
/// depend on the stream's recent history rather than only the current
/// tuple. NULL and non-numeric values are skipped; an empty window never
/// fires (except for kCount, which compares 0).
class WindowAggregateCondition : public Condition {
 public:
  /// \param op one of ==, !=, <, <=, >, >= (null checks are invalid and
  ///   rejected by Bind; the config loader rejects them at parse time).
  WindowAggregateCondition(std::string attribute, int64_t window_seconds,
                           WindowAgg agg, CompareOp op, double threshold);

  /// Resolves the attribute (which must be a numeric column) and
  /// rejects null comparison operators.
  Status Bind(BindContext& ctx) override;

  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "window_aggregate"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

 private:
  std::string attribute_;
  int64_t window_seconds_;
  WindowAgg agg_;
  CompareOp op_;
  double threshold_;
  BoundAccessor accessor_;
  bool bound_ = false;
  // Trailing window of (event time, value); sum_ kept incrementally.
  std::deque<std::pair<Timestamp, double>> window_;
  double sum_ = 0.0;
};

/// \brief Stateful temporal dependency: once the inner condition fires,
/// this condition stays active for `hold_seconds` of event time.
///
/// Models errors that persist for an interval after a trigger (e.g. the
/// paper's scale errors applied "for four-hour intervals"): a cheap
/// per-tuple trigger activates the polluter for a whole window. The
/// inner condition is not consulted while a hold is active.
class HoldCondition : public Condition {
 public:
  HoldCondition(ConditionPtr inner, int64_t hold_seconds);
  Status Bind(BindContext& ctx) override;
  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "hold"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

  const Condition& inner() const { return *inner_; }

 private:
  ConditionPtr inner_;
  int64_t hold_seconds_;
  Timestamp hold_until_ = INT64_MIN;
};

/// \brief Negation of a child condition.
class NotCondition : public Condition {
 public:
  explicit NotCondition(ConditionPtr child);
  Status Bind(BindContext& ctx) override;
  bool Evaluate(const Tuple& tuple, PollutionContext* ctx) noexcept override;
  std::string name() const override { return "not"; }
  Json ToJson() const override;
  ConditionPtr Clone() const override;

  const Condition& child() const { return *child_; }

 private:
  ConditionPtr child_;
};

}  // namespace icewafl

#endif  // ICEWAFL_CORE_CONDITION_H_
