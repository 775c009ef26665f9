#include "core/condition.h"

#include <algorithm>

namespace icewafl {

bool AlwaysCondition::Evaluate(const Tuple&, PollutionContext*) noexcept {
  return true;
}

Json AlwaysCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "always");
  return j;
}

ConditionPtr AlwaysCondition::Clone() const {
  return std::make_unique<AlwaysCondition>();
}

bool NeverCondition::Evaluate(const Tuple&, PollutionContext*) noexcept {
  return false;
}

Json NeverCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "never");
  return j;
}

ConditionPtr NeverCondition::Clone() const {
  return std::make_unique<NeverCondition>();
}

RandomCondition::RandomCondition(double p) : p_(p) {}

bool RandomCondition::Evaluate(const Tuple&, PollutionContext* ctx) noexcept {
  // Polluters install their private stream before evaluating; without
  // one there is no reproducible draw to make, so stay silent.
  if (ctx->rng == nullptr) return false;
  return ctx->rng->Bernoulli(p_);
}

Json RandomCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "random");
  j.Set("p", p_);
  return j;
}

ConditionPtr RandomCondition::Clone() const {
  return std::make_unique<RandomCondition>(*this);
}

Result<CompareOp> ParseCompareOp(const std::string& text) {
  if (text == "==") return CompareOp::kEq;
  if (text == "!=") return CompareOp::kNe;
  if (text == "<") return CompareOp::kLt;
  if (text == "<=") return CompareOp::kLe;
  if (text == ">") return CompareOp::kGt;
  if (text == ">=") return CompareOp::kGe;
  if (text == "is_null") return CompareOp::kIsNull;
  if (text == "not_null") return CompareOp::kNotNull;
  return Status::ParseError("unknown comparison operator: '" + text + "'");
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kIsNull:
      return "is_null";
    case CompareOp::kNotNull:
      return "not_null";
  }
  return "?";
}

ValueCondition::ValueCondition(std::string attribute, CompareOp op,
                               Value operand)
    : attribute_(std::move(attribute)), op_(op), operand_(std::move(operand)) {}

Status ValueCondition::Bind(BindContext& ctx) {
  {
    BindContext::Scope scope(ctx, "attribute");
    ICEWAFL_ASSIGN_OR_RETURN(accessor_, ctx.Resolve(attribute_));
  }
  // Mirror of lint IW104: a numeric operand can never equal (or order
  // against) a string column and vice versa, so the condition is a
  // misconfiguration, not a per-tuple outcome.
  const ValueType column = accessor_.declared_type();
  const bool column_numeric =
      column == ValueType::kInt64 || column == ValueType::kDouble;
  if (operand_.is_numeric() && column == ValueType::kString) {
    BindContext::Scope scope(ctx, "operand");
    return ctx.Error(StatusCode::kTypeError,
                     "numeric operand compared against string column '" +
                         attribute_ + "'");
  }
  if (operand_.is_string() && column_numeric) {
    BindContext::Scope scope(ctx, "operand");
    return ctx.Error(StatusCode::kTypeError,
                     "string operand compared against numeric column '" +
                         attribute_ + "'");
  }
  bound_ = true;
  return Status::OK();
}

bool ValueCondition::Evaluate(const Tuple& tuple,
                              PollutionContext*) noexcept {
  if (!bound_) return false;
  const Value& v = accessor_.at(tuple);
  switch (op_) {
    case CompareOp::kIsNull:
      return v.is_null();
    case CompareOp::kNotNull:
      return !v.is_null();
    default:
      break;
  }
  // NULL compares false against everything (SQL-like semantics) except
  // equality with an explicit NULL operand.
  if (v.is_null() || operand_.is_null()) {
    if (op_ == CompareOp::kEq) return v.is_null() && operand_.is_null();
    if (op_ == CompareOp::kNe) return v.is_null() != operand_.is_null();
    return false;
  }
  switch (op_) {
    case CompareOp::kEq:
      if (v.is_numeric() && operand_.is_numeric()) {
        return v.ToDouble().ValueOrDie() == operand_.ToDouble().ValueOrDie();
      }
      return v == operand_;
    case CompareOp::kNe:
      if (v.is_numeric() && operand_.is_numeric()) {
        return v.ToDouble().ValueOrDie() != operand_.ToDouble().ValueOrDie();
      }
      return !(v == operand_);
    case CompareOp::kLt:
      return v < operand_;
    case CompareOp::kLe:
      return !(operand_ < v);
    case CompareOp::kGt:
      return operand_ < v;
    case CompareOp::kGe:
      return !(v < operand_);
    default:
      return false;  // unreachable: null ops handled above
  }
}

Json ValueCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "value");
  j.Set("attribute", attribute_);
  j.Set("op", CompareOpName(op_));
  switch (operand_.type()) {
    case ValueType::kNull:
      j.Set("operand", Json());
      break;
    case ValueType::kBool:
      j.Set("operand", Json(operand_.AsBool()));
      break;
    case ValueType::kInt64:
      j.Set("operand", Json(operand_.AsInt64()));
      j.Set("operand_type", "int64");
      break;
    case ValueType::kDouble:
      j.Set("operand", Json(operand_.AsDouble()));
      break;
    case ValueType::kString:
      j.Set("operand", Json(operand_.AsString()));
      break;
  }
  return j;
}

ConditionPtr ValueCondition::Clone() const {
  // Copy construction preserves the bound accessor.
  return std::make_unique<ValueCondition>(*this);
}

TimeWindowCondition::TimeWindowCondition(Timestamp start, Timestamp end)
    : start_(start), end_(end) {}

ConditionPtr TimeWindowCondition::After(Timestamp start) {
  return std::make_unique<TimeWindowCondition>(start, INT64_MAX);
}

bool TimeWindowCondition::Evaluate(const Tuple&,
                                   PollutionContext* ctx) noexcept {
  return ctx->tau >= start_ && ctx->tau < end_;
}

Json TimeWindowCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "time_window");
  // Open bounds are omitted: INT64_MIN/MAX do not survive the JSON
  // double representation, and the config loader defaults absent bounds
  // to fully open anyway.
  if (start_ != INT64_MIN) j.Set("start", static_cast<int64_t>(start_));
  if (end_ != INT64_MAX) j.Set("end", static_cast<int64_t>(end_));
  return j;
}

ConditionPtr TimeWindowCondition::Clone() const {
  return std::make_unique<TimeWindowCondition>(*this);
}

DailyWindowCondition::DailyWindowCondition(int start_minute, int end_minute)
    : start_minute_(start_minute), end_minute_(end_minute) {}

bool DailyWindowCondition::Evaluate(const Tuple&,
                                    PollutionContext* ctx) noexcept {
  const int minute = MinuteOfDay(ctx->tau);
  if (start_minute_ <= end_minute_) {
    return minute >= start_minute_ && minute <= end_minute_;
  }
  // Window wrapping midnight, e.g. 23:00-01:00.
  return minute >= start_minute_ || minute <= end_minute_;
}

Json DailyWindowCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "daily_window");
  j.Set("start_minute", start_minute_);
  j.Set("end_minute", end_minute_);
  return j;
}

ConditionPtr DailyWindowCondition::Clone() const {
  return std::make_unique<DailyWindowCondition>(*this);
}

ProfileProbabilityCondition::ProfileProbabilityCondition(
    TimeProfilePtr profile)
    : profile_(std::move(profile)) {}

bool ProfileProbabilityCondition::Evaluate(const Tuple&,
                                           PollutionContext* ctx) noexcept {
  if (ctx->rng == nullptr) return false;
  return ctx->rng->Bernoulli(profile_->Evaluate(*ctx));
}

Json ProfileProbabilityCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "profile_probability");
  j.Set("profile", profile_->ToJson());
  return j;
}

ConditionPtr ProfileProbabilityCondition::Clone() const {
  return std::make_unique<ProfileProbabilityCondition>(profile_->Clone());
}

AndCondition::AndCondition(std::vector<ConditionPtr> children)
    : children_(std::move(children)) {}

Status AndCondition::Bind(BindContext& ctx) {
  BindContext::Scope scope(ctx, "children");
  for (size_t i = 0; i < children_.size(); ++i) {
    BindContext::Scope child_scope(ctx, i);
    ICEWAFL_RETURN_NOT_OK(children_[i]->Bind(ctx));
  }
  return Status::OK();
}

bool AndCondition::Evaluate(const Tuple& tuple,
                            PollutionContext* ctx) noexcept {
  for (const ConditionPtr& child : children_) {
    if (!child->Evaluate(tuple, ctx)) return false;
  }
  return true;
}

Json AndCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "and");
  Json arr = Json::MakeArray();
  for (const ConditionPtr& c : children_) arr.Append(c->ToJson());
  j.Set("children", std::move(arr));
  return j;
}

ConditionPtr AndCondition::Clone() const {
  std::vector<ConditionPtr> clones;
  clones.reserve(children_.size());
  for (const ConditionPtr& c : children_) clones.push_back(c->Clone());
  return std::make_unique<AndCondition>(std::move(clones));
}

OrCondition::OrCondition(std::vector<ConditionPtr> children)
    : children_(std::move(children)) {}

Status OrCondition::Bind(BindContext& ctx) {
  BindContext::Scope scope(ctx, "children");
  for (size_t i = 0; i < children_.size(); ++i) {
    BindContext::Scope child_scope(ctx, i);
    ICEWAFL_RETURN_NOT_OK(children_[i]->Bind(ctx));
  }
  return Status::OK();
}

bool OrCondition::Evaluate(const Tuple& tuple,
                           PollutionContext* ctx) noexcept {
  for (const ConditionPtr& child : children_) {
    if (child->Evaluate(tuple, ctx)) return true;
  }
  return false;
}

Json OrCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "or");
  Json arr = Json::MakeArray();
  for (const ConditionPtr& c : children_) arr.Append(c->ToJson());
  j.Set("children", std::move(arr));
  return j;
}

ConditionPtr OrCondition::Clone() const {
  std::vector<ConditionPtr> clones;
  clones.reserve(children_.size());
  for (const ConditionPtr& c : children_) clones.push_back(c->Clone());
  return std::make_unique<OrCondition>(std::move(clones));
}

Result<WindowAgg> ParseWindowAgg(const std::string& text) {
  if (text == "mean") return WindowAgg::kMean;
  if (text == "min") return WindowAgg::kMin;
  if (text == "max") return WindowAgg::kMax;
  if (text == "sum") return WindowAgg::kSum;
  if (text == "count") return WindowAgg::kCount;
  return Status::ParseError("unknown window aggregate: '" + text + "'");
}

const char* WindowAggName(WindowAgg agg) {
  switch (agg) {
    case WindowAgg::kMean:
      return "mean";
    case WindowAgg::kMin:
      return "min";
    case WindowAgg::kMax:
      return "max";
    case WindowAgg::kSum:
      return "sum";
    case WindowAgg::kCount:
      return "count";
  }
  return "?";
}

WindowAggregateCondition::WindowAggregateCondition(std::string attribute,
                                                   int64_t window_seconds,
                                                   WindowAgg agg, CompareOp op,
                                                   double threshold)
    : attribute_(std::move(attribute)),
      window_seconds_(window_seconds),
      agg_(agg),
      op_(op),
      threshold_(threshold) {}

Status WindowAggregateCondition::Bind(BindContext& ctx) {
  if (op_ == CompareOp::kIsNull || op_ == CompareOp::kNotNull) {
    BindContext::Scope scope(ctx, "op");
    return ctx.Error(
        StatusCode::kInvalidArgument,
        "window_aggregate does not support null comparison operators");
  }
  BindContext::Scope scope(ctx, "attribute");
  ICEWAFL_ASSIGN_OR_RETURN(BoundAccessor accessor, ctx.Resolve(attribute_));
  // Mirror of lint IW104: only int64/double columns aggregate.
  const ValueType type = accessor.declared_type();
  if (type != ValueType::kInt64 && type != ValueType::kDouble) {
    return ctx.Error(StatusCode::kTypeError,
                     "window aggregate over non-numeric column '" +
                         attribute_ + "' (" + ValueTypeName(type) + ")");
  }
  accessor_ = accessor;
  bound_ = true;
  return Status::OK();
}

bool WindowAggregateCondition::Evaluate(const Tuple& tuple,
                                        PollutionContext* ctx) noexcept {
  if (!bound_) return false;
  // Ingest the current tuple's value into the window. Values whose
  // runtime type diverged from the declared column type (an upstream
  // polluter may have rewritten it) are skipped like NULLs.
  const Value& v = accessor_.at(tuple);
  if (v.is_numeric()) {
    const double x = v.is_double() ? v.AsDouble()
                                   : static_cast<double>(v.AsInt64());
    window_.emplace_back(ctx->tau, x);
    sum_ += x;
  }
  // Evict everything outside the half-open trailing window
  // (tau - window_seconds, tau].
  const Timestamp cutoff = ctx->tau - window_seconds_;
  while (!window_.empty() && window_.front().first <= cutoff) {
    sum_ -= window_.front().second;
    window_.pop_front();
  }

  double aggregate = 0.0;
  switch (agg_) {
    case WindowAgg::kCount:
      aggregate = static_cast<double>(window_.size());
      break;
    case WindowAgg::kSum:
      aggregate = sum_;
      break;
    case WindowAgg::kMean:
      if (window_.empty()) return false;
      aggregate = sum_ / static_cast<double>(window_.size());
      break;
    case WindowAgg::kMin:
    case WindowAgg::kMax: {
      if (window_.empty()) return false;
      aggregate = window_.front().second;
      for (const auto& [ts, value] : window_) {
        aggregate = agg_ == WindowAgg::kMin ? std::min(aggregate, value)
                                            : std::max(aggregate, value);
      }
      break;
    }
  }

  switch (op_) {
    case CompareOp::kEq:
      return aggregate == threshold_;
    case CompareOp::kNe:
      return aggregate != threshold_;
    case CompareOp::kLt:
      return aggregate < threshold_;
    case CompareOp::kLe:
      return aggregate <= threshold_;
    case CompareOp::kGt:
      return aggregate > threshold_;
    case CompareOp::kGe:
      return aggregate >= threshold_;
    default:
      return false;  // null ops rejected at Bind
  }
}

Json WindowAggregateCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "window_aggregate");
  j.Set("attribute", attribute_);
  j.Set("window_seconds", window_seconds_);
  j.Set("agg", WindowAggName(agg_));
  j.Set("op", CompareOpName(op_));
  j.Set("threshold", threshold_);
  return j;
}

ConditionPtr WindowAggregateCondition::Clone() const {
  // Fresh clones start with an empty window but keep the bound accessor
  // so worker clones never re-resolve.
  auto clone = std::make_unique<WindowAggregateCondition>(
      attribute_, window_seconds_, agg_, op_, threshold_);
  clone->accessor_ = accessor_;
  clone->bound_ = bound_;
  return clone;
}

HoldCondition::HoldCondition(ConditionPtr inner, int64_t hold_seconds)
    : inner_(std::move(inner)), hold_seconds_(hold_seconds) {}

Status HoldCondition::Bind(BindContext& ctx) {
  BindContext::Scope scope(ctx, "inner");
  return inner_->Bind(ctx);
}

bool HoldCondition::Evaluate(const Tuple& tuple,
                             PollutionContext* ctx) noexcept {
  if (ctx->tau < hold_until_) return true;
  const bool fired = inner_->Evaluate(tuple, ctx);
  if (fired) hold_until_ = ctx->tau + hold_seconds_;
  return fired;
}

Json HoldCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "hold");
  j.Set("hold_seconds", hold_seconds_);
  j.Set("inner", inner_->ToJson());
  return j;
}

ConditionPtr HoldCondition::Clone() const {
  // Fresh clones start without an active hold; the inner clone keeps
  // its bound state.
  return std::make_unique<HoldCondition>(inner_->Clone(), hold_seconds_);
}

NotCondition::NotCondition(ConditionPtr child) : child_(std::move(child)) {}

Status NotCondition::Bind(BindContext& ctx) {
  BindContext::Scope scope(ctx, "child");
  return child_->Bind(ctx);
}

bool NotCondition::Evaluate(const Tuple& tuple,
                            PollutionContext* ctx) noexcept {
  return !child_->Evaluate(tuple, ctx);
}

Json NotCondition::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "not");
  j.Set("child", child_->ToJson());
  return j;
}

ConditionPtr NotCondition::Clone() const {
  return std::make_unique<NotCondition>(child_->Clone());
}

}  // namespace icewafl
