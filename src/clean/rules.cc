#include "clean/rules.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace icewafl {
namespace clean {

const char* RepairActionName(RepairAction action) {
  switch (action) {
    case RepairAction::kDrop:
      return "drop";
    case RepairAction::kSetNull:
      return "set_null";
    case RepairAction::kClamp:
      return "clamp";
    case RepairAction::kLastGood:
      return "last_good";
    case RepairAction::kWindowMean:
      return "window_mean";
    case RepairAction::kWindowMedian:
      return "window_median";
  }
  return "unknown";
}

Result<RepairAction> RepairActionFromName(const std::string& name) {
  if (name == "drop") return RepairAction::kDrop;
  if (name == "set_null") return RepairAction::kSetNull;
  if (name == "clamp") return RepairAction::kClamp;
  if (name == "last_good") return RepairAction::kLastGood;
  if (name == "window_mean") return RepairAction::kWindowMean;
  if (name == "window_median") return RepairAction::kWindowMedian;
  return Status::InvalidArgument("unknown repair action '" + name + "'");
}

bool RepairNeedsHistory(RepairAction action) {
  switch (action) {
    case RepairAction::kLastGood:
    case RepairAction::kWindowMean:
    case RepairAction::kWindowMedian:
      return true;
    default:
      return false;
  }
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "lt";
    case CompareOp::kLe:
      return "le";
    case CompareOp::kGt:
      return "gt";
    case CompareOp::kGe:
      return "ge";
    case CompareOp::kEq:
      return "eq";
    case CompareOp::kNe:
      return "ne";
  }
  return "unknown";
}

Result<CompareOp> CompareOpFromName(const std::string& name) {
  if (name == "lt") return CompareOp::kLt;
  if (name == "le") return CompareOp::kLe;
  if (name == "gt") return CompareOp::kGt;
  if (name == "ge") return CompareOp::kGe;
  if (name == "eq") return CompareOp::kEq;
  if (name == "ne") return CompareOp::kNe;
  return Status::InvalidArgument("unknown comparison op '" + name + "'");
}

bool EvalCompareOp(CompareOp op, double lhs, double rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
  }
  return false;
}

void ValueHistory::Push(double v) {
  if (capacity_ == 0) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(v);
    return;
  }
  ring_[head_] = v;
  head_ = (head_ + 1) % capacity_;
}

void ValueHistory::Clear() {
  ring_.clear();
  head_ = 0;
}

double ValueHistory::Recent(size_t i) const {
  // Newest element: one before head_ once full, last pushed otherwise.
  size_t newest =
      ring_.size() < capacity_ ? ring_.size() - 1 : (head_ + capacity_ - 1) % capacity_;
  size_t idx = (newest + ring_.size() - i % ring_.size()) % ring_.size();
  return ring_[idx];
}

double ValueHistory::Mean() const {
  if (ring_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : ring_) sum += v;
  return sum / static_cast<double>(ring_.size());
}

double ValueHistory::Median() const {
  if (ring_.empty()) return 0.0;
  std::vector<double> sorted(ring_);
  std::sort(sorted.begin(), sorted.end());
  size_t mid = sorted.size() / 2;
  if (sorted.size() % 2 == 1) return sorted[mid];
  return (sorted[mid - 1] + sorted[mid]) / 2.0;
}

Json RuleGuard::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("column", column);
  j.Set("op", CompareOpName(op));
  j.Set("value", value);
  return j;
}

Status CleanRule::Bind(BindContext& ctx) {
  {
    BindContext::Scope scope(ctx, "column");
    ICEWAFL_ASSIGN_OR_RETURN(accessor_, reads_any_type()
                                            ? ctx.Resolve(column_)
                                            : ctx.ResolveNumeric(column_));
  }
  for (size_t i = 0; i < guards_.size(); ++i) {
    BindContext::Scope scope(ctx, "when/" + std::to_string(i) + "/column");
    ICEWAFL_ASSIGN_OR_RETURN(guards_[i].accessor,
                             ctx.ResolveNumeric(guards_[i].column));
  }
  return Status::OK();
}

bool CleanRule::GuardsPass(const Tuple& tuple) const {
  for (const RuleGuard& g : guards_) {
    double v;
    if (!g.accessor.DoubleAt(tuple, &v)) return false;
    if (!EvalCompareOp(g.op, v, g.value)) return false;
  }
  return true;
}

Json CleanRule::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("label", label_);
  j.Set("column", column_);
  j.Set("detect", DetectJson());
  j.Set("repair", RepairActionName(repair_));
  if (!guards_.empty()) {
    Json when = Json::MakeArray();
    for (const RuleGuard& g : guards_) when.Append(g.ToJson());
    j.Set("when", std::move(when));
  }
  return j;
}

namespace {

/// Copies accessors, guards, and other bind-produced state onto a
/// clone, so cloning a bound rule yields a bound rule (the worker-clone
/// path of the parallel runner).
template <typename T>
std::unique_ptr<CleanRule> FinishClone(std::unique_ptr<T> clone,
                                       const CleanRule& original) {
  clone->CopyBindState(original);
  return clone;
}

}  // namespace

bool RangeRule::Violates(const Tuple& tuple, const ValueHistory*) const {
  double v;
  if (!accessor_.DoubleAt(tuple, &v)) return false;
  return v < min_ || v > max_;
}

Json RangeRule::DetectJson() const {
  Json j = Json::MakeObject();
  j.Set("type", type());
  j.Set("min", min_);
  j.Set("max", max_);
  return j;
}

std::unique_ptr<CleanRule> RangeRule::Clone() const {
  return FinishClone(
      std::make_unique<RangeRule>(label_, column_, min_, max_, repair_), *this);
}

bool NotNullRule::Violates(const Tuple& tuple, const ValueHistory*) const {
  return accessor_.at(tuple).is_null();
}

Json NotNullRule::DetectJson() const {
  Json j = Json::MakeObject();
  j.Set("type", type());
  return j;
}

std::unique_ptr<CleanRule> NotNullRule::Clone() const {
  return FinishClone(std::make_unique<NotNullRule>(label_, column_, repair_),
                     *this);
}

bool RegexRule::Violates(const Tuple& tuple, const ValueHistory*) const {
  const Value& v = accessor_.at(tuple);
  if (v.is_null()) return false;
  if (v.is_string()) return !std::regex_match(v.AsString(), regex_);
  v.RenderTo(&storage_);
  return !std::regex_match(storage_, regex_);
}

Json RegexRule::DetectJson() const {
  Json j = Json::MakeObject();
  j.Set("type", type());
  j.Set("pattern", pattern_);
  return j;
}

std::unique_ptr<CleanRule> RegexRule::Clone() const {
  return std::make_unique<RegexRule>(*this);
}

bool TypeRule::Violates(const Tuple& tuple, const ValueHistory*) const {
  const Value& v = accessor_.at(tuple);
  return !v.is_null() && v.type() != expected_;
}

Json TypeRule::DetectJson() const {
  Json j = Json::MakeObject();
  j.Set("type", type());
  j.Set("value_type", ValueTypeName(expected_));
  return j;
}

std::unique_ptr<CleanRule> TypeRule::Clone() const {
  return FinishClone(
      std::make_unique<TypeRule>(label_, column_, expected_, repair_), *this);
}

Status CrossFieldRule::Bind(BindContext& ctx) {
  ICEWAFL_RETURN_NOT_OK(CleanRule::Bind(ctx));
  BindContext::Scope scope(ctx, "detect/other");
  ICEWAFL_ASSIGN_OR_RETURN(other_accessor_, ctx.ResolveNumeric(other_));
  return Status::OK();
}

bool CrossFieldRule::Violates(const Tuple& tuple, const ValueHistory*) const {
  double lhs, rhs;
  if (!accessor_.DoubleAt(tuple, &lhs)) return false;
  if (!other_accessor_.DoubleAt(tuple, &rhs)) return false;
  return !EvalCompareOp(op_, lhs, rhs);
}

Json CrossFieldRule::DetectJson() const {
  Json j = Json::MakeObject();
  j.Set("type", type());
  j.Set("op", CompareOpName(op_));
  j.Set("other", other_);
  return j;
}

std::unique_ptr<CleanRule> CrossFieldRule::Clone() const {
  return FinishClone(
      std::make_unique<CrossFieldRule>(label_, column_, op_, other_, repair_),
      *this);
}

bool RateOfChangeRule::Violates(const Tuple& tuple,
                                const ValueHistory* history) const {
  if (history == nullptr || history->empty()) return false;
  double v;
  if (!accessor_.DoubleAt(tuple, &v)) return false;
  return std::abs(v - history->Recent(0)) > max_change_;
}

Json RateOfChangeRule::DetectJson() const {
  Json j = Json::MakeObject();
  j.Set("type", type());
  j.Set("max_change", max_change_);
  return j;
}

std::unique_ptr<CleanRule> RateOfChangeRule::Clone() const {
  return FinishClone(
      std::make_unique<RateOfChangeRule>(label_, column_, max_change_, repair_),
      *this);
}

bool StuckAtRule::Violates(const Tuple& tuple,
                           const ValueHistory* history) const {
  if (history == nullptr || min_repeats_ < 2) return false;
  if (history->size() < min_repeats_ - 1) return false;
  double v;
  if (!accessor_.DoubleAt(tuple, &v)) return false;
  for (size_t i = 0; i < min_repeats_ - 1; ++i) {
    if (history->Recent(i) != v) return false;
  }
  return true;
}

Json StuckAtRule::DetectJson() const {
  Json j = Json::MakeObject();
  j.Set("type", type());
  j.Set("min_repeats", static_cast<int64_t>(min_repeats_));
  return j;
}

std::unique_ptr<CleanRule> StuckAtRule::Clone() const {
  return FinishClone(
      std::make_unique<StuckAtRule>(label_, column_, min_repeats_, repair_),
      *this);
}

CleaningRules CleaningRules::Clone() const {
  CleaningRules copy;
  copy.name = name;
  copy.key = key;
  copy.history = history;
  copy.rules.reserve(rules.size());
  for (const auto& r : rules) copy.rules.push_back(r->Clone());
  return copy;
}

Json CleaningRules::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("name", name);
  if (!key.empty()) j.Set("key", key);
  j.Set("history", static_cast<int64_t>(history));
  Json arr = Json::MakeArray();
  for (const auto& r : rules) arr.Append(r->ToJson());
  j.Set("rules", std::move(arr));
  return j;
}

bool CleaningRules::HasStateless() const {
  for (const auto& r : rules) {
    if (!r->stateful()) return true;
  }
  return false;
}

bool CleaningRules::HasStateful() const {
  for (const auto& r : rules) {
    if (r->stateful()) return true;
  }
  return false;
}

}  // namespace clean
}  // namespace icewafl
