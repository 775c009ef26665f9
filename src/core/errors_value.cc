#include "core/errors_value.h"

#include <cctype>
#include <utility>

namespace icewafl {

namespace {

bool SeverityGate(PollutionContext* ctx) {
  if (ctx->severity >= 1.0) return true;
  if (ctx->rng == nullptr) return ctx->severity > 0.5;
  return ctx->rng->Bernoulli(ctx->severity);
}

// Misconfiguration is rejected at Bind; the per-tuple loops below keep
// only a cheap range guard (for direct unbound Apply calls) and skip
// values whose runtime type diverged from the declared column type.
bool InRange(const Tuple& tuple, size_t idx) {
  return idx < tuple.num_values();
}

}  // namespace

void MissingValueError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                              PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  for (size_t idx : attrs) {
    if (InRange(*tuple, idx)) tuple->set_value(idx, Value::Null());
  }
}

Json MissingValueError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "missing_value");
  return j;
}

ErrorFunctionPtr MissingValueError::Clone() const {
  return std::make_unique<MissingValueError>();
}

SetConstantError::SetConstantError(Value value) : value_(std::move(value)) {}

void SetConstantError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                             PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  for (size_t idx : attrs) {
    if (InRange(*tuple, idx)) tuple->set_value(idx, value_);
  }
}

Json SetConstantError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "set_constant");
  switch (value_.type()) {
    case ValueType::kNull:
      j.Set("value", Json());
      break;
    case ValueType::kBool:
      j.Set("value", Json(value_.AsBool()));
      break;
    case ValueType::kInt64:
      j.Set("value", Json(value_.AsInt64()));
      j.Set("value_type", "int64");
      break;
    case ValueType::kDouble:
      j.Set("value", Json(value_.AsDouble()));
      break;
    case ValueType::kString:
      j.Set("value", Json(value_.AsString()));
      break;
  }
  return j;
}

ErrorFunctionPtr SetConstantError::Clone() const {
  return std::make_unique<SetConstantError>(*this);
}

IncorrectCategoryError::IncorrectCategoryError(
    std::vector<std::string> categories)
    : categories_(std::move(categories)) {}

Status IncorrectCategoryError::Bind(BindContext& ctx,
                                    const std::vector<size_t>& attrs) {
  if (categories_.size() < 2) {
    return ctx.Error(StatusCode::kInvalidArgument,
                     "incorrect_category needs >= 2 categories, got " +
                         std::to_string(categories_.size()));
  }
  return ErrorFunction::Bind(ctx, attrs);
}

void IncorrectCategoryError::Apply(Tuple* tuple,
                                   const std::vector<size_t>& attrs,
                                   PollutionContext* ctx) {
  if (categories_.size() < 2) return;  // unbound misuse; Bind rejects this
  if (!SeverityGate(ctx)) return;
  for (size_t idx : attrs) {
    if (!InRange(*tuple, idx)) continue;
    const Value& v = tuple->value(idx);
    if (!v.is_string()) continue;
    const std::string& current = v.AsString();
    // Draw until a category different from the current value comes up;
    // bounded because >= 2 distinct categories exist (if the current
    // value is outside the domain, the first draw differs already).
    std::string replacement = current;
    for (int attempts = 0; attempts < 64 && replacement == current;
         ++attempts) {
      const size_t pick =
          ctx->rng != nullptr
              ? static_cast<size_t>(ctx->rng->UniformInt(
                    0, static_cast<int64_t>(categories_.size()) - 1))
              : 0;
      replacement = categories_[pick];
    }
    if (replacement == current) {
      // Degenerate domain (all categories equal to current): pick first.
      replacement = categories_[0] == current && categories_.size() > 1
                        ? categories_[1]
                        : categories_[0];
    }
    tuple->set_value(idx, Value(replacement));
  }
}

Json IncorrectCategoryError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "incorrect_category");
  Json cats = Json::MakeArray();
  for (const std::string& c : categories_) cats.Append(Json(c));
  j.Set("categories", std::move(cats));
  return j;
}

ErrorFunctionPtr IncorrectCategoryError::Clone() const {
  return std::make_unique<IncorrectCategoryError>(*this);
}

void TypoError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                      PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  for (size_t idx : attrs) {
    if (!InRange(*tuple, idx)) continue;
    const Value& v = tuple->value(idx);
    if (!v.is_string()) continue;
    std::string s = v.AsString();
    if (s.empty() || ctx->rng == nullptr) continue;
    const size_t pos = static_cast<size_t>(
        ctx->rng->UniformInt(0, static_cast<int64_t>(s.size()) - 1));
    switch (ctx->rng->UniformInt(0, 3)) {
      case 0:  // swap with next character
        if (pos + 1 < s.size()) std::swap(s[pos], s[pos + 1]);
        break;
      case 1:  // delete
        s.erase(pos, 1);
        break;
      case 2:  // duplicate
        s.insert(pos, 1, s[pos]);
        break;
      default:  // replace with a random lowercase letter
        s[pos] = static_cast<char>('a' + ctx->rng->UniformInt(0, 25));
        break;
    }
    tuple->set_value(idx, Value(std::move(s)));
  }
}

Json TypoError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "typo");
  return j;
}

ErrorFunctionPtr TypoError::Clone() const {
  return std::make_unique<TypoError>();
}

Status SwapAttributesError::Bind(BindContext& ctx,
                                 const std::vector<size_t>& attrs) {
  if (attrs.size() != 2) {
    return ctx.Error(StatusCode::kInvalidArgument,
                     "swap_attributes requires exactly 2 target attributes, "
                     "got " + std::to_string(attrs.size()));
  }
  return ErrorFunction::Bind(ctx, attrs);
}

void SwapAttributesError::Apply(Tuple* tuple,
                                const std::vector<size_t>& attrs,
                                PollutionContext* ctx) {
  if (attrs.size() != 2 || !InRange(*tuple, attrs[0]) ||
      !InRange(*tuple, attrs[1])) {
    return;  // unbound misuse; Bind rejects this
  }
  if (!SeverityGate(ctx)) return;
  Value a = tuple->value(attrs[0]);
  Value b = tuple->value(attrs[1]);
  tuple->set_value(attrs[0], std::move(b));
  tuple->set_value(attrs[1], std::move(a));
}

Json SwapAttributesError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "swap_attributes");
  return j;
}

ErrorFunctionPtr SwapAttributesError::Clone() const {
  return std::make_unique<SwapAttributesError>();
}

CaseError::CaseError(double flip_probability)
    : flip_probability_(flip_probability) {}

void CaseError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                      PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  for (size_t idx : attrs) {
    if (!InRange(*tuple, idx)) continue;
    const Value& v = tuple->value(idx);
    if (!v.is_string()) continue;
    std::string s = v.AsString();
    for (char& c : s) {
      const bool flip = ctx->rng != nullptr
                            ? ctx->rng->Bernoulli(flip_probability_)
                            : flip_probability_ > 0.5;
      if (!flip) continue;
      const unsigned char uc = static_cast<unsigned char>(c);
      if (std::islower(uc)) {
        c = static_cast<char>(std::toupper(uc));
      } else if (std::isupper(uc)) {
        c = static_cast<char>(std::tolower(uc));
      }
    }
    tuple->set_value(idx, Value(std::move(s)));
  }
}

Json CaseError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "case");
  j.Set("flip_probability", flip_probability_);
  return j;
}

ErrorFunctionPtr CaseError::Clone() const {
  return std::make_unique<CaseError>(*this);
}

TruncateError::TruncateError(size_t max_length) : max_length_(max_length) {}

void TruncateError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                          PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  for (size_t idx : attrs) {
    if (!InRange(*tuple, idx)) continue;
    const Value& v = tuple->value(idx);
    if (!v.is_string()) continue;
    if (v.AsString().size() > max_length_) {
      tuple->set_value(idx, Value(v.AsString().substr(0, max_length_)));
    }
  }
}

Json TruncateError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "truncate");
  j.Set("max_length", static_cast<int64_t>(max_length_));
  return j;
}

ErrorFunctionPtr TruncateError::Clone() const {
  return std::make_unique<TruncateError>(*this);
}

}  // namespace icewafl
