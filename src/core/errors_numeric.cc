#include "core/errors_numeric.h"

#include <cctype>
#include <cmath>
#include <utility>

#include "util/strings.h"

namespace icewafl {

namespace {

/// Applies `fn` to every targeted numeric value. Column types are
/// validated at Bind (ErrorDomain::kNumeric); per tuple we only skip
/// NULLs and values whose runtime type diverged from the declared one.
/// Integer attributes stay integers (rounded).
template <typename Fn>
void TransformNumeric(Tuple* tuple, const std::vector<size_t>& attrs,
                      Fn&& fn) {
  for (size_t idx : attrs) {
    if (idx >= tuple->num_values()) continue;
    const Value& v = tuple->value(idx);
    if (!v.is_numeric()) continue;
    const double in =
        v.is_double() ? v.AsDouble() : static_cast<double>(v.AsInt64());
    const double out = fn(in);
    if (v.is_int64()) {
      tuple->set_value(idx, Value(static_cast<int64_t>(std::llround(out))));
    } else {
      tuple->set_value(idx, Value(out));
    }
  }
}

/// Discrete errors treat severity as an application probability.
bool SeverityGate(PollutionContext* ctx) {
  if (ctx->severity >= 1.0) return true;
  if (ctx->rng == nullptr) return ctx->severity > 0.5;
  return ctx->rng->Bernoulli(ctx->severity);
}

}  // namespace

GaussianNoiseError::GaussianNoiseError(double stddev, bool multiplicative)
    : stddev_(stddev), multiplicative_(multiplicative) {}

void GaussianNoiseError::Apply(Tuple* tuple,
                               const std::vector<size_t>& attrs,
                               PollutionContext* ctx) {
  const double sigma = stddev_ * ctx->severity;
  TransformNumeric(tuple, attrs, [&](double v) {
    const double noise = ctx->rng != nullptr ? ctx->rng->Gaussian(0.0, sigma)
                                             : 0.0;
    return multiplicative_ ? v * (1.0 + noise) : v + noise;
  });
}

Json GaussianNoiseError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "gaussian_noise");
  j.Set("stddev", stddev_);
  j.Set("multiplicative", multiplicative_);
  return j;
}

ErrorFunctionPtr GaussianNoiseError::Clone() const {
  return std::make_unique<GaussianNoiseError>(*this);
}

UniformNoiseError::UniformNoiseError(double lo, double hi)
    : lo_(lo), hi_(hi) {}

void UniformNoiseError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                              PollutionContext* ctx) {
  const double lo = lo_ * ctx->severity;
  const double hi = hi_ * ctx->severity;
  TransformNumeric(tuple, attrs, [&](double v) {
    if (ctx->rng == nullptr) return v;
    const double f = ctx->rng->Uniform(lo, hi);
    const bool increase = ctx->rng->Bernoulli(0.5);
    return increase ? v * (1.0 + f) : v * (1.0 - f);
  });
}

Json UniformNoiseError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "uniform_noise");
  j.Set("lo", lo_);
  j.Set("hi", hi_);
  return j;
}

ErrorFunctionPtr UniformNoiseError::Clone() const {
  return std::make_unique<UniformNoiseError>(*this);
}

ScaleError::ScaleError(double factor) : factor_(factor) {}

void ScaleError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                       PollutionContext* ctx) {
  const double factor = 1.0 + (factor_ - 1.0) * ctx->severity;
  TransformNumeric(tuple, attrs, [&](double v) { return v * factor; });
}

Json ScaleError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "scale");
  j.Set("factor", factor_);
  return j;
}

ErrorFunctionPtr ScaleError::Clone() const {
  return std::make_unique<ScaleError>(*this);
}

OffsetError::OffsetError(double delta) : delta_(delta) {}

void OffsetError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                        PollutionContext* ctx) {
  const double delta = delta_ * ctx->severity;
  TransformNumeric(tuple, attrs, [&](double v) { return v + delta; });
}

Json OffsetError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "offset");
  j.Set("delta", delta_);
  return j;
}

ErrorFunctionPtr OffsetError::Clone() const {
  return std::make_unique<OffsetError>(*this);
}

RoundError::RoundError(int precision) : precision_(precision) {}

void RoundError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                       PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  const double scale = std::pow(10.0, precision_);
  TransformNumeric(tuple, attrs,
                   [&](double v) { return std::round(v * scale) / scale; });
}

Json RoundError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "round");
  j.Set("precision", precision_);
  return j;
}

ErrorFunctionPtr RoundError::Clone() const {
  return std::make_unique<RoundError>(*this);
}

UnitConversionError::UnitConversionError(double factor, std::string from_unit,
                                         std::string to_unit)
    : factor_(factor),
      from_unit_(std::move(from_unit)),
      to_unit_(std::move(to_unit)) {}

void UnitConversionError::Apply(Tuple* tuple,
                                const std::vector<size_t>& attrs,
                                PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  TransformNumeric(tuple, attrs, [&](double v) { return v * factor_; });
}

Json UnitConversionError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "unit_conversion");
  j.Set("factor", factor_);
  j.Set("from_unit", from_unit_);
  j.Set("to_unit", to_unit_);
  return j;
}

ErrorFunctionPtr UnitConversionError::Clone() const {
  return std::make_unique<UnitConversionError>(*this);
}

OutlierError::OutlierError(double min_factor, double max_factor)
    : min_factor_(min_factor), max_factor_(max_factor) {}

void OutlierError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                         PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  TransformNumeric(tuple, attrs, [&](double v) {
    if (ctx->rng == nullptr) return v * max_factor_;
    const double f = ctx->rng->Uniform(min_factor_, max_factor_);
    return ctx->rng->Bernoulli(0.5) ? v * f : v / f;
  });
}

Json OutlierError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "outlier");
  j.Set("min_factor", min_factor_);
  j.Set("max_factor", max_factor_);
  return j;
}

ErrorFunctionPtr OutlierError::Clone() const {
  return std::make_unique<OutlierError>(*this);
}

void DigitSwapError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                           PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  for (size_t idx : attrs) {
    if (idx >= tuple->num_values()) continue;
    const Value& v = tuple->value(idx);
    if (!v.is_numeric()) continue;
    std::string text = v.ToString();
    // Positions where this digit and the next are both digits.
    std::vector<size_t> swappable;
    for (size_t i = 0; i + 1 < text.size(); ++i) {
      if (std::isdigit(static_cast<unsigned char>(text[i])) &&
          std::isdigit(static_cast<unsigned char>(text[i + 1])) &&
          text[i] != text[i + 1]) {
        swappable.push_back(i);
      }
    }
    if (swappable.empty()) continue;
    const size_t pick =
        ctx->rng != nullptr
            ? static_cast<size_t>(ctx->rng->UniformInt(
                  0, static_cast<int64_t>(swappable.size()) - 1))
            : 0;
    std::swap(text[swappable[pick]], text[swappable[pick] + 1]);
    if (v.is_int64()) {
      auto parsed = ParseInt64(text);
      if (parsed.ok()) tuple->set_value(idx, Value(parsed.ValueOrDie()));
    } else {
      auto parsed = ParseDouble(text);
      if (parsed.ok()) tuple->set_value(idx, Value(parsed.ValueOrDie()));
    }
  }
}

Json DigitSwapError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "digit_swap");
  return j;
}

ErrorFunctionPtr DigitSwapError::Clone() const {
  return std::make_unique<DigitSwapError>();
}

void SignFlipError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                          PollutionContext* ctx) {
  if (!SeverityGate(ctx)) return;
  TransformNumeric(tuple, attrs, [](double v) { return -v; });
}

Json SignFlipError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "sign_flip");
  return j;
}

ErrorFunctionPtr SignFlipError::Clone() const {
  return std::make_unique<SignFlipError>();
}

}  // namespace icewafl
