#ifndef ICEWAFL_CORE_ERRORS_NUMERIC_H_
#define ICEWAFL_CORE_ERRORS_NUMERIC_H_

#include <string>
#include <vector>

#include "core/error_function.h"

namespace icewafl {

/// \brief Additive or multiplicative Gaussian noise.
///
/// Additive: v' = v + N(0, stddev * severity).
/// Multiplicative: v' = v * (1 + N(0, stddev * severity)).
class GaussianNoiseError : public ErrorFunction {
 public:
  explicit GaussianNoiseError(double stddev, bool multiplicative = false);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "gaussian_noise"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kNumeric, .uses_rng = true};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  double stddev_;
  bool multiplicative_;
};

/// \brief Multiplicative uniform noise as used in Experiment 3.2 (Eq. 3):
/// a factor f is drawn from U(lo * severity, hi * severity) and, on a fair
/// coin toss, the value is either increased, v' = v * (1 + f), or
/// decreased, v' = v * (1 - f).
class UniformNoiseError : public ErrorFunction {
 public:
  UniformNoiseError(double lo, double hi);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "uniform_noise"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kNumeric, .uses_rng = true};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  double lo_;
  double hi_;
};

/// \brief Scaled-by-factor error: v' = v * lerp(1, factor, severity).
class ScaleError : public ErrorFunction {
 public:
  explicit ScaleError(double factor);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "scale"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kNumeric};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  double factor_;
};

/// \brief Constant additive offset (miscalibrated sensor):
/// v' = v + delta * severity.
class OffsetError : public ErrorFunction {
 public:
  explicit OffsetError(double delta);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "offset"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kNumeric};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  double delta_;
};

/// \brief Rounds to a fixed number of decimal places (precision loss, as
/// in the CaloriesBurned polluter of Experiment 3.1.2). severity < 1 gates
/// application with that probability.
class RoundError : public ErrorFunction {
 public:
  explicit RoundError(int precision);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "round"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kNumeric};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  int precision_;
};

/// \brief Unit conversion error (e.g. km recorded as cm): v' = v * factor.
/// Semantically a scale error, but logged with its unit labels; severity
/// gates application.
class UnitConversionError : public ErrorFunction {
 public:
  UnitConversionError(double factor, std::string from_unit,
                      std::string to_unit);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "unit_conversion"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kNumeric};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  double factor_;
  std::string from_unit_;
  std::string to_unit_;
};

/// \brief Outlier spike: v' = v * f or v / f with f ~ U(min_factor,
/// max_factor); severity gates application.
class OutlierError : public ErrorFunction {
 public:
  OutlierError(double min_factor, double max_factor);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "outlier"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kNumeric, .uses_rng = true};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  double min_factor_;
  double max_factor_;
};

/// \brief Digit-transposition entry error: swaps two adjacent digits of
/// the decimal rendering (e.g. 12.34 -> 21.34). Values whose rendering
/// has fewer than two adjacent digits are left unchanged; severity gates
/// application.
class DigitSwapError : public ErrorFunction {
 public:
  DigitSwapError() = default;
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "digit_swap"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kNumeric, .uses_rng = true};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;
};

/// \brief Sign-flip error: v' = -v (polarity wiring fault / entry
/// error); severity gates application.
class SignFlipError : public ErrorFunction {
 public:
  SignFlipError() = default;
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "sign_flip"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kNumeric};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;
};

}  // namespace icewafl

#endif  // ICEWAFL_CORE_ERRORS_NUMERIC_H_
