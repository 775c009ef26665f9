#ifndef ICEWAFL_CORE_ERRORS_VALUE_H_
#define ICEWAFL_CORE_ERRORS_VALUE_H_

#include <string>
#include <vector>

#include "core/error_function.h"

namespace icewafl {

/// \brief Missing-value error: sets targeted attributes to NULL.
/// severity < 1 gates application with that probability.
class MissingValueError : public ErrorFunction {
 public:
  MissingValueError() = default;
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "missing_value"; }
  ErrorTraits Describe() const override {
    return {};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;
};

/// \brief Overwrites targeted attributes with a fixed value (e.g. the
/// "BPM set to 0" polluter of the software-update scenario).
class SetConstantError : public ErrorFunction {
 public:
  explicit SetConstantError(Value value);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "set_constant"; }
  ErrorTraits Describe() const override {
    return {};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  Value value_;
};

/// \brief Incorrect-category error: replaces a categorical (string) value
/// by a different category drawn uniformly from the domain.
class IncorrectCategoryError : public ErrorFunction {
 public:
  /// \param categories the categorical domain; must have >= 2 entries for
  ///   the error to be able to change anything (enforced by Bind).
  explicit IncorrectCategoryError(std::vector<std::string> categories);
  Status Bind(BindContext& ctx, const std::vector<size_t>& attrs) override;
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "incorrect_category"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kString, .uses_rng = true};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  std::vector<std::string> categories_;
};

/// \brief Typographical error: applies one random character edit
/// (swap adjacent, delete, duplicate, or replace) to a string value.
class TypoError : public ErrorFunction {
 public:
  TypoError() = default;
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "typo"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kString, .uses_rng = true};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;
};

/// \brief Swaps the values of the first two targeted attributes
/// (transposed-fields entry error). Requires exactly two attributes
/// (enforced by Bind).
class SwapAttributesError : public ErrorFunction {
 public:
  SwapAttributesError() = default;
  Status Bind(BindContext& ctx, const std::vector<size_t>& attrs) override;
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "swap_attributes"; }
  ErrorTraits Describe() const override {
    return {};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;
};

/// \brief Random case corruption: each letter of a string value flips
/// case with probability `flip_probability` (inconsistent manual entry).
class CaseError : public ErrorFunction {
 public:
  explicit CaseError(double flip_probability = 0.5);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "case"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kString, .uses_rng = true};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  double flip_probability_;
};

/// \brief Truncation error: string values are cut to `max_length`
/// characters (fixed-width column overflow); severity gates application.
class TruncateError : public ErrorFunction {
 public:
  explicit TruncateError(size_t max_length);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "truncate"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kString};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  size_t max_length_;
};

}  // namespace icewafl

#endif  // ICEWAFL_CORE_ERRORS_VALUE_H_
