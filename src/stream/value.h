#ifndef ICEWAFL_STREAM_VALUE_H_
#define ICEWAFL_STREAM_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "util/result.h"

namespace icewafl {

/// \brief Runtime type of an attribute value.
enum class ValueType {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// \brief Name of a value type ("null", "bool", ...).
const char* ValueTypeName(ValueType type);

/// \brief Inverse of ValueTypeName.
Result<ValueType> ValueTypeFromName(const std::string& name);

/// \brief A dynamically typed attribute value.
///
/// Data streams are schema-ful but heterogeneous across attributes, and
/// polluters must be able to turn any value into NULL (missing value
/// errors) or change its representation (e.g. unit conversion). Value is
/// therefore a small tagged union with explicit coercion helpers.
class Value {
 public:
  /// Constructs NULL.
  Value() : data_(std::monostate{}) {}
  Value(bool b) : data_(b) {}                          // NOLINT
  Value(int64_t i) : data_(i) {}                       // NOLINT
  Value(int i) : data_(static_cast<int64_t>(i)) {}     // NOLINT
  Value(double d) : data_(d) {}                        // NOLINT
  Value(const char* s) : data_(std::string(s)) {}      // NOLINT
  Value(std::string s) : data_(std::move(s)) {}        // NOLINT

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_int64() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int64() || is_double(); }

  bool AsBool() const { return std::get<bool>(data_); }
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// \brief Numeric coercion: int64/double/bool widen to double; NULL and
  /// strings are errors.
  Result<double> ToDouble() const;

  /// \brief Integer coercion: double is truncated toward zero.
  Result<int64_t> ToInt64() const;

  /// \brief String rendering of any value; NULL renders as "" by default.
  std::string ToString(const std::string& null_repr = "") const;

  /// \brief Same rendering, assigned into `*out`: a loop-hoisted buffer
  /// makes per-tuple rendering allocation-free (hot validation loops).
  void RenderTo(std::string* out, const std::string& null_repr = "") const;

  /// \brief Same rendering, appended to `*out` (a record being built).
  void AppendTo(std::string* out, const std::string& null_repr = "") const;

  /// Strict equality: types must match (int64(1) != double(1.0)).
  bool operator==(const Value& other) const { return data_ == other.data_; }

  /// \brief Ordering within the same type; NULL sorts first. Cross-type
  /// numeric comparison compares as double.
  bool operator<(const Value& other) const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_VALUE_H_
