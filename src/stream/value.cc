#include "stream/value.h"

#include <charconv>

#include "util/strings.h"

namespace icewafl {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

Result<ValueType> ValueTypeFromName(const std::string& name) {
  if (name == "null") return ValueType::kNull;
  if (name == "bool") return ValueType::kBool;
  if (name == "int64") return ValueType::kInt64;
  if (name == "double") return ValueType::kDouble;
  if (name == "string") return ValueType::kString;
  return Status::ParseError("unknown value type: '" + name + "'");
}

Result<double> Value::ToDouble() const {
  switch (type()) {
    case ValueType::kBool:
      return AsBool() ? 1.0 : 0.0;
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    case ValueType::kNull:
      return Status::TypeError("cannot convert NULL to double");
    case ValueType::kString:
      return Status::TypeError("cannot convert string to double: '" +
                               AsString() + "'");
  }
  return Status::Internal("corrupt value type");
}

Result<int64_t> Value::ToInt64() const {
  switch (type()) {
    case ValueType::kBool:
      return static_cast<int64_t>(AsBool());
    case ValueType::kInt64:
      return AsInt64();
    case ValueType::kDouble:
      return static_cast<int64_t>(AsDouble());
    case ValueType::kNull:
      return Status::TypeError("cannot convert NULL to int64");
    case ValueType::kString:
      return Status::TypeError("cannot convert string to int64: '" +
                               AsString() + "'");
  }
  return Status::Internal("corrupt value type");
}

void Value::RenderTo(std::string* out, const std::string& null_repr) const {
  out->clear();
  AppendTo(out, null_repr);
}

void Value::AppendTo(std::string* out, const std::string& null_repr) const {
  switch (type()) {
    case ValueType::kNull:
      out->append(null_repr);
      return;
    case ValueType::kBool:
      out->append(AsBool() ? "true" : "false");
      return;
    case ValueType::kInt64: {
      char buf[24];
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), AsInt64()).ptr);
      return;
    }
    case ValueType::kDouble:
      AppendDouble(AsDouble(), out);
      return;
    case ValueType::kString:
      out->append(AsString());
      return;
  }
}

std::string Value::ToString(const std::string& null_repr) const {
  std::string out;
  RenderTo(&out, null_repr);
  return out;
}

bool Value::operator<(const Value& other) const {
  // NULL sorts before everything else.
  if (is_null()) return !other.is_null();
  if (other.is_null()) return false;
  if (is_numeric() && other.is_numeric()) {
    return ToDouble().ValueOrDie() < other.ToDouble().ValueOrDie();
  }
  if (type() != other.type()) return type() < other.type();
  switch (type()) {
    case ValueType::kBool:
      return AsBool() < other.AsBool();
    case ValueType::kString:
      return AsString() < other.AsString();
    default:
      return false;
  }
}

}  // namespace icewafl
