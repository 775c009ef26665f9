#ifndef ICEWAFL_UTIL_JSON_H_
#define ICEWAFL_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace icewafl {

/// \brief A JSON document node.
///
/// Used for pollution-pipeline config files and for the reproducibility
/// log (Figure 2: "Log Data"). Objects preserve key order of insertion is
/// not required by JSON, so a std::map (sorted keys) keeps serialization
/// deterministic.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  /// Constructs a null node.
  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  Json(double num) : type_(Type::kNumber), num_(num) {}          // NOLINT
  Json(int num) : type_(Type::kNumber), num_(num) {}             // NOLINT
  Json(int64_t num)                                              // NOLINT
      : type_(Type::kNumber), num_(static_cast<double>(num)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}         // NOLINT
  Json(std::string s)                                            // NOLINT
      : type_(Type::kString), str_(std::move(s)) {}

  static Json MakeArray() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json MakeObject() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return num_; }
  int64_t AsInt64() const { return static_cast<int64_t>(num_); }
  const std::string& AsString() const { return str_; }

  /// \brief Array access. Valid only for arrays.
  const Array& items() const { return array_; }
  Array& items() { return array_; }
  void Append(Json v) { array_.push_back(std::move(v)); }
  size_t size() const {
    return type_ == Type::kArray ? array_.size() : object_.size();
  }

  /// \brief Object access. Valid only for objects.
  const Object& fields() const { return object_; }
  void Set(const std::string& key, Json v) { object_[key] = std::move(v); }
  bool Has(const std::string& key) const { return object_.count(key) > 0; }

  /// \brief Member lookup; returns an error if missing.
  Result<Json> Get(const std::string& key) const;

  /// \brief Typed convenience getters with defaults.
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  std::string GetString(const std::string& key, std::string fallback) const;

  /// \brief Compact serialization (no insignificant whitespace).
  std::string Dump() const;

  /// \brief Pretty serialization with 2-space indentation.
  std::string DumpPretty() const;

  /// \brief Parses a JSON document (strict: whole input consumed).
  static Result<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array array_;
  Object object_;
};

}  // namespace icewafl

#endif  // ICEWAFL_UTIL_JSON_H_
