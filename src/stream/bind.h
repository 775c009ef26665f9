#ifndef ICEWAFL_STREAM_BIND_H_
#define ICEWAFL_STREAM_BIND_H_

#include <string>
#include <utility>
#include <vector>

#include "stream/schema.h"
#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {

/// \file
/// Two-phase bind/run support (DESIGN.md section 8).
///
/// Schema-consuming components follow the lifecycle
///
///     configure -> Bind(const Schema&) -> run
///
/// where Bind resolves every attribute name to a column index exactly
/// once, validates declared types, and stores BoundAccessors. The
/// per-tuple run phase is then branch-lean index arithmetic: no string
/// hashing (Schema::IndexOf), no Result<Value> copies (Tuple::Get), and
/// no error plumbing — misconfiguration has already been rejected at
/// bind time with a JSON-pointer path.

/// \brief A compiled reference to one column of a bound schema: the
/// resolved index plus the declared type. All per-tuple accessors are
/// noexcept; they assume the tuple matches the schema the accessor was
/// bound against (the bind contract).
class BoundAccessor {
 public:
  BoundAccessor() = default;
  BoundAccessor(size_t index, ValueType declared_type)
      : index_(index), declared_type_(declared_type) {}

  size_t index() const noexcept { return index_; }
  ValueType declared_type() const noexcept { return declared_type_; }

  /// \brief The column value, by reference — no copy, no lookup.
  const Value& at(const Tuple& tuple) const noexcept {
    return tuple.value(index_);
  }

  /// \brief Mutable access for error functions.
  void set(Tuple* tuple, Value v) const {
    tuple->set_value(index_, std::move(v));
  }

  /// \brief Numeric read widening int64/double/bool; false for NULL,
  /// strings, or anything else that cannot widen.
  bool DoubleAt(const Tuple& tuple, double* out) const noexcept {
    const Value& v = tuple.value(index_);
    switch (v.type()) {
      case ValueType::kDouble:
        *out = v.AsDouble();
        return true;
      case ValueType::kInt64:
        *out = static_cast<double>(v.AsInt64());
        return true;
      case ValueType::kBool:
        *out = v.AsBool() ? 1.0 : 0.0;
        return true;
      default:
        return false;
    }
  }

 private:
  size_t index_ = 0;
  ValueType declared_type_ = ValueType::kDouble;
};

/// \brief Resolution context threaded through a component tree's Bind
/// pass. Carries the schema plus a JSON-pointer path stack so every
/// rejection names the offending config fragment the same way the
/// loaders do ("at /polluters/0/condition: ...").
class BindContext {
 public:
  explicit BindContext(const Schema& schema, std::string root_path = "")
      : schema_(&schema), path_(std::move(root_path)) {}

  const Schema& schema() const { return *schema_; }

  /// \brief Descends into a named config field for nested Bind calls.
  /// Balanced with Pop(); prefer the Scope RAII helper.
  void Push(const std::string& key) { path_ += "/" + key; }
  void PushIndex(size_t i) { path_ += "/" + std::to_string(i); }
  void Pop() { path_.resize(path_.rfind('/')); }

  /// \brief RAII path segment: `BindContext::Scope s(ctx, "condition");`.
  /// Restores the previous path on destruction, so keys spanning several
  /// segments ("columns/0") are also safe.
  class Scope {
   public:
    Scope(BindContext& ctx, const std::string& key)
        : ctx_(ctx), saved_length_(ctx.path_.size()) {
      ctx_.Push(key);
    }
    Scope(BindContext& ctx, size_t index)
        : ctx_(ctx), saved_length_(ctx.path_.size()) {
      ctx_.PushIndex(index);
    }
    ~Scope() { ctx_.path_.resize(saved_length_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BindContext& ctx_;
    size_t saved_length_;
  };

  /// \brief An error Status carrying the current JSON-pointer path.
  /// The path and message are also kept (error_path / error_message)
  /// for callers that report bind failures as Diagnostics.
  Status Error(StatusCode code, const std::string& message) const {
    error_path_ = path_;
    error_message_ = message;
    return Status(code,
                  "at " + (path_.empty() ? std::string("/") : path_) + ": " +
                      message);
  }

  const std::string& error_path() const { return error_path_; }
  const std::string& error_message() const { return error_message_; }

  /// \brief Resolves an attribute name to a BoundAccessor; NotFound
  /// (with the JSON-pointer path) when the schema lacks it.
  Result<BoundAccessor> Resolve(const std::string& attribute) const {
    ICEWAFL_ASSIGN_OR_RETURN(size_t idx, IndexOf(attribute));
    return BoundAccessor(idx, schema_->attribute(idx).type);
  }

  /// \brief Resolve + require a numeric (int64/double/bool) column.
  Result<BoundAccessor> ResolveNumeric(const std::string& attribute) const {
    ICEWAFL_ASSIGN_OR_RETURN(BoundAccessor accessor, Resolve(attribute));
    switch (accessor.declared_type()) {
      case ValueType::kInt64:
      case ValueType::kDouble:
      case ValueType::kBool:
        return accessor;
      default:
        return Error(StatusCode::kTypeError,
                     "attribute '" + attribute + "' has type " +
                         ValueTypeName(accessor.declared_type()) +
                         ", expected a numeric column");
    }
  }

 private:
  Result<size_t> IndexOf(const std::string& attribute) const {
    auto idx = schema_->IndexOf(attribute);
    if (!idx.ok()) {
      return Error(StatusCode::kNotFound,
                   "unknown attribute '" + attribute + "'");
    }
    return idx;
  }

  const Schema* schema_;
  std::string path_;
  mutable std::string error_path_;
  mutable std::string error_message_;
};

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_BIND_H_
