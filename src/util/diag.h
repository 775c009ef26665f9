#ifndef ICEWAFL_UTIL_DIAG_H_
#define ICEWAFL_UTIL_DIAG_H_

#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/result.h"
#include "util/status.h"

namespace icewafl {

/// \brief Severity of a static-analysis diagnostic.
///
/// `kError` marks configurations that cannot behave as written (the run
/// would fail or a polluter could never fire); `kWarning` marks
/// configurations that run but almost certainly do not mean what the
/// author intended; `kNote` carries supplementary context.
enum class DiagSeverity {
  kNote = 0,
  kWarning,
  kError,
};

/// \brief Name of a severity level ("note", "warning", "error").
const char* DiagSeverityName(DiagSeverity severity);

/// \brief One structured finding of the static analyzer.
///
/// `path` is a JSON pointer (RFC 6901, e.g. "/polluters/0/condition")
/// into the analyzed document, so tools can map a finding back to the
/// offending config fragment. `code` is a stable identifier ("IW101");
/// the full table lives in DESIGN.md section 6.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kWarning;
  std::string code;
  std::string path;
  std::string message;
  /// Optional suggestion for resolving the finding; empty if none.
  std::string hint;

  bool operator==(const Diagnostic&) const = default;

  /// \brief "error IW101 at /polluters/0: message (hint: ...)".
  std::string ToString() const;

  Json ToJson() const;
};

/// \brief An ordered collection of diagnostics from one analysis run.
class Diagnostics {
 public:
  void Add(Diagnostic diagnostic) {
    diagnostics_.push_back(std::move(diagnostic));
  }
  void AddError(std::string code, std::string path, std::string message,
                std::string hint = "");
  void AddWarning(std::string code, std::string path, std::string message,
                  std::string hint = "");
  void AddNote(std::string code, std::string path, std::string message,
               std::string hint = "");

  /// \brief Appends all diagnostics of `other`, prefixing each path
  /// with `path_prefix` (the pointer of the node `other` was reported
  /// against, when that node is embedded in a larger document).
  void Merge(const Diagnostics& other, const std::string& path_prefix = "");

  const std::vector<Diagnostic>& items() const { return diagnostics_; }
  size_t size() const { return diagnostics_.size(); }
  bool empty() const { return diagnostics_.empty(); }

  size_t ErrorCount() const;
  size_t WarningCount() const;
  bool HasErrors() const { return ErrorCount() > 0; }

  /// \brief True if any diagnostic carries this code.
  bool HasCode(const std::string& code) const;

  /// \brief Human-readable multi-line report, one diagnostic per line,
  /// followed by a summary ("2 errors, 1 warning").
  std::string ToReport() const;

  /// \brief Machine-readable form: {"diagnostics": [...], "errors": N,
  /// "warnings": N}.
  Json ToJson() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

namespace internal {

/// \brief Range check behind ReadIntField: true when `value` is a whole
/// number in [min, limit); otherwise reports `code` at `path` and
/// returns false.
bool CheckIntField(const Json& value, const std::string& key,
                   const std::string& path, const char* code, double min,
                   double limit, const std::string& max_text,
                   Diagnostics* diags);

}  // namespace internal

/// \brief The typed readers of the config loaders. Each reads the
/// optional field `key` of the object `json` into `*out`; an absent key
/// leaves `*out` unchanged. A value of the wrong kind is reported as
/// error `code` at `parent + "/" + key`, also leaving `*out` unchanged,
/// and the reader returns false. The pipeline and suite loaders read
/// every field through these (by way of FieldReader) and the serve and
/// cleaning loaders every integer key, so no field falls back to its
/// default or truncates silently.
bool ReadNumberField(const Json& json, const std::string& key,
                     const std::string& parent, const char* code, double* out,
                     Diagnostics* diags);
bool ReadBoolField(const Json& json, const std::string& key,
                   const std::string& parent, const char* code, bool* out,
                   Diagnostics* diags);
bool ReadStringField(const Json& json, const std::string& key,
                     const std::string& parent, const char* code,
                     std::string* out, Diagnostics* diags);

/// \brief The integer sibling: a value that is not a number, has a
/// fractional part, is below `min`, or lies past the range of T is
/// reported.
template <typename T>
bool ReadIntField(const Json& json, const std::string& key,
                  const std::string& parent, const char* code, T min, T* out,
                  Diagnostics* diags) {
  if (!json.Has(key)) return true;
  const Json& value = json.fields().at(key);
  if (!internal::CheckIntField(
          value, key, parent + "/" + key, code, static_cast<double>(min),
          std::ldexp(1.0, std::numeric_limits<T>::digits),
          std::to_string(std::numeric_limits<T>::max()), diags)) {
    return false;
  }
  *out = static_cast<T>(value.AsDouble());
  return true;
}

/// \brief The required field `key` of `json`; nullopt after reporting
/// `code` at `at/key` when it is absent, of the wrong kind (a string
/// when `want_string`, else a number), or an empty string.
std::optional<Json> Require(const Json& json, const std::string& key,
                            const std::string& at, const char* code,
                            bool want_string, Diagnostics* diags);

/// \brief Reads the fields of one object node of a pipeline or suite
/// document through the readers above. A failed read has reported error
/// IW100 at the field's pointer and returns a Status carrying the same
/// pointer: NotFound when the key is absent, TypeError otherwise.
/// Done() reports every key that no read asked for as warning IW402, so
/// the keys a loader reads are exactly the keys it accepts.
class FieldReader {
 public:
  /// `path` is the node's JSON pointer; `diags` may be null.
  FieldReader(const Json& json, std::string path, Diagnostics* diags)
      : json_(json),
        path_(std::move(path)),
        diags_(diags != nullptr ? diags : &own_) {}
  FieldReader(const FieldReader&) = delete;
  FieldReader& operator=(const FieldReader&) = delete;

  std::string At(const std::string& key) const { return path_ + "/" + key; }
  bool Has(const std::string& key) const { return json_.Has(key); }
  Diagnostics* diags() const { return diags_; }

  /// \brief OK for an object node; else ParseError "<what> must be a
  /// JSON object".
  Status ExpectObject(const std::string& what);

  /// \brief Required fields: any kind, a number, a non-empty string,
  /// an array, an array of strings or of numbers, an integer.
  Result<const Json*> Get(const std::string& key);
  Result<double> Number(const std::string& key);
  Result<std::string> String(const std::string& key);
  Result<const Json::Array*> Array(const std::string& key);
  Result<std::vector<std::string>> Strings(const std::string& key);
  Result<std::vector<double>> Numbers(const std::string& key);
  template <typename T>
  Result<T> Int(const std::string& key) {
    ICEWAFL_RETURN_NOT_OK(Get(key).status());
    return Int<T>(key, T{});
  }

  /// \brief Optional fields: `fallback` when absent.
  Result<double> Number(const std::string& key, double fallback);
  Result<bool> Bool(const std::string& key, bool fallback);
  Result<std::string> String(const std::string& key, std::string fallback);
  /// An integer anywhere in the range of T.
  template <typename T>
  Result<T> Int(const std::string& key, T fallback) {
    read_.insert(key);
    if (!ReadIntField<T>(json_, key, path_, "IW100",
                         std::numeric_limits<T>::lowest(), &fallback,
                         diags_)) {
      return Failed(key);
    }
    return fallback;
  }

  /// \brief Reports `message` at the field `key` ("" for the node
  /// itself) as `diag_code` and returns it as a `code` Status.
  Status Fail(StatusCode code, const std::string& key,
              const std::string& message, const char* diag_code = "IW100");

  /// \brief Reports the keys no read asked for (IW402).
  void Done();

 private:
  /// The status of the finding a failed read of `key` just reported.
  Status Failed(const std::string& key) const;
  /// The finding just reported, as a `code` Status.
  Status Reported(StatusCode code) const;

  const Json& json_;
  std::string path_;
  Diagnostics own_;
  Diagnostics* diags_;
  std::set<std::string> read_;
};

}  // namespace icewafl

#endif  // ICEWAFL_UTIL_DIAG_H_
