#ifndef ICEWAFL_UTIL_DIAG_H_
#define ICEWAFL_UTIL_DIAG_H_

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "util/json.h"

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

/// \brief Reads the optional integer field `key` of the object `json`
/// into `*out`; an absent key leaves `*out` unchanged. A value that is
/// not a number, has a fractional part, is below `min`, or lies past
/// the range of T is reported as error `code` at `parent + "/" + key`,
/// also leaving `*out` unchanged, and returns false. Every integer key
/// of the config loaders goes through here, so none truncates silently.
template <typename T>
bool ReadIntField(const Json& json, const std::string& key,
                  const std::string& parent, const char* code, T min, T* out,
                  Diagnostics* diags) {
  if (!json.Has(key)) return true;
  const Json value = json.Get(key).ValueOrDie();
  if (!internal::CheckIntField(
          value, key, parent + "/" + key, code, static_cast<double>(min),
          std::ldexp(1.0, std::numeric_limits<T>::digits),
          std::to_string(std::numeric_limits<T>::max()), diags)) {
    return false;
  }
  *out = static_cast<T>(value.AsDouble());
  return true;
}

}  // namespace icewafl

#endif  // ICEWAFL_UTIL_DIAG_H_
