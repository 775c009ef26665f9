#include "util/diag.h"

#include "util/strings.h"

namespace icewafl {

const char* DiagSeverityName(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kNote:
      return "note";
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kError:
      return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = DiagSeverityName(severity);
  out += " ";
  out += code;
  out += " at ";
  out += path.empty() ? "/" : path;
  out += ": ";
  out += message;
  if (!hint.empty()) {
    out += " (hint: ";
    out += hint;
    out += ")";
  }
  return out;
}

Json Diagnostic::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("severity", DiagSeverityName(severity));
  j.Set("code", code);
  j.Set("path", path);
  j.Set("message", message);
  if (!hint.empty()) j.Set("hint", hint);
  return j;
}

void Diagnostics::AddError(std::string code, std::string path,
                           std::string message, std::string hint) {
  Add({DiagSeverity::kError, std::move(code), std::move(path),
       std::move(message), std::move(hint)});
}

void Diagnostics::AddWarning(std::string code, std::string path,
                             std::string message, std::string hint) {
  Add({DiagSeverity::kWarning, std::move(code), std::move(path),
       std::move(message), std::move(hint)});
}

void Diagnostics::AddNote(std::string code, std::string path,
                          std::string message, std::string hint) {
  Add({DiagSeverity::kNote, std::move(code), std::move(path),
       std::move(message), std::move(hint)});
}

void Diagnostics::Merge(const Diagnostics& other,
                        const std::string& path_prefix) {
  for (Diagnostic diagnostic : other.diagnostics_) {
    diagnostic.path.insert(0, path_prefix);
    diagnostics_.push_back(std::move(diagnostic));
  }
}

size_t Diagnostics::ErrorCount() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == DiagSeverity::kError) ++n;
  }
  return n;
}

size_t Diagnostics::WarningCount() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == DiagSeverity::kWarning) ++n;
  }
  return n;
}

bool Diagnostics::HasCode(const std::string& code) const {
  for (const Diagnostic& d : diagnostics_) {
    if (d.code == code) return true;
  }
  return false;
}

std::string Diagnostics::ToReport() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += d.ToString();
    out += "\n";
  }
  const size_t errors = ErrorCount();
  const size_t warnings = WarningCount();
  out += std::to_string(errors) + (errors == 1 ? " error, " : " errors, ");
  out += std::to_string(warnings) +
         (warnings == 1 ? " warning\n" : " warnings\n");
  return out;
}

Json Diagnostics::ToJson() const {
  Json arr = Json::MakeArray();
  for (const Diagnostic& d : diagnostics_) arr.Append(d.ToJson());
  Json j = Json::MakeObject();
  j.Set("diagnostics", std::move(arr));
  j.Set("errors", static_cast<int64_t>(ErrorCount()));
  j.Set("warnings", static_cast<int64_t>(WarningCount()));
  return j;
}

namespace internal {

bool CheckIntField(const Json& value, const std::string& key,
                   const std::string& path, const char* code, double min,
                   double limit, const std::string& max_text,
                   Diagnostics* diags) {
  const std::string name = "\"" + key + "\"";
  if (!value.is_number()) {
    diags->AddError(code, path, name + " must be an integer");
    return false;
  }
  const double v = value.AsDouble();
  const std::string got = " (got " + FormatDouble(v) + ")";
  if (!std::isfinite(v) || v != std::floor(v)) {
    diags->AddError(code, path, name + " must be an integer" + got);
  } else if (v < min) {
    diags->AddError(code, path,
                    name + " must be >= " + FormatDouble(min) + got);
  } else if (v >= limit) {
    diags->AddError(code, path, name + " must be <= " + max_text + got);
  } else {
    return true;
  }
  return false;
}

}  // namespace internal
}  // namespace icewafl
