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

namespace {

/// The field `key` when present and of the kind `is_kind` accepts;
/// nullptr when absent (true) or after reporting the wrong kind (false).
const Json* ReadKind(const Json& json, const std::string& key,
                     const std::string& parent, const char* code,
                     bool (Json::*is_kind)() const, const char* kind,
                     Diagnostics* diags, bool* ok) {
  *ok = true;
  if (!json.Has(key)) return nullptr;
  const Json& value = json.fields().at(key);
  if (!(value.*is_kind)()) {
    diags->AddError(code, parent + "/" + key,
                    "\"" + key + "\" must be " + kind);
    *ok = false;
    return nullptr;
  }
  return &value;
}

}  // namespace

bool ReadNumberField(const Json& json, const std::string& key,
                     const std::string& parent, const char* code, double* out,
                     Diagnostics* diags) {
  bool ok = true;
  if (const Json* value = ReadKind(json, key, parent, code, &Json::is_number,
                                   "a number", diags, &ok)) {
    *out = value->AsDouble();
  }
  return ok;
}

bool ReadBoolField(const Json& json, const std::string& key,
                   const std::string& parent, const char* code, bool* out,
                   Diagnostics* diags) {
  bool ok = true;
  if (const Json* value = ReadKind(json, key, parent, code, &Json::is_bool,
                                   "true or false", diags, &ok)) {
    *out = value->AsBool();
  }
  return ok;
}

bool ReadStringField(const Json& json, const std::string& key,
                     const std::string& parent, const char* code,
                     std::string* out, Diagnostics* diags) {
  bool ok = true;
  if (const Json* value = ReadKind(json, key, parent, code, &Json::is_string,
                                   "a string", diags, &ok)) {
    *out = value->AsString();
  }
  return ok;
}

std::optional<Json> Require(const Json& json, const std::string& key,
                            const std::string& at, const char* code,
                            bool want_string, Diagnostics* diags) {
  const std::string path = at + "/" + key;
  const std::string name = "\"" + key + "\"";
  if (!json.Has(key)) {
    diags->AddError(code, path, "missing " + name);
    return std::nullopt;
  }
  const Json& value = json.fields().at(key);
  if (want_string ? !value.is_string() : !value.is_number()) {
    diags->AddError(code, path,
                    name + " must be a " + (want_string ? "string" : "number"));
    return std::nullopt;
  }
  if (want_string && value.AsString().empty()) {
    diags->AddError(code, path, name + " must not be empty");
    return std::nullopt;
  }
  return value;
}

Status FieldReader::ExpectObject(const std::string& what) {
  if (json_.is_object()) return Status::OK();
  return Fail(StatusCode::kParseError, "", what + " must be a JSON object");
}

Result<const Json*> FieldReader::Get(const std::string& key) {
  read_.insert(key);
  if (!json_.Has(key)) {
    return Fail(StatusCode::kNotFound, key, "missing \"" + key + "\"");
  }
  return &json_.fields().at(key);
}

Result<double> FieldReader::Number(const std::string& key) {
  read_.insert(key);
  std::optional<Json> value =
      Require(json_, key, path_, "IW100", false, diags_);
  if (!value) return Failed(key);
  return value->AsDouble();
}

Result<std::string> FieldReader::String(const std::string& key) {
  read_.insert(key);
  std::optional<Json> value =
      Require(json_, key, path_, "IW100", true, diags_);
  if (!value) return Failed(key);
  return value->AsString();
}

Result<const Json::Array*> FieldReader::Array(const std::string& key) {
  ICEWAFL_ASSIGN_OR_RETURN(const Json* value, Get(key));
  if (!value->is_array()) {
    return Fail(StatusCode::kTypeError, key,
                "\"" + key + "\" must be an array");
  }
  return &value->items();
}

Result<std::vector<std::string>> FieldReader::Strings(const std::string& key) {
  ICEWAFL_ASSIGN_OR_RETURN(const Json::Array* items, Array(key));
  std::vector<std::string> out;
  for (size_t i = 0; i < items->size(); ++i) {
    if (!(*items)[i].is_string()) {
      return Fail(StatusCode::kTypeError, key + "/" + std::to_string(i),
                  "\"" + key + "\" must contain only strings");
    }
    out.push_back((*items)[i].AsString());
  }
  return out;
}

Result<std::vector<double>> FieldReader::Numbers(const std::string& key) {
  ICEWAFL_ASSIGN_OR_RETURN(const Json::Array* items, Array(key));
  std::vector<double> out;
  for (size_t i = 0; i < items->size(); ++i) {
    if (!(*items)[i].is_number()) {
      return Fail(StatusCode::kTypeError, key + "/" + std::to_string(i),
                  "\"" + key + "\" must contain only numbers");
    }
    out.push_back((*items)[i].AsDouble());
  }
  return out;
}

Result<double> FieldReader::Number(const std::string& key, double fallback) {
  read_.insert(key);
  if (!ReadNumberField(json_, key, path_, "IW100", &fallback, diags_)) {
    return Failed(key);
  }
  return fallback;
}

Result<bool> FieldReader::Bool(const std::string& key, bool fallback) {
  read_.insert(key);
  if (!ReadBoolField(json_, key, path_, "IW100", &fallback, diags_)) {
    return Failed(key);
  }
  return fallback;
}

Result<std::string> FieldReader::String(const std::string& key,
                                        std::string fallback) {
  read_.insert(key);
  if (!ReadStringField(json_, key, path_, "IW100", &fallback, diags_)) {
    return Failed(key);
  }
  return fallback;
}

Status FieldReader::Fail(StatusCode code, const std::string& key,
                         const std::string& message, const char* diag_code) {
  diags_->AddError(diag_code, key.empty() ? path_ : At(key), message);
  return Reported(code);
}

void FieldReader::Done() {
  for (const auto& field : json_.fields()) {
    if (read_.count(field.first) == 0) {
      diags_->AddWarning("IW402", At(field.first),
                         "unknown config key '" + field.first +
                             "' is ignored",
                         "remove it or fix the spelling");
    }
  }
}

Status FieldReader::Failed(const std::string& key) const {
  return Reported(json_.Has(key) ? StatusCode::kTypeError
                                 : StatusCode::kNotFound);
}

Status FieldReader::Reported(StatusCode code) const {
  const Diagnostic& finding = diags_->items().back();
  return Status(code, "at " + (finding.path.empty() ? "/" : finding.path) +
                          ": " + finding.message);
}

}  // namespace icewafl
