#include "clean/config.h"

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace icewafl {
namespace clean {

namespace {

/// "one of: a, b, c" over an enum's config names, first value to `last`.
template <typename E>
std::string OneOf(E last, const char* (*name)(E)) {
  std::vector<std::string> names;
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    names.push_back(name(static_cast<E>(i)));
  }
  return "one of: " + Join(names, ", ");
}

/// A name field mapped through its enum's FromName: absent or mistyped
/// is `code`, an unknown name is IW704 with the vocabulary as the hint.
template <typename E>
std::optional<E> NameField(const Json& json, const std::string& key,
                           const std::string& at, const char* code,
                           Result<E> (*from_name)(const std::string&),
                           const std::string& vocabulary, Diagnostics* d) {
  std::optional<Json> value = Require(json, key, at, code, true, d);
  if (!value) return std::nullopt;
  Result<E> parsed = from_name(value->AsString());
  if (!parsed.ok()) {
    d->AddError("IW704", at + "/" + key, parsed.status().message(),
                vocabulary);
    return std::nullopt;
  }
  return parsed.ValueOrDie();
}

std::optional<CompareOp> OpField(const Json& json, const std::string& at,
                                 const char* code, Diagnostics* d) {
  return NameField(json, "op", at, code, CompareOpFromName,
                   OneOf(CompareOp::kNe, CompareOpName), d);
}

/// The fields every rule carries, whatever its detect type.
struct RuleHead {
  std::string label;
  std::string column;
  RepairAction repair = RepairAction::kDrop;
};

/// One detect type: reads the detect object's parameters (IW704 at
/// `at`, the detect object's pointer) and builds the rule, or returns
/// null after reporting.
using DetectParser = std::unique_ptr<CleanRule> (*)(
    const Json& detect, const std::string& at, RuleHead head, size_t history,
    Diagnostics* d);

std::unique_ptr<CleanRule> ParseRange(const Json& detect,
                                      const std::string& at, RuleHead head,
                                      size_t, Diagnostics* d) {
  std::optional<Json> min = Require(detect, "min", at, "IW704", false, d);
  std::optional<Json> max = Require(detect, "max", at, "IW704", false, d);
  if (!min || !max) return nullptr;
  if (min->AsDouble() > max->AsDouble()) {
    d->AddError("IW704", at + "/min",
                "range min " + std::to_string(min->AsDouble()) +
                    " exceeds max " + std::to_string(max->AsDouble()));
    return nullptr;
  }
  return std::make_unique<RangeRule>(std::move(head.label),
                                     std::move(head.column), min->AsDouble(),
                                     max->AsDouble(), head.repair);
}

std::unique_ptr<CleanRule> ParseNotNull(const Json&, const std::string&,
                                        RuleHead head, size_t, Diagnostics*) {
  return std::make_unique<NotNullRule>(std::move(head.label),
                                       std::move(head.column), head.repair);
}

std::unique_ptr<CleanRule> ParseRegex(const Json& detect,
                                      const std::string& at, RuleHead head,
                                      size_t, Diagnostics* d) {
  std::optional<Json> pattern =
      Require(detect, "pattern", at, "IW704", true, d);
  if (!pattern) return nullptr;
  Result<Regex> regex = Regex::Compile(pattern->AsString());
  if (!regex.ok()) {
    d->AddError("IW704", at + "/pattern",
                "regex pattern '" + pattern->AsString() +
                    "' does not compile: " + regex.status().message());
    return nullptr;
  }
  return std::make_unique<RegexRule>(std::move(head.label),
                                     std::move(head.column),
                                     std::move(regex).ValueOrDie(),
                                     head.repair);
}

std::unique_ptr<CleanRule> ParseType(const Json& detect,
                                     const std::string& at, RuleHead head,
                                     size_t, Diagnostics* d) {
  std::optional<ValueType> type =
      NameField(detect, "value_type", at, "IW704", ValueTypeFromName,
                OneOf(ValueType::kString, ValueTypeName), d);
  if (!type) return nullptr;
  return std::make_unique<TypeRule>(std::move(head.label),
                                    std::move(head.column), *type,
                                    head.repair);
}

std::unique_ptr<CleanRule> ParseCrossField(const Json& detect,
                                           const std::string& at,
                                           RuleHead head, size_t,
                                           Diagnostics* d) {
  std::optional<CompareOp> op = OpField(detect, at, "IW704", d);
  std::optional<Json> other = Require(detect, "other", at, "IW704", true, d);
  if (!op || !other) return nullptr;
  return std::make_unique<CrossFieldRule>(std::move(head.label),
                                          std::move(head.column), *op,
                                          other->AsString(), head.repair);
}

std::unique_ptr<CleanRule> ParseRateOfChange(const Json& detect,
                                             const std::string& at,
                                             RuleHead head, size_t,
                                             Diagnostics* d) {
  std::optional<Json> max_change =
      Require(detect, "max_change", at, "IW704", false, d);
  if (!max_change) return nullptr;
  if (!(max_change->AsDouble() > 0)) {
    d->AddError("IW704", at + "/max_change",
                "max_change must be positive (got " +
                    std::to_string(max_change->AsDouble()) + ")");
    return nullptr;
  }
  return std::make_unique<RateOfChangeRule>(std::move(head.label),
                                            std::move(head.column),
                                            max_change->AsDouble(),
                                            head.repair);
}

std::unique_ptr<CleanRule> ParseStuckAt(const Json& detect,
                                        const std::string& at, RuleHead head,
                                        size_t history, Diagnostics* d) {
  if (!detect.Has("min_repeats")) {
    d->AddError("IW704", at + "/min_repeats", "missing \"min_repeats\"");
    return nullptr;
  }
  size_t repeats = 0;
  if (!ReadIntField<size_t>(detect, "min_repeats", at, "IW704", 2, &repeats,
                            d)) {
    return nullptr;
  }
  if (repeats - 1 > history) {
    // IW707: the ring buffer holds `history` accepted values, so a
    // stuck-at run longer than history+1 can never be observed.
    d->AddWarning("IW707", at + "/min_repeats",
                  "stuck_at needs " + std::to_string(repeats - 1) +
                      " previous values but the document's history window "
                      "holds only " + std::to_string(history) +
                      "; this rule can never fire",
                  "raise /history or lower min_repeats");
  }
  return std::make_unique<StuckAtRule>(std::move(head.label),
                                       std::move(head.column), repeats,
                                       head.repair);
}

struct DetectType {
  const char* name;
  DetectParser parse;
};

/// The detect vocabulary, in documentation order.
const DetectType kDetectTypes[] = {
    {"range", ParseRange},
    {"not_null", ParseNotNull},
    {"regex", ParseRegex},
    {"type", ParseType},
    {"cross_field", ParseCrossField},
    {"rate_of_change", ParseRateOfChange},
    {"stuck_at", ParseStuckAt},
};

const DetectType* FindDetectType(const std::string& name) {
  for (const DetectType& type : kDetectTypes) {
    if (name == type.name) return &type;
  }
  return nullptr;
}

std::string DetectVocabulary() {
  std::vector<std::string> names;
  for (const DetectType& type : kDetectTypes) names.push_back(type.name);
  return "one of: " + Join(names, ", ");
}

/// One "when" guard object {"column", "op", "value"} at `at`.
std::optional<RuleGuard> GuardFromJson(const Json& json, const std::string& at,
                                       Diagnostics* d) {
  if (!json.is_object()) {
    d->AddError("IW702", at, "guard must be an object",
                "expected {\"column\": ..., \"op\": ..., \"value\": ...}");
    return std::nullopt;
  }
  std::optional<Json> column = Require(json, "column", at, "IW702", true, d);
  std::optional<CompareOp> op = OpField(json, at, "IW702", d);
  std::optional<Json> value = Require(json, "value", at, "IW702", false, d);
  if (!column || !op || !value) return std::nullopt;
  RuleGuard guard;
  guard.column = column->AsString();
  guard.op = *op;
  guard.value = value->AsDouble();
  return guard;
}

/// One entry of the "rules" array at `at`; null when the entry reported
/// an error (the caller keeps scanning the remaining entries).
std::unique_ptr<CleanRule> RuleFromJson(const Json& json,
                                        const std::string& at, size_t history,
                                        std::set<std::string>* labels,
                                        Diagnostics* d) {
  if (!json.is_object()) {
    d->AddError("IW702", at, "rule must be an object",
                "expected {\"label\": ..., \"column\": ..., "
                "\"detect\": {...}, \"repair\": ...}");
    return nullptr;
  }
  const size_t errors_before = d->ErrorCount();
  RuleHead head;
  if (std::optional<Json> label =
          Require(json, "label", at, "IW702", true, d)) {
    head.label = label->AsString();
    if (!labels->insert(head.label).second) {
      d->AddWarning("IW706", at + "/label",
                    "duplicate rule label '" + head.label + "'",
                    "labels key the per-rule metrics and the repair log; "
                    "duplicates merge their series");
    }
  }

  const DetectType* detect_type = nullptr;
  Json detect;
  if (!json.Has("detect")) {
    d->AddError("IW702", at + "/detect", "missing \"detect\"");
  } else if (detect = json.Get("detect").ValueOrDie(); !detect.is_object()) {
    d->AddError("IW702", at + "/detect", "\"detect\" must be an object");
  } else if (std::optional<Json> type =
                 Require(detect, "type", at + "/detect", "IW702", true, d)) {
    detect_type = FindDetectType(type->AsString());
    if (detect_type == nullptr) {
      d->AddError("IW704", at + "/detect/type",
                  "unknown detect type '" + type->AsString() + "'",
                  DetectVocabulary());
    }
  }
  if (std::optional<Json> column =
          Require(json, "column", at, "IW702", true, d)) {
    head.column = column->AsString();
  }
  const std::optional<RepairAction> repair =
      NameField(json, "repair", at, "IW702", RepairActionFromName,
                OneOf(RepairAction::kWindowMedian, RepairActionName), d);
  if (repair) head.repair = *repair;

  std::unique_ptr<CleanRule> rule;
  if (detect_type != nullptr) {
    rule = detect_type->parse(detect, at + "/detect", std::move(head), history,
                              d);
  }
  double lo = 0, hi = 0;
  if (rule != nullptr && repair == RepairAction::kClamp &&
      !rule->ClampBounds(&lo, &hi)) {
    d->AddError("IW705", at + "/repair",
                "repair 'clamp' requires a range detect rule",
                "clamp snaps to the range's [min, max]; use a different "
                "repair or a range detect");
  }

  std::vector<RuleGuard> guards;
  if (json.Has("when")) {
    const Json when = json.Get("when").ValueOrDie();
    if (when.is_object()) {
      if (auto guard = GuardFromJson(when, at + "/when", d)) {
        guards.push_back(std::move(*guard));
      }
    } else if (when.is_array()) {
      for (size_t i = 0; i < when.items().size(); ++i) {
        if (auto guard = GuardFromJson(
                when.items()[i], at + "/when/" + std::to_string(i), d)) {
          guards.push_back(std::move(*guard));
        }
      }
    } else {
      d->AddError("IW702", at + "/when",
                  "\"when\" must be a guard object or an array of them");
    }
  }

  // IW604: unknown rule keys are likely typos.
  for (const auto& field : json.fields()) {
    if (field.first != "label" && field.first != "column" &&
        field.first != "detect" && field.first != "repair" &&
        field.first != "when") {
      d->AddWarning("IW604", at + "/" + field.first,
                    "unknown rule key '" + field.first + "'");
    }
  }
  if (rule == nullptr || d->ErrorCount() != errors_before) return nullptr;
  *rule->mutable_guards() = std::move(guards);
  return rule;
}

/// The document shape (IW701) and every rule entry.
void LoadDocument(const Json& json, CleaningRules* rules, Diagnostics* d) {
  if (!json.is_object()) {
    d->AddError("IW701", "", "cleaning document must be a JSON object",
                "expected {\"name\": ..., \"rules\": [...]}");
    return;
  }
  ReadStringField(json, "name", "", "IW701", &rules->name, d);
  ReadStringField(json, "key", "", "IW701", &rules->key, d);
  for (const auto& field : json.fields()) {
    const std::string& key = field.first;
    if (key != "name" && key != "key" && key != "history" && key != "rules") {
      d->AddWarning("IW604", "/" + key,
                    "unknown cleaning document key '" + key + "'");
    }
  }
  ReadIntField<size_t>(json, "history", "", "IW701", 1, &rules->history, d);
  if (!json.Has("rules")) {
    d->AddError("IW701", "/rules", "missing \"rules\" array");
    return;
  }
  const Json entries = json.Get("rules").ValueOrDie();
  if (!entries.is_array()) {
    d->AddError("IW701", "/rules", "\"rules\" must be an array");
    return;
  }
  if (entries.items().empty()) {
    d->AddWarning("IW701", "/rules",
                  "empty rules array: this cleaner never repairs anything");
  }
  std::set<std::string> labels;
  for (size_t i = 0; i < entries.items().size(); ++i) {
    std::unique_ptr<CleanRule> rule =
        RuleFromJson(entries.items()[i], "/rules/" + std::to_string(i),
                     rules->history, &labels, d);
    if (rule != nullptr) rules->rules.push_back(std::move(rule));
  }
}

std::string SchemaColumnsHint(const Schema& schema) {
  std::string hint = "schema columns: ";
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) hint += ", ";
    hint += schema.attribute(i).name;
  }
  return hint;
}

}  // namespace

Result<CleaningRules> RulesFromJson(const Json& json, SchemaPtr bind_schema,
                                    Diagnostics* diags) {
  Diagnostics found;
  CleaningRules rules;
  LoadDocument(json, &rules, &found);
  if (!found.HasErrors() && bind_schema != nullptr) {
    (void)BindRules(&rules, *bind_schema, &found);
  }
  if (diags != nullptr) diags->Merge(found);
  if (found.HasErrors()) {
    return Status::InvalidArgument("cleaning document rejected:\n" +
                                   found.ToReport());
  }
  return rules;
}

Status BindRules(CleaningRules* rules, const Schema& schema,
                 Diagnostics* diags) {
  BindContext ctx(schema);
  Status first = Status::OK();
  const auto report = [&](const Status& status) {
    if (status.ok()) return;
    if (diags != nullptr) {
      diags->AddError("IW703", ctx.error_path(), ctx.error_message(),
                      status.code() == StatusCode::kNotFound
                          ? SchemaColumnsHint(schema)
                          : "");
    }
    if (first.ok()) first = status;
  };
  if (!rules->key.empty()) {
    BindContext::Scope scope(ctx, "key");
    report(ctx.Resolve(rules->key).status());
  }
  for (size_t i = 0; i < rules->rules.size(); ++i) {
    BindContext::Scope rules_scope(ctx, "rules");
    BindContext::Scope index_scope(ctx, i);
    report(rules->rules[i]->Bind(ctx));
  }
  return first;
}

}  // namespace clean
}  // namespace icewafl
