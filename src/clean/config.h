#ifndef ICEWAFL_CLEAN_CONFIG_H_
#define ICEWAFL_CLEAN_CONFIG_H_

#include <string>

#include "clean/rules.h"
#include "stream/schema.h"
#include "util/diag.h"
#include "util/json.h"
#include "util/result.h"

namespace icewafl {
namespace clean {

/// \file
/// JSON loading of cleaning documents — the one checker of their rules.
/// The document shape is
/// \code{.json}
/// {"name": "wearable_clean", "key": "device", "history": 16,
///  "rules": [
///    {"label": "bpm_range", "column": "BPM",
///     "detect": {"type": "range", "min": 20, "max": 250},
///     "repair": "set_null",
///     "when": [{"column": "Steps", "op": "gt", "value": 0}]}]}
/// \endcode
/// with detect types range / not_null / regex / type / cross_field /
/// rate_of_change / stuck_at and repairs drop / set_null / clamp /
/// last_good / window_mean / window_median. "when" accepts one guard
/// object or an array of them.
///
/// Every finding is a Diagnostic with an RFC 6901 pointer into the
/// document (full table in DESIGN.md section 15):
///  - IW701 (error): malformed document shape — not an object, missing
///    or non-array "rules", a non-string "name"/"key", a "history" that
///    is not an integer >= 1 (an empty rules array is a warning: the
///    cleaner never repairs anything);
///  - IW702 (error): malformed rule entry — missing, mistyped, or empty
///    label / column / detect / repair / when / guard fields;
///  - IW703 (error, bound loads only): a column the schema lacks, or a
///    string-typed column in a position that binds numerically;
///  - IW704 (error): bad detect parameters — unknown detect type,
///    repair, compare op, or value type; range min > max; an invalid
///    regex pattern; max_change <= 0; min_repeats not an integer >= 2;
///  - IW705 (error): clamp without a range detect to take bounds from;
///  - IW706 (warning): duplicate rule label;
///  - IW707 (warning): stuck_at min_repeats exceeding the history
///    window, so the rule can never fire;
///  - IW604 (warning): unknown document or rule key.

/// \brief Builds cleaning rules from a parsed document, reporting every
/// finding into `diags` (when non-null). When `bind_schema` is non-null
/// and the document parsed cleanly, every rule is also bound against it
/// (IW703), so a returned document is ready to run. Fails —
/// InvalidArgument carrying the report — only if an error was reported;
/// warnings never fail the load.
Result<CleaningRules> RulesFromJson(const Json& json,
                                    SchemaPtr bind_schema = nullptr,
                                    Diagnostics* diags = nullptr);

/// \brief Parses JSON text and builds the rules.
Result<CleaningRules> RulesFromJsonString(const std::string& text,
                                          SchemaPtr bind_schema = nullptr);

/// \brief Binds every rule of `rules` against `schema`, rooting paths
/// at "/rules/<i>" (and "/key"). Each failure is also reported into
/// `diags` (when non-null) as IW703; returns the first one.
Status BindRules(CleaningRules* rules, const Schema& schema,
                 Diagnostics* diags = nullptr);

}  // namespace clean
}  // namespace icewafl

#endif  // ICEWAFL_CLEAN_CONFIG_H_
