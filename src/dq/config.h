#ifndef ICEWAFL_DQ_CONFIG_H_
#define ICEWAFL_DQ_CONFIG_H_

#include <string>

#include "dq/suite.h"
#include "util/diag.h"
#include "util/json.h"

namespace icewafl {
namespace dq {

/// \file
/// Declarative expectation-suite configuration (the analogue of Great
/// Expectations' JSON suites). Example:
/// \code{.json}
/// {"name": "wearable_checks",
///  "expectations": [
///    {"type": "expect_column_values_to_not_be_null", "column": "BPM"},
///    {"type": "expect_column_values_to_be_between", "column": "BPM",
///     "min": 30, "max": 220},
///    {"type": "expect_multicolumn_sum_to_equal",
///     "columns": ["Steps", "Distance"], "total": 0,
///     "where_column": "BPM", "where_value": 0}
///  ]}
/// \endcode

/// The loaders check every single-field rule as they parse, as the
/// pipeline loaders do (core/config.h): each finding goes into `diags`
/// (when non-null) with its JSON pointer — IW100 for anything that does
/// not load, IW402 for a key the expectation's type does not read — and
/// a failed load returns the first error as its Status, e.g. "at
/// /expectations/2/column: missing \"column\"". The `path` argument is
/// the pointer of `json` within the enclosing document (empty for the
/// root).

/// \brief Builds one expectation from its JSON description.
Result<ExpectationPtr> ExpectationFromJson(const Json& json,
                                           const std::string& path = "",
                                           Diagnostics* diags = nullptr);

/// \brief The "expectations" array of a suite document, after checking
/// the document's own fields (an object with an optional string "name",
/// stored into `name` when non-null). SuiteFromJson loads each entry at
/// "/expectations/<i>" through ExpectationFromJson; so does the analyzer.
Result<const Json::Array*> ExpectationsOf(const Json& json,
                                          Diagnostics* diags = nullptr,
                                          std::string* name = nullptr);

/// \brief Builds a whole suite from {"name": ..., "expectations": [...]}.
/// Every entry is loaded, so `diags` gets the findings of each. When
/// `bind_schema` is non-null the suite is additionally bound against it
/// (DESIGN.md section 8): unknown columns and type mismatches are
/// rejected here, at load time, with their JSON-pointer path.
Result<ExpectationSuite> SuiteFromJson(const Json& json,
                                       SchemaPtr bind_schema = nullptr,
                                       Diagnostics* diags = nullptr);

/// \brief Reads a JSON file and builds (and optionally binds) the suite.
Result<ExpectationSuite> SuiteFromConfigFile(const std::string& path,
                                             SchemaPtr bind_schema = nullptr);

}  // namespace dq
}  // namespace icewafl

#endif  // ICEWAFL_DQ_CONFIG_H_
