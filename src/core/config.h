#ifndef ICEWAFL_CORE_CONFIG_H_
#define ICEWAFL_CORE_CONFIG_H_

#include <string>

#include "core/pipeline.h"
#include "util/diag.h"
#include "util/json.h"

namespace icewafl {

/// \file
/// Declarative configuration of pollution pipelines (Figure 2: the error
/// configuration is an input to the pollution process). The JSON forms
/// accepted here are exactly what the components' ToJson() methods emit,
/// so pipelines round-trip: Build -> ToJson -> *FromJson -> Build.
///
/// Example:
/// \code{.json}
/// {
///   "name": "software_update",
///   "polluters": [
///     {"type": "standard", "label": "km_to_cm",
///      "attributes": ["Distance"],
///      "condition": {"type": "time_window",
///                    "start": "2016-02-27 00:00:00"},
///      "error": {"type": "unit_conversion", "factor": 100000,
///                "from_unit": "km", "to_unit": "cm"}}
///   ]
/// }
/// \endcode
///
/// Timestamps in conditions/profiles may be given either as epoch-second
/// numbers or as "YYYY-MM-DD[ HH:MM:SS]" strings.

/// The loaders are the one checker of every rule about a single field
/// (DESIGN.md section 6). Each reports its findings into `diags` (when
/// non-null) as it parses, with the JSON pointer of the offending field:
///  - IW100 (error): anything that does not load — a missing, mistyped,
///    fractional or out-of-range field, an unknown type name, and, for
///    PipelineFromJson with a schema, a bind failure;
///  - IW303 (error): a negative delay, frozen-value hold, jitter or hold
///    duration, or a window_aggregate window that is not positive;
///  - IW402 (warning): a key the node's type does not read.
/// A failed load returns the first error as its Status, whose message
/// carries the same pointer ("at /polluters/0/error/stddev: missing
/// \"stddev\""): NotFound for a missing field, TypeError for a mistyped
/// one. The `path` argument is the pointer of `json` within the
/// enclosing document (empty for the root).

/// \brief Builds a change pattern from its JSON description.
Result<TimeProfilePtr> TimeProfileFromJson(const Json& json,
                                           const std::string& path = "",
                                           Diagnostics* diags = nullptr);

/// \brief Builds an error function from its JSON description.
Result<ErrorFunctionPtr> ErrorFunctionFromJson(const Json& json,
                                               const std::string& path = "",
                                               Diagnostics* diags = nullptr);

/// \brief Builds a condition from its JSON description.
Result<ConditionPtr> ConditionFromJson(const Json& json,
                                       const std::string& path = "",
                                       Diagnostics* diags = nullptr);

/// \brief Builds a (possibly composite) polluter from its JSON description.
Result<PolluterPtr> PolluterFromJson(const Json& json,
                                     const std::string& path = "",
                                     Diagnostics* diags = nullptr);

/// \brief The "polluters" array of a pipeline document, after checking
/// the document's own fields (an object with an optional string "name",
/// stored into `name` when non-null). PipelineFromJson loads each entry
/// at "/polluters/<i>" through PolluterFromJson; so does the analyzer.
Result<const Json::Array*> PollutersOf(const Json& json,
                                       Diagnostics* diags = nullptr,
                                       std::string* name = nullptr);

/// \brief Builds a whole pipeline from {"name": ..., "polluters": [...]}.
/// Every entry is loaded, so `diags` gets the findings of each. When
/// `bind_schema` is non-null the pipeline is additionally bound against
/// it (two-phase bind/run lifecycle, DESIGN.md §8), so unknown
/// attributes and type mismatches surface at load time — with the same
/// JSON-pointer paths as parse errors — instead of mid-stream.
Result<PollutionPipeline> PipelineFromJson(const Json& json,
                                           SchemaPtr bind_schema = nullptr,
                                           Diagnostics* diags = nullptr);

/// \brief Reads a JSON config file and builds (and, with a schema,
/// binds) the pipeline.
Result<PollutionPipeline> PipelineFromConfigFile(
    const std::string& path, SchemaPtr bind_schema = nullptr);

}  // namespace icewafl

#endif  // ICEWAFL_CORE_CONFIG_H_
