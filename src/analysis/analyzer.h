#ifndef ICEWAFL_ANALYSIS_ANALYZER_H_
#define ICEWAFL_ANALYSIS_ANALYZER_H_

#include <optional>
#include <string>
#include <vector>

#include "stream/schema.h"
#include "util/diag.h"
#include "util/json.h"
#include "util/status.h"
#include "util/time_util.h"

namespace icewafl {
namespace analysis {

/// \file
/// icewafl-lint: static analysis of pollution pipelines and expectation
/// suites *before* any tuple flows. Every rule about a single field is
/// the loaders' (PolluterFromJson, dq::ExpectationFromJson and their
/// node loaders): the analyzer builds each top-level polluter and each
/// expectation once through them, so their findings — IW100 at the
/// failing field, IW303 negative durations, IW402 unknown keys — are
/// lint's, and lint and load cannot disagree. The passes kept here need
/// more than one field: the folded condition tree, the schema, the
/// stream bounds, or both documents. They borrow the library's own
/// introspection surfaces — ErrorFunction::Describe() for value-domain
/// compatibility and TimeProfile::Bounds() for activation-probability
/// enclosures — instead of duplicating per-type knowledge.
///
/// Passes (full code table in DESIGN.md section 6):
///  - schema consistency: polluted/conditioned attributes exist and the
///    error's value domain matches the column type (IW101..IW107);
///  - condition satisfiability: constant folding and interval analysis
///    over the condition tree — dead polluters, always-true
///    "probabilistic" gates, contradictory window intersections
///    (IW201, IW202, IW204; the loaders report IW203 and IW205);
///  - temporal sanity: windows vs the stream bounds, overlapping
///    exclusive branches, delay/shift magnitudes (IW301, IW302, IW304);
///  - determinism and log hygiene: duplicate labels, malformed weights
///    (IW401, IW403);
///  - suite cross-checks: unknown columns, empty ranges, injected error
///    classes no expectation can detect (IW501..IW503).
///
/// Serve configs (IW601..IW609, IW615) and cleaning documents
/// (IW701..IW707) have no analyzer pass: their loaders,
/// net::ServeConfig::FromJson and clean::RulesFromJson, report every
/// finding as they parse.
///
/// A literal {"type": "never"} condition is the documented way to switch
/// a polluter off in place, so it is deliberately *not* reported as
/// unsatisfiable; only derived contradictions are.

/// \brief Optional context sharpening the analysis. All members may be
/// left empty: without a schema the attribute checks are skipped,
/// without stream bounds the out-of-stream window checks are skipped.
struct AnalyzeOptions {
  /// Stream schema the pipeline will run against.
  SchemaPtr schema;
  /// Stream bounds (ProcessOptions::stream_start / stream_end).
  std::optional<Timestamp> stream_start;
  std::optional<Timestamp> stream_end;
};

/// \brief Analyzes a pipeline document {"name": ..., "polluters": [...]}.
Diagnostics AnalyzePipeline(const Json& pipeline_json,
                            const AnalyzeOptions& options = {});

/// \brief Analyzes a pipeline together with an optional suite; with both
/// present, additionally cross-checks detection coverage (IW502: an
/// injected error class that no expectation can observe). Suite
/// diagnostic paths are prefixed with "suite:".
Diagnostics AnalyzeArtifacts(const Json& pipeline_json,
                             const Json* suite_json,
                             const AnalyzeOptions& options = {});

/// \brief Heuristic: a JSON object with a "rules" array whose entries
/// carry "detect"/"repair" (and no pipeline/suite/serve markers) is a
/// cleaning document (used by the lint CLI to route documents).
bool LooksLikeCleanerRules(const Json& json);

/// \brief Context for admin-request analysis. Vocabularies are passed
/// in (net::AdminMethodNames(), scenarios::ScenarioNames()) so the
/// analyzer stays free of network and scenario dependencies; an empty
/// vector skips the corresponding membership check.
struct AdminAnalyzeOptions {
  std::vector<std::string> known_methods;
  std::vector<std::string> known_scenarios;
};

/// \brief Analyzes one admin-channel request document
/// {"id": ..., "method": ..., "params": {...}} before it is applied —
/// the lint gate of every `icewafl_cli admin` mutation (the server
/// re-runs it, so a hand-rolled client cannot skip the gate). Codes:
///  - IW610 (error): malformed envelope — not an object, missing or
///    non-string method, an id that is neither number nor string, or
///    params that are not an object;
///  - IW611 (error): unknown method (hint lists the known methods);
///  - IW612 (error): missing or malformed per-method params — the
///    "session" target of get_config / swap_pipeline / set_rate /
///    stop_session (a non-empty string) or the "session" entry object
///    of create_session;
///  - IW613 (error): swap_pipeline params carrying both or neither of
///    "pipeline" (an object document) and "scenario" (a known name);
///  - IW614 (error): set_rate "tuples_per_sec" missing, non-numeric,
///    negative, or not finite (0 serves unpaced);
///  - IW616 (error): set_cleaner params missing "rules", or "rules"
///    neither a cleaning document object (checked by the cleaner loader,
///    clean::RulesFromJson, its findings rooted at /params/rules) nor
///    null (which removes the session's cleaner);
///  - IW604 (warning): unknown params key for the method.
Diagnostics AnalyzeAdminRequest(const Json& request_json,
                                const AdminAnalyzeOptions& options = {});

/// \brief Heuristic: a JSON object with a sessions array (or a legacy
/// top-level scenario, which the serve loader then rejects with IW608)
/// but no polluters is a serve config, not a pipeline (used by the lint
/// CLI to route documents).
bool LooksLikeServeConfig(const Json& json);

}  // namespace analysis
}  // namespace icewafl

#endif  // ICEWAFL_ANALYSIS_ANALYZER_H_
