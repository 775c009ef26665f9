#ifndef ICEWAFL_CORE_ERROR_FUNCTION_H_
#define ICEWAFL_CORE_ERROR_FUNCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "stream/bind.h"
#include "stream/tuple.h"
#include "util/json.h"
#include "util/result.h"

namespace icewafl {

/// \brief Value domain an error function operates on; drives both the
/// static analyzer's schema-compatibility checks (analysis/analyzer.h)
/// and the default bind-time type validation.
enum class ErrorDomain {
  /// Works on values of any type (missing_value, set_constant, ...).
  kAnyValue = 0,
  /// Requires int64/double targets; rejected at Bind otherwise.
  kNumeric,
  /// Requires string targets; rejected at Bind otherwise.
  kString,
  /// Targets tuple metadata (arrival/event time), not attribute values.
  kMetadata,
};

/// \brief Static self-description of an error function.
///
/// The introspection surface the static analyzer uses to reason about a
/// configured error without executing it: which column types it is
/// compatible with, whether it consumes randomness (determinism audits),
/// and whether it perturbs temporal metadata (post-union sort checks).
struct ErrorTraits {
  ErrorDomain domain = ErrorDomain::kAnyValue;
  /// Draws from the polluter's random stream when applied.
  bool uses_rng = false;
  /// Rewrites the timestamp attribute value (timestamp_shift/jitter).
  bool mutates_timestamp = false;
  /// Postpones the tuple's arrival time (delay).
  bool delays_arrival = false;
  /// The most one application postpones the arrival time, in seconds;
  /// bounds the reordering that Algorithm 1's step 3 has to do.
  int64_t max_delay_seconds = 0;
};

/// \brief An error function e : dom(A) x 2^A x T -> dom(A) (Section 2.2).
///
/// Applies a specific data error to the targeted attributes of a tuple.
/// Implementations must honor `ctx.severity` in [0, 1] where meaningful
/// (severity scales error magnitude for continuous errors and acts as an
/// application probability for discrete ones); this is what turns a
/// static error into a derived temporal error when combined with a change
/// pattern (Figure 3).
///
/// Error functions follow the two-phase bind/run lifecycle (DESIGN.md
/// §8): Bind validates the target columns against the schema once (type
/// mismatches and arity errors become a Status with a JSON-pointer
/// path); Apply/Observe are the per-tuple hot path with no error
/// plumbing. Values whose runtime type diverged from the declared column
/// type (an upstream polluter may have rewritten them) are skipped like
/// NULLs.
class ErrorFunction {
 public:
  virtual ~ErrorFunction() = default;

  /// \brief Validates the resolved target columns against the schema.
  /// The default implementation enforces the declared ErrorDomain:
  /// kNumeric errors require int64/double columns, kString errors
  /// require string columns. Overrides add arity/parameter checks
  /// (swap_attributes, incorrect_category). `attrs` are the resolved
  /// indices of the polluter's target attributes, in config order.
  virtual Status Bind(BindContext& ctx, const std::vector<size_t>& attrs);

  /// \brief Transforms `*tuple` in place. `attrs` are the resolved indices
  /// of the polluter's target attributes A_p (may be empty for errors
  /// targeting tuple metadata, e.g. DelayError). Runs only after a
  /// successful Bind; values of unexpected runtime type are skipped.
  virtual void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                     PollutionContext* ctx) = 0;

  /// \brief Observation hook invoked for every tuple that passes the
  /// owning polluter, whether or not the condition fires. Stateful errors
  /// (FrozenValueError) use it to track the evolving clean stream.
  virtual void Observe(const Tuple& tuple, const std::vector<size_t>& attrs) {
    (void)tuple;
    (void)attrs;
  }

  /// \brief Stable identifier used in configs and logs.
  virtual std::string name() const = 0;

  /// \brief Static traits for the analyzer; see ErrorTraits.
  virtual ErrorTraits Describe() const { return {}; }

  /// \brief Config/log representation (round-trips through config.h).
  virtual Json ToJson() const = 0;

  /// \brief Deep copy (fresh state); required for parallel sub-pipelines.
  virtual std::unique_ptr<ErrorFunction> Clone() const = 0;
};

using ErrorFunctionPtr = std::unique_ptr<ErrorFunction>;

}  // namespace icewafl

#endif  // ICEWAFL_CORE_ERROR_FUNCTION_H_
