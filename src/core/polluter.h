#ifndef ICEWAFL_CORE_POLLUTER_H_
#define ICEWAFL_CORE_POLLUTER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/condition.h"
#include "core/error_function.h"
#include "core/pollution_log.h"
#include "stream/bind.h"
#include "stream/tuple.h"

namespace icewafl {

/// \brief A polluter p = <e, c, A_p> (Section 2.2, Equation 2).
///
/// Icewafl distinguishes standard polluters, which inject a specific data
/// error when their condition fires, from composite polluters
/// (composite_polluter.h), which structure the pipeline by delegating to
/// registered children.
///
/// Polluters follow the two-phase bind/run lifecycle (DESIGN.md §8):
/// Bind resolves attribute names against the schema once and validates
/// the error/condition configuration; Pollute is the per-tuple run phase.
/// A polluter invoked against a schema it was not bound to re-binds
/// lazily on the first tuple (and whenever the schema pointer changes),
/// so direct use without an explicit Bind keeps working.
class Polluter {
 public:
  explicit Polluter(std::string label) : label_(std::move(label)) {}
  virtual ~Polluter() = default;

  /// \brief Resolves attribute names to column indices and validates the
  /// configuration against `ctx.schema()`. Misconfiguration (unknown
  /// attribute, domain/type mismatch, bad arity) is reported as a Status
  /// whose message carries the JSON-pointer path of the offending config
  /// fragment. Composites recurse into their children.
  virtual Status Bind(BindContext& ctx) = 0;

  /// \brief Applies the polluter to `*tuple`: evaluates the condition and,
  /// if it fires, the error function. `log` may be nullptr.
  virtual Status Pollute(Tuple* tuple, PollutionContext* ctx,
                         PollutionLog* log) = 0;

  /// \brief (Re-)derives this polluter's private random stream from the
  /// parent generator. Must be called once before processing; pipelines do
  /// this for all their polluters (composites recurse into children).
  /// Deterministic: the same parent state yields the same child streams.
  virtual void Seed(Rng* parent) = 0;

  /// \brief Unique label within a pipeline, used in logs and configs.
  const std::string& label() const { return label_; }

  /// \brief Number of tuples this polluter actually polluted.
  uint64_t applied_count() const { return applied_count_; }
  virtual void ResetStats() { applied_count_ = 0; }

  virtual Json ToJson() const = 0;
  virtual std::unique_ptr<Polluter> Clone() const = 0;

 protected:
  /// \brief Lazy-bind helper for direct (pipeline-less) use: re-binds
  /// against the tuple's schema when it differs from the bound one.
  Status EnsureBound(const Tuple& tuple) {
    if (bound_schema_ == tuple.schema().get()) return Status::OK();
    if (tuple.schema() == nullptr) {
      return Status::Internal("polluter '" + label_ +
                              "': tuple has no schema");
    }
    BindContext ctx(*tuple.schema());
    return Bind(ctx);
  }

  std::string label_;
  uint64_t applied_count_ = 0;
  // Schema this polluter is currently bound against (identity compare).
  const Schema* bound_schema_ = nullptr;
};

using PolluterPtr = std::unique_ptr<Polluter>;

/// \brief Standard polluter: applies one error function to a fixed set of
/// target attributes whenever its condition fires.
class StandardPolluter : public Polluter {
 public:
  /// \param attributes target attribute names A_p; may be empty for
  ///   metadata errors (delay, timestamp shift).
  StandardPolluter(std::string label, ErrorFunctionPtr error,
                   ConditionPtr condition, std::vector<std::string> attributes);

  Status Bind(BindContext& ctx) override;
  Status Pollute(Tuple* tuple, PollutionContext* ctx,
                 PollutionLog* log) override;
  void Seed(Rng* parent) override;
  Json ToJson() const override;
  PolluterPtr Clone() const override;

  const ErrorFunction& error() const { return *error_; }
  const Condition& condition() const { return *condition_; }
  const std::vector<std::string>& attributes() const { return attributes_; }

 private:
  ErrorFunctionPtr error_;
  ConditionPtr condition_;
  std::vector<std::string> attributes_;
  Rng rng_;

  // Target attribute indices, resolved by Bind.
  std::vector<size_t> attr_indices_;
};

}  // namespace icewafl

#endif  // ICEWAFL_CORE_POLLUTER_H_
