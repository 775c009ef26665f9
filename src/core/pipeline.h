#ifndef ICEWAFL_CORE_PIPELINE_H_
#define ICEWAFL_CORE_PIPELINE_H_

#include <string>
#include <vector>

#include "core/polluter.h"
#include "obs/metrics.h"
#include "util/diag.h"
#include "stream/schema.h"

namespace icewafl {

/// \brief A pollution pipeline P = p_1, ..., p_o (Section 2.2.1): an
/// ordered sequence of polluters applied to every tuple, i.e.
/// t' = p_o(...p_1(t, tau)..., tau).
class PollutionPipeline {
 public:
  PollutionPipeline() = default;
  explicit PollutionPipeline(std::string name) : name_(std::move(name)) {}

  PollutionPipeline(PollutionPipeline&&) = default;
  PollutionPipeline& operator=(PollutionPipeline&&) = default;
  PollutionPipeline(const PollutionPipeline&) = delete;
  PollutionPipeline& operator=(const PollutionPipeline&) = delete;

  const std::string& name() const { return name_; }

  /// \brief Appends a polluter; execution follows insertion order.
  void Add(PolluterPtr polluter) { polluters_.push_back(std::move(polluter)); }

  size_t size() const { return polluters_.size(); }
  bool empty() const { return polluters_.empty(); }
  const std::vector<PolluterPtr>& polluters() const { return polluters_; }

  /// \brief Derives fresh random streams for every polluter from `seed`.
  /// Call once before a run; identical seeds reproduce identical output.
  void Seed(uint64_t seed);

  /// \brief Binds every polluter against `schema` (two-phase bind/run
  /// lifecycle, DESIGN.md §8): attribute names resolve to column indices
  /// once, and misconfiguration surfaces here as a Status whose message
  /// carries a JSON-pointer path ("at /polluters/0/condition/attribute:
  /// unknown attribute ..."). The pipeline keeps `schema` alive for its
  /// bound polluters; clones share the same immutable bound plan. A
  /// failure is also reported into `diags` (when non-null) as IW100 at
  /// its pointer.
  Status Bind(SchemaPtr schema, Diagnostics* diags = nullptr);

  /// \brief The schema this pipeline was last successfully bound
  /// against, or nullptr.
  const SchemaPtr& bound_schema() const { return bound_schema_; }

  /// \brief The most this pipeline can postpone one tuple's arrival:
  /// the sum of its delay errors' delays (Algorithm 1's lateness bound L).
  int64_t MaxArrivalDelay() const;

  /// \brief Runs the tuple through all polluters in order.
  Status Apply(Tuple* tuple, PollutionContext* ctx, PollutionLog* log) const;

  /// \brief Clears the applied counters of all polluters.
  void ResetStats();

  /// \brief Sum of the top-level polluters' applied counts; cheap enough
  /// to sample per tuple, which is how the operator adapters count
  /// polluted tuples without touching the data path.
  uint64_t TotalAppliedCount() const;

  /// \brief Pushes every polluter's activation count (composites
  /// recursively, so nested children appear as their own series) into
  /// `registry` as `icewafl_polluter_applied_total` counters labeled with
  /// the pipeline name, the polluter label, and the error function's
  /// name/domain (from ErrorFunction::Describe()). Counters aggregate
  /// across the per-worker pipeline clones of a parallel run. No-op when
  /// `registry` is nullptr.
  void PublishMetrics(obs::MetricRegistry* registry) const;

  /// \brief Deep copy with fresh polluter state.
  PollutionPipeline Clone() const;

  /// \brief Config representation.
  Json ToJson() const;

 private:
  std::string name_ = "pipeline";
  std::vector<PolluterPtr> polluters_;
  SchemaPtr bound_schema_;
};

}  // namespace icewafl

#endif  // ICEWAFL_CORE_PIPELINE_H_
