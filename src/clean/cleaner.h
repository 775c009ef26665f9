#ifndef ICEWAFL_CLEAN_CLEANER_H_
#define ICEWAFL_CLEAN_CLEANER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "clean/rules.h"
#include "obs/metrics.h"
#include "stream/operator.h"
#include "stream/sink.h"
#include "stream/tuple.h"
#include "util/json.h"
#include "util/result.h"

namespace icewafl {
namespace clean {

/// \file
/// The cleaning operator and its deterministic runner (DESIGN.md
/// section 15). A CleanerOperator evaluates the document's rules in
/// canonical order — pure stateless rules in document order, then
/// stateful (windowed-detect or windowed-repair) rules in document
/// order — applying each repair before the next rule sees the tuple.
/// CleanTuples exploits that split: pure rules run on the pipelined
/// runtime at any parallelism, the stateful tail runs sequentially, and
/// the output is byte-identical at every parallelism level.

/// \brief One detection/repair event, the cleaner's mirror of
/// PollutionLogEntry: which rule fired on which tuple and what was done.
struct RepairLogEntry {
  TupleId tuple_id = kInvalidTupleId;
  /// Rule label that fired.
  std::string rule;
  /// Column the repair applies to.
  std::string column;
  /// Repair action name ("drop", "set_null", ...).
  std::string action;

  bool operator==(const RepairLogEntry&) const = default;

  Json ToJson() const;
};

/// \brief Ordered record of every rule firing of one cleaning run —
/// the detection side of the closed pollute → clean loop, consumed by
/// the scenario scorer. Not thread-safe; parallel runners keep one log
/// per worker and merge by tuple id.
class RepairLog {
 public:
  void Record(RepairLogEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<RepairLogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// \brief Number of distinct tuples with at least one firing.
  size_t DistinctTupleCount() const;

  /// \brief Appends all entries of `other`.
  void Merge(const RepairLog& other);

  /// \brief Stable-sorts entries by tuple id (rule order within one
  /// tuple is preserved), restoring canonical order after a parallel
  /// run's per-worker logs are merged.
  void SortByTuple();

  Json ToJson() const;

 private:
  std::vector<RepairLogEntry> entries_;
};

/// \brief Per-rule firing counters of one CleanerOperator (or one
/// merged run).
struct RuleStats {
  std::string label;
  uint64_t fired = 0;
  uint64_t repaired = 0;
  uint64_t dropped = 0;
};

/// \brief Aggregate counters of one cleaning run.
struct CleanStats {
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t tuples_dropped = 0;
  uint64_t fired = 0;
  uint64_t repaired = 0;
  std::vector<RuleStats> rules;

  void Merge(const CleanStats& other);
  Json ToJson() const;
};

/// \brief Which rule subset an operator instance evaluates. The split
/// runner gives workers the pure subset and the sequential tail the
/// stateful subset; both together equal kAll on one thread.
enum class RulePhase { kAll, kStatelessOnly, kStatefulOnly };

/// \brief The stream repair operator. Owns a deep copy of the rules
/// (bind-once accessors) plus the bounded per-key value histories; the
/// runtime clones one instance per worker via the chain factory.
class CleanerOperator : public Operator {
 public:
  /// \param rules bound cleaning document (deep-copied).
  /// \param phase rule subset this instance evaluates.
  /// \param log optional repair log (borrowed, not thread-safe).
  /// \param finish_stats optional slot the operator merges its counters
  ///   into at Finish() — how the split runner collects per-worker
  ///   stats after the chains are torn down (each worker gets its own
  ///   slot; the runtime's join is the synchronization point).
  explicit CleanerOperator(const CleaningRules& rules,
                           RulePhase phase = RulePhase::kAll,
                           RepairLog* log = nullptr,
                           CleanStats* finish_stats = nullptr);

  /// \brief Registers the icewafl_cleaner_* series, labeled by the
  /// document name; follows the PolluterOperator contract (idempotent,
  /// all-or-nothing on name/type conflicts). A kStatefulOnly instance
  /// sees another phase's survivors, so it leaves
  /// icewafl_cleaner_tuples_total to the phase that took them in.
  void BindMetrics(obs::MetricRegistry* registry);

  Status Process(Tuple tuple, Emitter* out) override;
  Status ProcessBatch(TupleVector* batch, Emitter* out) override;
  Status Finish(Emitter* out) override;

  const CleanStats& stats() const { return stats_; }
  const CleaningRules& rules() const { return rules_; }

 private:
  struct BoundRule {
    CleanRule* rule;
    /// Slot into each key partition's history vector; -1 when the rule
    /// touches no history.
    int history_slot;
    obs::Counter* fired = nullptr;
    obs::Counter* repaired = nullptr;
    obs::Counter* dropped = nullptr;
  };

  /// One key partition: one ValueHistory per tracked column.
  using Partition = std::vector<ValueHistory>;

  Status Prepare(Tuple* tuple);
  Partition* PartitionFor(const Tuple& tuple);
  /// \brief Runs the phase's rules over the tuple; false = dropped.
  bool Clean(Tuple* tuple, Partition* partition);
  void ApplyRepair(const BoundRule& bound, Tuple* tuple,
                   const ValueHistory* history);

  CleaningRules rules_;
  RulePhase phase_;
  RepairLog* log_;
  CleanStats* finish_stats_;

  /// Rules of this phase, canonical order (pure first, then stateful).
  std::vector<BoundRule> active_;
  /// Column index per history slot, in slot order.
  std::vector<size_t> history_columns_;
  bool keyed_ = false;
  /// Key column index, resolved lazily from the first tuple's schema.
  int key_index_ = -1;
  std::unordered_map<std::string, Partition> partitions_;
  Partition global_partition_;
  std::string key_storage_;

  CleanStats stats_;
  TupleId next_id_ = 0;
  obs::Counter* tuples_seen_ = nullptr;
};

/// \brief Sink decorator running one sequential CleanerOperator over
/// every tuple written and forwarding the survivors to `inner`. Flush
/// finishes the operator, then flushes `inner`.
class CleaningSink : public Sink {
 public:
  CleaningSink(const CleaningRules& rules, Sink* inner,
               RulePhase phase = RulePhase::kAll, RepairLog* log = nullptr)
      : op_(rules, phase, log), emitter_(inner) {}

  Status Write(const Tuple& tuple) override {
    return op_.Process(tuple, &emitter_);
  }
  Status Write(Tuple&& tuple) override {
    return op_.Process(std::move(tuple), &emitter_);
  }
  Status Flush() override;

  CleanerOperator& op() { return op_; }

 private:
  class SinkEmitter : public Emitter {
   public:
    explicit SinkEmitter(Sink* sink) : sink_(sink) {}
    Status Emit(Tuple tuple) override { return sink_->Write(std::move(tuple)); }
    Sink* sink() const { return sink_; }

   private:
    Sink* sink_;
  };

  CleanerOperator op_;
  SinkEmitter emitter_;
};

/// \brief Deterministic cleaning runner: applies `rules` to `input`
/// and writes surviving tuples to `sink` in input order.
///
/// Pure stateless rules run on the pipelined runtime at `parallelism`
/// (round-robin partitioning, per-worker operator clones); the workers'
/// interleaved output is stable-sorted back to input order by tuple id
/// before the stateful rules run sequentially. Output is therefore
/// byte-identical across parallelism levels and to the single-operator
/// kAll reference. Tuples without ids are assigned sequential ids
/// (source order) before partitioning.
///
/// `metrics` and `log` may be null; per-worker logs are merged and
/// sorted by tuple id. InvalidArgument when `parallelism` < 1.
Status CleanTuples(const CleaningRules& rules, TupleVector input,
                   int parallelism, Sink* sink,
                   obs::MetricRegistry* metrics = nullptr,
                   RepairLog* log = nullptr, CleanStats* stats = nullptr);

}  // namespace clean
}  // namespace icewafl

#endif  // ICEWAFL_CLEAN_CLEANER_H_
