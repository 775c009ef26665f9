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
/// The cleaning operator (DESIGN.md section 15). A CleanerOperator
/// evaluates the document's rules in canonical order — pure stateless
/// rules in document order, then stateful (windowed-detect or
/// windowed-repair) rules in document order — applying each repair
/// before the next rule sees the tuple. It runs sequentially, as a
/// CleaningSink on whatever thread writes the stream.

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
/// the scenario scorer. Not thread-safe.
class RepairLog {
 public:
  void Record(RepairLogEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<RepairLogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// \brief Stable-sorts entries by tuple id (rule order within one
  /// tuple is preserved), so a stream that arrives out of id order
  /// still logs in id order.
  void SortByTuple();

  Json ToJson() const;

 private:
  std::vector<RepairLogEntry> entries_;
};

/// \brief Per-rule firing counters of one CleanerOperator.
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

  Json ToJson() const;
};

/// \brief The stream repair operator. Owns a deep copy of the rules
/// (bind-once accessors) plus the bounded per-key value histories.
class CleanerOperator : public Operator {
 public:
  /// \param rules bound cleaning document (deep-copied).
  /// \param log optional repair log (borrowed, not thread-safe).
  explicit CleanerOperator(const CleaningRules& rules,
                           RepairLog* log = nullptr);

  /// \brief Registers the icewafl_cleaner_* series, labeled by the
  /// document name; follows the PolluterOperator contract (idempotent,
  /// all-or-nothing on name/type conflicts).
  void BindMetrics(obs::MetricRegistry* registry);

  Status Process(Tuple tuple, Emitter* out) override;
  /// \brief CleanBatch, then emits the survivors.
  Status ProcessBatch(TupleVector* batch, Emitter* out) override;

  /// \brief Cleans `*rows` in place: the survivors move to the front
  /// in order and the dropped rows are cut off.
  Status CleanBatch(TupleVector* rows);

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
  /// \brief Runs the rules over the tuple; false = dropped.
  bool Clean(Tuple* tuple, Partition* partition);
  void ApplyRepair(const BoundRule& bound, Tuple* tuple,
                   const ValueHistory* history);

  CleaningRules rules_;
  RepairLog* log_;

  /// The rules in canonical order (pure first, then stateful).
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
/// every tuple written and forwarding the survivors to `inner`: a
/// written row's survivor row by row, a batch cleaned in place and
/// passed on as one batch. Flush flushes `inner`.
class CleaningSink : public Sink {
 public:
  CleaningSink(const CleaningRules& rules, Sink* inner,
               RepairLog* log = nullptr)
      : op_(rules, log), emitter_(inner) {}

  Status Write(const Tuple& tuple) override {
    return op_.Process(tuple, &emitter_);
  }
  Status Write(Tuple&& tuple) override {
    return op_.Process(std::move(tuple), &emitter_);
  }
  Status WriteBatch(TupleVector* rows) override;
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

/// \brief Offline cleaning runner: writes `input` through one
/// CleaningSink over `sink`, so the survivors reach `sink` in input
/// order, then sorts `log` by tuple id. Tuples without ids get
/// sequential ids (source order). `metrics`, `log` and `stats` may be
/// null.
Status CleanTuples(const CleaningRules& rules, TupleVector input, Sink* sink,
                   obs::MetricRegistry* metrics = nullptr,
                   RepairLog* log = nullptr, CleanStats* stats = nullptr);

}  // namespace clean
}  // namespace icewafl

#endif  // ICEWAFL_CLEAN_CLEANER_H_
