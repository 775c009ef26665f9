#include "clean/cleaner.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace icewafl {
namespace clean {

namespace {

/// Widens a stored numeric value; false for NULL/strings.
bool WidenNumeric(const Value& v, double* out) {
  switch (v.type()) {
    case ValueType::kDouble:
      *out = v.AsDouble();
      return true;
    case ValueType::kInt64:
      *out = static_cast<double>(v.AsInt64());
      return true;
    case ValueType::kBool:
      *out = v.AsBool() ? 1.0 : 0.0;
      return true;
    default:
      return false;
  }
}

/// Casts a repaired numeric back to the column's declared type.
Value NumericValueFor(ValueType declared, double v) {
  switch (declared) {
    case ValueType::kInt64:
      return Value(static_cast<int64_t>(std::llround(v)));
    case ValueType::kBool:
      return Value(v != 0.0);
    default:
      return Value(v);
  }
}

}  // namespace

Json RepairLogEntry::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("tuple_id", static_cast<int64_t>(tuple_id));
  j.Set("rule", rule);
  j.Set("column", column);
  j.Set("action", action);
  return j;
}

void RepairLog::SortByTuple() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const RepairLogEntry& a, const RepairLogEntry& b) {
                     return a.tuple_id < b.tuple_id;
                   });
}

Json RepairLog::ToJson() const {
  Json arr = Json::MakeArray();
  for (const RepairLogEntry& e : entries_) arr.Append(e.ToJson());
  Json j = Json::MakeObject();
  j.Set("entries", std::move(arr));
  j.Set("count", static_cast<int64_t>(entries_.size()));
  return j;
}

Json CleanStats::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("tuples_in", static_cast<int64_t>(tuples_in));
  j.Set("tuples_out", static_cast<int64_t>(tuples_out));
  j.Set("tuples_dropped", static_cast<int64_t>(tuples_dropped));
  j.Set("fired", static_cast<int64_t>(fired));
  j.Set("repaired", static_cast<int64_t>(repaired));
  Json arr = Json::MakeArray();
  for (const RuleStats& r : rules) {
    Json entry = Json::MakeObject();
    entry.Set("rule", r.label);
    entry.Set("fired", static_cast<int64_t>(r.fired));
    entry.Set("repaired", static_cast<int64_t>(r.repaired));
    entry.Set("dropped", static_cast<int64_t>(r.dropped));
    arr.Append(std::move(entry));
  }
  j.Set("rules", std::move(arr));
  return j;
}

CleanerOperator::CleanerOperator(const CleaningRules& rules, RepairLog* log)
    : rules_(rules.Clone()), log_(log) {
  // History slots: one per distinct column any stateful rule touches.
  auto slot_for = [&](size_t column_index) {
    for (size_t s = 0; s < history_columns_.size(); ++s) {
      if (history_columns_[s] == column_index) return static_cast<int>(s);
    }
    history_columns_.push_back(column_index);
    return static_cast<int>(history_columns_.size() - 1);
  };
  // Canonical order: pure rules (doc order), then stateful (doc order).
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& rule : rules_.rules) {
      bool stateful = rule->stateful();
      if (pass == 0 && stateful) continue;
      if (pass == 1 && !stateful) continue;
      BoundRule bound;
      bound.rule = rule.get();
      bound.history_slot =
          stateful ? slot_for(rule->accessor().index()) : -1;
      active_.push_back(bound);
      stats_.rules.push_back(RuleStats{rule->label(), 0, 0, 0});
    }
  }
  global_partition_ =
      Partition(history_columns_.size(), ValueHistory(rules_.history));
  keyed_ = !rules_.key.empty() && !history_columns_.empty();
}

void CleanerOperator::BindMetrics(obs::MetricRegistry* registry) {
  if (registry == nullptr || tuples_seen_ != nullptr) return;
  tuples_seen_ = registry->GetCounter(
      "icewafl_cleaner_tuples_total", {{"rules", rules_.name}},
      "Tuples examined by the cleaning engine");
  bool ok = tuples_seen_ != nullptr;
  for (BoundRule& bound : active_) {
    obs::Labels labels{{"rule", bound.rule->label()},
                       {"rules", rules_.name}};
    bound.fired = registry->GetCounter(
        "icewafl_cleaner_fired_total", labels,
        "Detect-rule firings, by rule label");
    bound.repaired = registry->GetCounter(
        "icewafl_cleaner_repaired_total", labels,
        "In-place repairs applied, by rule label");
    bound.dropped = registry->GetCounter(
        "icewafl_cleaner_dropped_total", labels,
        "Tuples dropped, by rule label");
    ok = ok && bound.fired != nullptr && bound.repaired != nullptr &&
         bound.dropped != nullptr;
  }
  if (!ok) {
    // All-or-nothing: a name/type conflict disables the whole family
    // rather than reporting a partial view.
    tuples_seen_ = nullptr;
    for (BoundRule& bound : active_) {
      bound.fired = bound.repaired = bound.dropped = nullptr;
    }
  }
}

Status CleanerOperator::Prepare(Tuple* tuple) {
  if (tuple->id() != kInvalidTupleId) return Status::OK();
  tuple->set_id(next_id_++);
  ICEWAFL_ASSIGN_OR_RETURN(Timestamp ts, tuple->GetTimestamp());
  tuple->set_event_time(ts);
  tuple->set_arrival_time(ts);
  return Status::OK();
}

CleanerOperator::Partition* CleanerOperator::PartitionFor(const Tuple& tuple) {
  if (!keyed_) return &global_partition_;
  if (key_index_ < 0) {
    auto key_index = tuple.schema()->IndexOf(rules_.key);
    if (!key_index.ok()) {
      keyed_ = false;  // validated at bind; unreachable in practice
      return &global_partition_;
    }
    key_index_ = static_cast<int>(key_index.ValueOrDie());
  }
  const Value& key = tuple.value(key_index_);
  if (key.is_string()) {
    key_storage_ = key.AsString();
  } else {
    key_storage_ = key.ToString("null");
  }
  auto it = partitions_.find(key_storage_);
  if (it == partitions_.end()) {
    it = partitions_
             .emplace(key_storage_,
                      Partition(history_columns_.size(),
                                ValueHistory(rules_.history)))
             .first;
  }
  return &it->second;
}

void CleanerOperator::ApplyRepair(const BoundRule& bound, Tuple* tuple,
                                  const ValueHistory* history) {
  const CleanRule& rule = *bound.rule;
  const BoundAccessor& accessor = rule.accessor();
  switch (rule.repair()) {
    case RepairAction::kDrop:
      // Handled by the caller.
      break;
    case RepairAction::kSetNull:
      accessor.set(tuple, Value());
      break;
    case RepairAction::kClamp: {
      double lo = 0.0, hi = 0.0;
      rule.ClampBounds(&lo, &hi);
      double v = 0.0;
      if (!accessor.DoubleAt(*tuple, &v)) {
        accessor.set(tuple, Value());
        break;
      }
      accessor.set(tuple, NumericValueFor(accessor.declared_type(),
                                          std::clamp(v, lo, hi)));
      break;
    }
    case RepairAction::kLastGood:
      if (history != nullptr && !history->empty()) {
        accessor.set(tuple, NumericValueFor(accessor.declared_type(),
                                            history->Recent(0)));
      } else {
        accessor.set(tuple, Value());
      }
      break;
    case RepairAction::kWindowMean:
      if (history != nullptr && !history->empty()) {
        accessor.set(tuple, NumericValueFor(accessor.declared_type(),
                                            history->Mean()));
      } else {
        accessor.set(tuple, Value());
      }
      break;
    case RepairAction::kWindowMedian:
      if (history != nullptr && !history->empty()) {
        accessor.set(tuple, NumericValueFor(accessor.declared_type(),
                                            history->Median()));
      } else {
        accessor.set(tuple, Value());
      }
      break;
  }
}

bool CleanerOperator::Clean(Tuple* tuple, Partition* partition) {
  for (size_t i = 0; i < active_.size(); ++i) {
    const BoundRule& bound = active_[i];
    const CleanRule& rule = *bound.rule;
    if (!rule.GuardsPass(*tuple)) continue;
    const ValueHistory* history =
        bound.history_slot >= 0 ? &(*partition)[bound.history_slot] : nullptr;
    if (!rule.Violates(*tuple, history)) continue;
    ++stats_.fired;
    ++stats_.rules[i].fired;
    if (bound.fired != nullptr) bound.fired->Increment();
    bool drop = rule.repair() == RepairAction::kDrop;
    if (log_ != nullptr) {
      log_->Record(RepairLogEntry{tuple->id(), rule.label(), rule.column(),
                                  RepairActionName(rule.repair())});
    }
    if (drop) {
      ++stats_.tuples_dropped;
      ++stats_.rules[i].dropped;
      if (bound.dropped != nullptr) bound.dropped->Increment();
      return false;
    }
    ApplyRepair(bound, tuple, history);
    ++stats_.repaired;
    ++stats_.rules[i].repaired;
    if (bound.repaired != nullptr) bound.repaired->Increment();
  }
  // The accepted tuple's final values extend the per-key history (only
  // documents with stateful rules track any).
  for (size_t s = 0; s < history_columns_.size(); ++s) {
    double v = 0.0;
    if (WidenNumeric(tuple->value(history_columns_[s]), &v)) {
      (*partition)[s].Push(v);
    }
  }
  return true;
}

Status CleanerOperator::Process(Tuple tuple, Emitter* out) {
  ICEWAFL_RETURN_NOT_OK(Prepare(&tuple));
  ++stats_.tuples_in;
  if (tuples_seen_ != nullptr) tuples_seen_->Increment();
  Partition* partition = PartitionFor(tuple);
  if (!Clean(&tuple, partition)) return Status::OK();
  ++stats_.tuples_out;
  return out->Emit(std::move(tuple));
}

Status CleanerOperator::CleanBatch(TupleVector* rows) {
  if (tuples_seen_ != nullptr) tuples_seen_->Increment(rows->size());
  size_t kept = 0;
  for (size_t i = 0; i < rows->size(); ++i) {
    Tuple& tuple = (*rows)[i];
    ICEWAFL_RETURN_NOT_OK(Prepare(&tuple));
    ++stats_.tuples_in;
    if (!Clean(&tuple, PartitionFor(tuple))) continue;
    ++stats_.tuples_out;
    if (kept != i) std::swap((*rows)[kept], tuple);
    ++kept;
  }
  rows->erase(rows->begin() + static_cast<ptrdiff_t>(kept), rows->end());
  return Status::OK();
}

Status CleanerOperator::ProcessBatch(TupleVector* batch, Emitter* out) {
  ICEWAFL_RETURN_NOT_OK(CleanBatch(batch));
  for (Tuple& tuple : *batch) ICEWAFL_RETURN_NOT_OK(out->Emit(std::move(tuple)));
  batch->clear();
  return Status::OK();
}

Status CleaningSink::WriteBatch(TupleVector* rows) {
  ICEWAFL_RETURN_NOT_OK(op_.CleanBatch(rows));
  return emitter_.sink()->WriteBatch(rows);
}

Status CleaningSink::Flush() { return emitter_.sink()->Flush(); }

Status CleanTuples(const CleaningRules& rules, TupleVector input, Sink* sink,
                   obs::MetricRegistry* metrics, RepairLog* log,
                   CleanStats* stats) {
  CleaningSink cleaning(rules, sink, log);
  cleaning.op().BindMetrics(metrics);
  for (Tuple& t : input) ICEWAFL_RETURN_NOT_OK(cleaning.Write(std::move(t)));
  if (log != nullptr) log->SortByTuple();
  if (stats != nullptr) *stats = cleaning.op().stats();
  return cleaning.Flush();
}

}  // namespace clean
}  // namespace icewafl
