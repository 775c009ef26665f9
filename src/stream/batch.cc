#include "stream/batch.h"

#include <algorithm>

namespace icewafl {

void Column::Reserve(size_t rows) {
  switch (declared_) {
    case ValueType::kDouble: doubles_.reserve(rows); break;
    case ValueType::kInt64: int64s_.reserve(rows); break;
    case ValueType::kBool: bools_.reserve(rows); break;
    case ValueType::kString: strings_.reserve(rows); break;
    case ValueType::kNull: break;
  }
  valid_.reserve((rows + 63) / 64);
}

void Column::Append(const Value& v) {
  const size_t row = rows_++;
  switch (declared_) {
    case ValueType::kDouble: doubles_.emplace_back(0.0); break;
    case ValueType::kInt64: int64s_.emplace_back(0); break;
    case ValueType::kBool: bools_.emplace_back(0); break;
    case ValueType::kString: strings_.emplace_back(); break;
    case ValueType::kNull: break;
  }
  if (valid_.size() * 64 < rows_) valid_.push_back(0);
  if (v.is_null()) return;
  if (v.type() == declared_) {
    switch (declared_) {
      case ValueType::kDouble: doubles_[row] = v.AsDouble(); break;
      case ValueType::kInt64: int64s_[row] = v.AsInt64(); break;
      case ValueType::kBool: bools_[row] = v.AsBool() ? 1 : 0; break;
      case ValueType::kString: strings_[row] = v.AsString(); break;
      case ValueType::kNull: return;  // unreachable: null handled above
    }
    valid_[row >> 6] |= uint64_t{1} << (row & 63);
    return;
  }
  divergent_.emplace_back(static_cast<uint32_t>(row), v);
}

void Column::ResizeDefault(size_t rows) {
  rows_ = rows;
  switch (declared_) {
    case ValueType::kDouble: doubles_.assign(rows, 0.0); break;
    case ValueType::kInt64: int64s_.assign(rows, 0); break;
    case ValueType::kBool: bools_.assign(rows, 0); break;
    case ValueType::kString: strings_.assign(rows, std::string()); break;
    case ValueType::kNull: break;
  }
  valid_.assign((rows + 63) / 64, 0);
  divergent_.clear();
}

Value Column::At(size_t row) const {
  if (IsValid(row)) {
    switch (declared_) {
      case ValueType::kDouble: return Value(doubles_[row]);
      case ValueType::kInt64: return Value(int64s_[row]);
      case ValueType::kBool: return Value(bools_[row] != 0);
      case ValueType::kString: return Value(strings_[row]);
      case ValueType::kNull: break;  // unreachable: kNull rows are never valid
    }
  }
  auto it = std::lower_bound(
      divergent_.begin(), divergent_.end(), row,
      [](const std::pair<uint32_t, Value>& e, size_t r) {
        return e.first < r;
      });
  return it != divergent_.end() && it->first == row ? it->second
                                                    : Value::Null();
}

Result<Batch> Batch::FromTuples(const TupleVector& tuples) {
  if (tuples.empty()) {
    return Status::InvalidArgument("batch: cannot columnarize an empty batch");
  }
  const SchemaPtr& schema = tuples.front().schema();
  if (schema == nullptr) {
    return Status::InvalidArgument("batch: tuple without schema");
  }
  if (tuples.size() > UINT32_MAX) {
    return Status::InvalidArgument("batch: too many rows to columnarize");
  }
  const size_t k = schema->num_attributes();
  Batch batch = Batch::Empty(schema);
  batch.rows_ = tuples.size();
  for (Column& col : batch.columns_) col.Reserve(tuples.size());
  batch.ids_.reserve(tuples.size());
  batch.event_times_.reserve(tuples.size());
  batch.arrival_times_.reserve(tuples.size());
  batch.substreams_.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    if (t.schema().get() != schema.get()) {
      return Status::InvalidArgument("batch: mixed schemas in one batch");
    }
    if (t.num_values() != k) {
      return Status::InvalidArgument(
          "batch: tuple arity " + std::to_string(t.num_values()) +
          " does not match schema arity " + std::to_string(k));
    }
    for (size_t i = 0; i < k; ++i) batch.columns_[i].Append(t.value(i));
    batch.ids_.push_back(t.id());
    batch.event_times_.push_back(t.event_time());
    batch.arrival_times_.push_back(t.arrival_time());
    batch.substreams_.push_back(t.substream());
  }
  return batch;
}

Batch Batch::Empty(SchemaPtr schema) {
  Batch batch;
  batch.columns_.reserve(schema->num_attributes());
  for (const Attribute& attr : schema->attributes()) {
    batch.columns_.emplace_back(attr.type);
  }
  batch.schema_ = std::move(schema);
  return batch;
}

TupleVector Batch::ToTuples() const {
  TupleVector out;
  out.reserve(rows_);
  const size_t k = columns_.size();
  for (size_t r = 0; r < rows_; ++r) {
    std::vector<Value> values;
    values.reserve(k);
    for (size_t i = 0; i < k; ++i) values.push_back(columns_[i].At(r));
    Tuple t(schema_, std::move(values));
    t.set_id(ids_[r]);
    t.set_event_time(event_times_[r]);
    t.set_arrival_time(arrival_times_[r]);
    t.set_substream(substreams_[r]);
    out.push_back(std::move(t));
  }
  return out;
}

void Batch::ResizeDefault(size_t rows) {
  rows_ = rows;
  for (Column& col : columns_) col.ResizeDefault(rows);
  ids_.assign(rows, kInvalidTupleId);
  event_times_.assign(rows, 0);
  arrival_times_.assign(rows, 0);
  substreams_.assign(rows, kNoSubstream);
}

}  // namespace icewafl
