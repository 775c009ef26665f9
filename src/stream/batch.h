#ifndef ICEWAFL_STREAM_BATCH_H_
#define ICEWAFL_STREAM_BATCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stream/schema.h"
#include "stream/tuple.h"
#include "stream/value.h"
#include "util/result.h"
#include "util/time_util.h"

namespace icewafl {

/// \brief One SoA column of a Batch (DESIGN.md section 13).
///
/// Values whose runtime type matches the declared attribute type live in a
/// contiguous typed buffer (`double*` / `int64_t*` / bool bytes / strings)
/// with a validity bitmap: bit set means "the typed slot at this row holds
/// the value". Because the tuple model is dynamically typed — a polluter
/// may write a string into a double column — a sorted, sparse exception
/// list carries every non-null value whose runtime type diverges from the
/// declared one. A row is NULL iff its validity bit is clear and it has no
/// exception entry. Invalid typed slots are always zeroed so a column can
/// be serialized verbatim (encode is deterministic byte-for-byte).
class Column {
 public:
  explicit Column(ValueType declared) : declared_(declared) {}

  ValueType declared_type() const { return declared_; }
  size_t rows() const { return rows_; }

  void Reserve(size_t rows);

  /// \brief Appends one value as the new last row.
  void Append(const Value& v);

  /// \brief Resets to `rows` all-NULL rows with zeroed typed slots (wire
  /// decode fills the buffers in place afterwards).
  void ResizeDefault(size_t rows);

  /// \brief True when the typed slot at `row` holds the value.
  bool IsValid(size_t row) const {
    return (valid_[row >> 6] >> (row & 63)) & 1u;
  }

  /// \brief Materializes the value at `row` (generic slow path).
  Value At(size_t row) const;

  // Typed spans; meaningful only for the matching declared type. The
  // mutable overloads are the wire decoder's fill targets.
  double* doubles() { return doubles_.data(); }
  const double* doubles() const { return doubles_.data(); }
  int64_t* int64s() { return int64s_.data(); }
  const int64_t* int64s() const { return int64s_.data(); }
  uint8_t* bools() { return bools_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  std::string* strings() { return strings_.data(); }
  const std::string* strings() const { return strings_.data(); }

  /// \brief Validity bitmap words, LSB-first within each word.
  const uint64_t* validity() const { return valid_.data(); }
  uint64_t* mutable_validity() { return valid_.data(); }

  /// \brief Exception list, sorted by row ascending. The mutable overload
  /// (the wire decoder's fill target) must preserve the sort order and the
  /// "runtime type differs from declared, never null" invariant.
  const std::vector<std::pair<uint32_t, Value>>& divergent() const {
    return divergent_;
  }
  std::vector<std::pair<uint32_t, Value>>& mutable_divergent() {
    return divergent_;
  }

 private:
  ValueType declared_;
  size_t rows_ = 0;
  // Exactly one of these is populated, per declared_ (kNull declares a
  // column with no typed storage at all).
  std::vector<double> doubles_;
  std::vector<int64_t> int64s_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
  std::vector<uint64_t> valid_;
  std::vector<std::pair<uint32_t, Value>> divergent_;
};

/// \brief A columnar micro-batch: the SoA twin of TupleVector.
///
/// One Column per schema attribute plus contiguous per-row metadata
/// arrays (id, event-time replica tau, arrival time, sub-stream). The
/// TupleVector ↔ Batch conversion is lossless — including NaN payloads,
/// denormals, NULLs and type-divergent values — which is what lets the
/// v2 Batch wire frame carry exactly the rows the tuple frames would.
class Batch {
 public:
  Batch() = default;

  /// \brief Columnarizes `tuples`. Errors when the vector is empty, a
  /// tuple's schema pointer differs from the first tuple's, or a tuple's
  /// arity does not match the schema.
  static Result<Batch> FromTuples(const TupleVector& tuples);

  /// \brief An empty batch shaped after `schema` (wire decode target).
  static Batch Empty(SchemaPtr schema);

  /// \brief Materializes back into row form.
  TupleVector ToTuples() const;

  const SchemaPtr& schema() const { return schema_; }
  size_t rows() const { return rows_; }
  size_t num_columns() const { return columns_.size(); }
  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }

  const TupleId* ids() const { return ids_.data(); }
  const Timestamp* event_times() const { return event_times_.data(); }
  const Timestamp* arrival_times() const { return arrival_times_.data(); }
  const int32_t* substreams() const { return substreams_.data(); }

  TupleId* mutable_ids() { return ids_.data(); }
  Timestamp* mutable_event_times() { return event_times_.data(); }
  Timestamp* mutable_arrival_times() { return arrival_times_.data(); }
  int32_t* mutable_substreams() { return substreams_.data(); }

  /// \brief Resets to `rows` all-NULL rows with zeroed metadata (wire
  /// decode fills the buffers in place afterwards).
  void ResizeDefault(size_t rows);

 private:
  SchemaPtr schema_;
  size_t rows_ = 0;
  std::vector<Column> columns_;
  std::vector<TupleId> ids_;
  std::vector<Timestamp> event_times_;
  std::vector<Timestamp> arrival_times_;
  std::vector<int32_t> substreams_;
};

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_BATCH_H_
