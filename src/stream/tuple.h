#ifndef ICEWAFL_STREAM_TUPLE_H_
#define ICEWAFL_STREAM_TUPLE_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "stream/schema.h"
#include "stream/value.h"
#include "util/time_util.h"

namespace icewafl {

/// Identifier assigned to a tuple in the preparation step (Algorithm 1,
/// line 2); ground-truth link between clean and polluted streams.
using TupleId = uint64_t;

constexpr TupleId kInvalidTupleId = UINT64_MAX;
constexpr int kNoSubstream = -1;

/// \brief One element of a data stream.
///
/// Carries the attribute values plus the pollution-process metadata of
/// Section 2.1: the unique id, the event-time replica tau (immutable copy
/// of the original timestamp, used as event time during pollution and
/// dropped from the output), the arrival time (initialized to tau; the
/// delay error postpones it, and step 3 orders the output stream by it,
/// see ArrivesBefore), and the id of the sub-stream that polluted it.
class Tuple {
 public:
  Tuple() = default;
  Tuple(SchemaPtr schema, std::vector<Value> values)
      : schema_(std::move(schema)), values_(std::move(values)) {}

  const SchemaPtr& schema() const { return schema_; }
  size_t num_values() const { return values_.size(); }

  const Value& value(size_t i) const { return values_[i]; }
  void set_value(size_t i, Value v) { values_[i] = std::move(v); }
  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>& mutable_values() { return values_; }

  /// \brief Value lookup by attribute name (error if absent).
  Result<Value> Get(const std::string& name) const;

  /// \brief Sets an attribute by name (error if absent).
  Status Set(const std::string& name, Value v);

  /// \brief The (possibly polluted) value of the timestamp attribute.
  Result<Timestamp> GetTimestamp() const;

  /// \brief Overwrites the timestamp attribute.
  Status SetTimestamp(Timestamp ts);

  TupleId id() const { return id_; }
  void set_id(TupleId id) { id_ = id; }

  /// \brief Event-time replica tau (Algorithm 1, line 3).
  Timestamp event_time() const { return event_time_; }
  void set_event_time(Timestamp tau) { event_time_ = tau; }

  /// \brief Position key of the tuple in the output stream.
  Timestamp arrival_time() const { return arrival_time_; }
  void set_arrival_time(Timestamp at) { arrival_time_ = at; }

  int substream() const { return substream_; }
  void set_substream(int s) { substream_ = s; }

  /// \brief Renders as "name=value, ..." for debugging.
  std::string ToString() const;

  /// Attribute-value equality (metadata is not compared).
  bool ValuesEqual(const Tuple& other) const { return values_ == other.values_; }

 private:
  SchemaPtr schema_;
  std::vector<Value> values_;
  TupleId id_ = kInvalidTupleId;
  Timestamp event_time_ = 0;
  Timestamp arrival_time_ = 0;
  int substream_ = kNoSubstream;
};

/// \brief A bounded stream segment or micro-batch, materialized in memory.
using TupleVector = std::vector<Tuple>;

/// \brief Algorithm 1's output order (step 3): by arrival time, then id,
/// then sub-stream. Every path that runs the process emits in it.
inline bool ArrivesBefore(const Tuple& a, const Tuple& b) {
  return std::tuple(a.arrival_time(), a.id(), a.substream()) <
         std::tuple(b.arrival_time(), b.id(), b.substream());
}

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_TUPLE_H_
