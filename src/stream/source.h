#ifndef ICEWAFL_STREAM_SOURCE_H_
#define ICEWAFL_STREAM_SOURCE_H_

#include <utility>

#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {

/// \brief A pull-based producer of tuples.
///
/// Sources model both real (unbounded) streams and micro-batched input
/// (Section 2.1: "either a real data stream or a data stream split into
/// small batches"); within the framework every input is consumed
/// tuple-wise.
class Source {
 public:
  virtual ~Source() = default;

  /// \brief Schema shared by all produced tuples.
  virtual SchemaPtr schema() const = 0;

  /// \brief Produces the next tuple into `*out`. Returns false at end of
  /// stream (bounded sources only), true otherwise. `*out` may hold a
  /// row already written downstream (PipelineRuntime hands written rows
  /// back), so Next overwrites all of it: values, schema and metadata.
  /// Copy-assigning a whole row does, and reuses its buffers.
  virtual Result<bool> Next(Tuple* out) = 0;
};

/// \brief Bounded source over an in-memory tuple vector. Next() moves
/// each tuple out, so the source can be drained once.
class VectorSource : public Source {
 public:
  VectorSource(SchemaPtr schema, TupleVector tuples)
      : schema_(std::move(schema)), tuples_(std::move(tuples)) {}

  SchemaPtr schema() const override { return schema_; }

  Result<bool> Next(Tuple* out) override {
    if (pos_ >= tuples_.size()) return false;
    *out = std::move(tuples_[pos_++]);
    return true;
  }

 private:
  SchemaPtr schema_;
  TupleVector tuples_;
  size_t pos_ = 0;
};

/// \brief Drains a bounded source into a vector.
Result<TupleVector> CollectAll(Source* source);

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_SOURCE_H_
