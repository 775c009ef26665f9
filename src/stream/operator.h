#ifndef ICEWAFL_STREAM_OPERATOR_H_
#define ICEWAFL_STREAM_OPERATOR_H_

#include <memory>
#include <utility>
#include <vector>

#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {

/// \brief Downstream collector an operator emits into (Flink-style).
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual Status Emit(Tuple tuple) = 0;
};

/// \brief Collects emitted tuples into a vector (how the runtime and the
/// cleaning sink gather an operator's output for a whole batch).
class VectorEmitter : public Emitter {
 public:
  explicit VectorEmitter(TupleVector* out) : out_(out) {}

  Status Emit(Tuple tuple) override {
    out_->push_back(std::move(tuple));
    return Status::OK();
  }

 private:
  TupleVector* out_;
};

/// \brief A tuple-at-a-time dataflow operator.
///
/// The pipelines run two kinds: the polluter (PolluterOperator), which
/// emits every input tuple, possibly altered, and the cleaner
/// (clean::CleanerOperator), which repairs tuples and may drop them. An
/// operator may emit any number of tuples per input and may hold some
/// back until Finish().
class Operator {
 public:
  virtual ~Operator() = default;

  /// \brief Processes one input tuple, emitting results downstream.
  virtual Status Process(Tuple tuple, Emitter* out) = 0;

  /// \brief Batched fast path used by the pipelined runtime: consumes
  /// `*batch` (left empty on return), emitting results into `out` in the
  /// same order the per-tuple path would.
  ///
  /// The default forwards tuple-by-tuple to Process(); stateful hot-path
  /// operators (the polluter adapters) override it to hoist per-batch
  /// setup out of the tuple loop and amortize virtual dispatch.
  virtual Status ProcessBatch(TupleVector* batch, Emitter* out) {
    for (Tuple& t : *batch) {
      ICEWAFL_RETURN_NOT_OK(Process(std::move(t), out));
    }
    batch->clear();
    return Status::OK();
  }

  /// \brief Flushes buffered state at end of (bounded) stream.
  virtual Status Finish(Emitter* out) {
    (void)out;
    return Status::OK();
  }
};

/// \brief An owned chain of operators.
using OperatorChain = std::vector<std::unique_ptr<Operator>>;

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_OPERATOR_H_
