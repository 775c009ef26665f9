#ifndef ICEWAFL_CORE_POLLUTER_OPERATOR_H_
#define ICEWAFL_CORE_POLLUTER_OPERATOR_H_

#include <algorithm>
#include <utility>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "stream/operator.h"

namespace icewafl {

/// \brief Adapter running a pollution pipeline as a dataflow operator.
///
/// This is how Icewafl plugs into an existing streaming topology (the
/// paper's "seamless integration with existing data stream pipelines"):
/// the operator prepares each tuple (id + event-time replica) if the
/// upstream has not done so, tags it with its sub-stream, applies the
/// pipeline, and forwards the result in ArrivesBefore order. Stream
/// bounds for stream-relative profiles must be supplied up front since
/// an operator cannot see the end of the stream. When the pipeline can
/// delay arrival (L = MaxArrivalDelay() > 0), a tuple waits until an
/// input's event time reaches its arrival time: input comes in event
/// time order, and no tuple arrives before its event time.
class PolluterOperator : public Operator {
 public:
  PolluterOperator(PollutionPipeline pipeline, uint64_t seed,
                   Timestamp stream_start = 0, Timestamp stream_end = 0,
                   PollutionLog* log = nullptr, int substream = 0)
      : pipeline_(std::move(pipeline)),
        stream_start_(stream_start),
        stream_end_(stream_end),
        log_(log),
        substream_(substream),
        max_delay_(pipeline_.MaxArrivalDelay()) {
    pipeline_.Seed(seed);
  }

  /// \brief Attaches per-operator instrumentation. Live counters track
  /// tuples seen / tuples polluted; Finish() additionally publishes the
  /// per-error-function activation counts of the whole polluter tree.
  /// When never called (or called with nullptr) the processing loops pay
  /// exactly one pointer-null check per tuple.
  void BindMetrics(obs::MetricRegistry* registry) {
    metrics_ = registry;
    if (registry == nullptr) {
      tuples_seen_ = nullptr;
      tuples_polluted_ = nullptr;
      return;
    }
    const obs::Labels labels = {{"pipeline", pipeline_.name()}};
    tuples_seen_ =
        registry->GetCounter("icewafl_polluter_tuples_total", labels,
                             "Tuples that entered a pollution pipeline");
    tuples_polluted_ = registry->GetCounter(
        "icewafl_polluter_polluted_total", labels,
        "Tuples hit by at least one top-level polluter");
    // The processing loops gate on tuples_seen_ alone; if either counter
    // failed to register (metric-type conflict) disable both so the
    // polluted path never dereferences null.
    if (tuples_seen_ == nullptr || tuples_polluted_ == nullptr) {
      tuples_seen_ = nullptr;
      tuples_polluted_ = nullptr;
    }
  }

  Status Process(Tuple tuple, Emitter* out) override {
    TupleVector one;
    one.push_back(std::move(tuple));
    return ProcessBatch(&one, out);
  }

  /// \brief Batched fast path: the context (with its fixed stream
  /// bounds) is set up once per batch instead of once per tuple, and the
  /// pipeline is applied in a tight loop.
  Status ProcessBatch(TupleVector* batch, Emitter* out) override {
    PollutionContext ctx;
    ctx.stream_start = stream_start_;
    ctx.stream_end = stream_end_;
    for (Tuple& tuple : *batch) {
      ICEWAFL_RETURN_NOT_OK(PolluteOne(&tuple, &ctx));
      ICEWAFL_RETURN_NOT_OK(Forward(std::move(tuple), out));
    }
    batch->clear();
    return Status::OK();
  }

  /// \brief End-of-stream hook: emits the tuples still held back, then
  /// publishes the activation count of every polluter in the tree to the
  /// bound registry. Counters are shared by label set, so per-worker
  /// clones aggregate into one series.
  Status Finish(Emitter* out) override {
    while (!held_.empty()) ICEWAFL_RETURN_NOT_OK(EmitEarliest(out));
    pipeline_.PublishMetrics(metrics_);
    return Status::OK();
  }

  const PollutionPipeline& pipeline() const { return pipeline_; }

 private:
  static bool ArrivesAfter(const Tuple& a, const Tuple& b) {
    return ArrivesBefore(b, a);
  }

  /// Emits `tuple` now (L = 0) or holds it in a min-heap by arrival and
  /// emits every held tuple that no later input can precede.
  Status Forward(Tuple tuple, Emitter* out) {
    if (max_delay_ == 0) return out->Emit(std::move(tuple));
    const Timestamp watermark = tuple.event_time();
    held_.push_back(std::move(tuple));
    std::push_heap(held_.begin(), held_.end(), ArrivesAfter);
    while (!held_.empty() && held_.front().arrival_time() <= watermark) {
      ICEWAFL_RETURN_NOT_OK(EmitEarliest(out));
    }
    return Status::OK();
  }

  Status EmitEarliest(Emitter* out) {
    std::pop_heap(held_.begin(), held_.end(), ArrivesAfter);
    Status st = out->Emit(std::move(held_.back()));
    held_.pop_back();
    return st;
  }

  /// Prepares `*tuple` (id and event-time replica, if the upstream has
  /// not done so), tags its sub-stream, resets the per-tuple fields of
  /// `*ctx` and applies the pipeline, counting the tuple as seen and, if
  /// any top-level polluter fired, as polluted.
  Status PolluteOne(Tuple* tuple, PollutionContext* ctx) {
    if (tuple->id() == kInvalidTupleId) {
      tuple->set_id(next_id_++);
      ICEWAFL_ASSIGN_OR_RETURN(Timestamp ts, tuple->GetTimestamp());
      tuple->set_event_time(ts);
      tuple->set_arrival_time(ts);
    }
    tuple->set_substream(substream_);
    ctx->tau = tuple->event_time();
    ctx->severity = 1.0;
    ctx->rng = nullptr;
    if (tuples_seen_ == nullptr) return pipeline_.Apply(tuple, ctx, log_);
    const uint64_t applied_before = pipeline_.TotalAppliedCount();
    // Seen is counted before Apply so a failure can never leave
    // polluted_total > tuples_total.
    tuples_seen_->Increment();
    ICEWAFL_RETURN_NOT_OK(pipeline_.Apply(tuple, ctx, log_));
    if (pipeline_.TotalAppliedCount() > applied_before) {
      tuples_polluted_->Increment();
    }
    return Status::OK();
  }

  PollutionPipeline pipeline_;
  Timestamp stream_start_;
  Timestamp stream_end_;
  PollutionLog* log_;
  int substream_;
  int64_t max_delay_;
  TupleVector held_;  // min-heap by ArrivesBefore while max_delay_ > 0
  TupleId next_id_ = 0;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::Counter* tuples_seen_ = nullptr;
  obs::Counter* tuples_polluted_ = nullptr;
};

}  // namespace icewafl

#endif  // ICEWAFL_CORE_POLLUTER_OPERATOR_H_
