#include "core/errors_temporal.h"

namespace icewafl {

namespace {

bool SeverityGate(PollutionContext* ctx) {
  if (ctx->severity >= 1.0) return true;
  if (ctx->rng == nullptr) return ctx->severity > 0.5;
  return ctx->rng->Bernoulli(ctx->severity);
}

}  // namespace

DelayError::DelayError(int64_t delay_seconds)
    : delay_seconds_(delay_seconds) {}

Status DelayError::Bind(BindContext& ctx, const std::vector<size_t>& attrs) {
  if (delay_seconds_ < 0) {
    BindContext::Scope scope(ctx, "delay_seconds");
    return ctx.Error(StatusCode::kInvalidArgument,
                     "negative delay (" + std::to_string(delay_seconds_) +
                         "s)");
  }
  return ErrorFunction::Bind(ctx, attrs);
}

void DelayError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                       PollutionContext* ctx) {
  (void)attrs;  // operates on tuple metadata, not attribute values
  if (!SeverityGate(ctx)) return;
  tuple->set_arrival_time(tuple->arrival_time() + delay_seconds_);
}

Json DelayError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "delay");
  j.Set("delay_seconds", delay_seconds_);
  return j;
}

ErrorFunctionPtr DelayError::Clone() const {
  return std::make_unique<DelayError>(*this);
}

FrozenValueError::FrozenValueError(int64_t hold_seconds)
    : hold_seconds_(hold_seconds) {}

void FrozenValueError::Observe(const Tuple& tuple,
                               const std::vector<size_t>& attrs) {
  std::vector<Value> snapshot;
  snapshot.reserve(attrs.size());
  for (size_t idx : attrs) {
    if (idx >= tuple.num_values()) return;  // unbound misuse
    snapshot.push_back(tuple.value(idx));
  }
  prev_values_ = std::move(last_values_);
  last_values_ = std::move(snapshot);
}

void FrozenValueError::Apply(Tuple* tuple, const std::vector<size_t>& attrs,
                             PollutionContext* ctx) {
  if (ctx->tau >= freeze_until_ + hold_seconds_ ||
      freeze_until_ == INT64_MIN) {
    // Start a new freeze: capture the value of the previous tuple (the
    // last reading before the sensor got stuck).
    if (!prev_values_.has_value()) return;  // first tuple
    frozen_values_ = prev_values_;
    freeze_until_ = ctx->tau;
  }
  if (!frozen_values_.has_value()) return;
  if (frozen_values_->size() != attrs.size()) return;  // attrs changed
  for (size_t i = 0; i < attrs.size(); ++i) {
    tuple->set_value(attrs[i], (*frozen_values_)[i]);
  }
}

Json FrozenValueError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "frozen_value");
  j.Set("hold_seconds", hold_seconds_);
  return j;
}

ErrorFunctionPtr FrozenValueError::Clone() const {
  // Fresh state: clones start unfrozen.
  return std::make_unique<FrozenValueError>(hold_seconds_);
}

TimestampShiftError::TimestampShiftError(int64_t shift_seconds)
    : shift_seconds_(shift_seconds) {}

void TimestampShiftError::Apply(Tuple* tuple,
                                const std::vector<size_t>& attrs,
                                PollutionContext* ctx) {
  (void)attrs;
  if (!SeverityGate(ctx)) return;
  Result<Timestamp> ts = tuple->GetTimestamp();
  if (!ts.ok()) return;  // timestamp already polluted to a non-time value
  (void)tuple->SetTimestamp(ts.ValueOrDie() + shift_seconds_);
}

Json TimestampShiftError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "timestamp_shift");
  j.Set("shift_seconds", shift_seconds_);
  return j;
}

ErrorFunctionPtr TimestampShiftError::Clone() const {
  return std::make_unique<TimestampShiftError>(*this);
}

TimestampJitterError::TimestampJitterError(int64_t max_jitter_seconds)
    : max_jitter_seconds_(max_jitter_seconds) {}

void TimestampJitterError::Apply(Tuple* tuple,
                                 const std::vector<size_t>& attrs,
                                 PollutionContext* ctx) {
  (void)attrs;
  if (!SeverityGate(ctx)) return;
  const int64_t jitter =
      ctx->rng != nullptr
          ? ctx->rng->UniformInt(-max_jitter_seconds_, max_jitter_seconds_)
          : max_jitter_seconds_;
  Result<Timestamp> ts = tuple->GetTimestamp();
  if (!ts.ok()) return;
  (void)tuple->SetTimestamp(ts.ValueOrDie() + jitter);
}

Json TimestampJitterError::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("type", "timestamp_jitter");
  j.Set("max_jitter_seconds", max_jitter_seconds_);
  return j;
}

ErrorFunctionPtr TimestampJitterError::Clone() const {
  return std::make_unique<TimestampJitterError>(*this);
}

}  // namespace icewafl
