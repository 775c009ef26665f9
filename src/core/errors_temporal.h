#ifndef ICEWAFL_CORE_ERRORS_TEMPORAL_H_
#define ICEWAFL_CORE_ERRORS_TEMPORAL_H_

#include <optional>
#include <string>
#include <vector>

#include "core/error_function.h"

namespace icewafl {

/// \brief Native temporal error: delays the tuple's arrival by
/// `delay_seconds` (bad network connection, Experiment 3.1.3).
///
/// The tuple's attribute values — including its timestamp attribute —
/// stay untouched; only the arrival time shifts, so after the integration
/// step (which orders by arrival) the tuple appears late in the stream
/// and breaks the increasing-timestamp property a DQ tool checks.
class DelayError : public ErrorFunction {
 public:
  explicit DelayError(int64_t delay_seconds);
  /// Rejects a negative delay: arrival may only move later.
  Status Bind(BindContext& ctx, const std::vector<size_t>& attrs) override;
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "delay"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kMetadata,
            .delays_arrival = true,
            .max_delay_seconds = delay_seconds_};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  int64_t delay_seconds_;
};

/// \brief Native temporal error: a stuck sensor repeating its last
/// reading.
///
/// While active, targeted attributes are replaced by the value observed
/// just before the freeze began; a freeze lasts `hold_seconds` of event
/// time from its first application, after which a new freeze (with a new
/// captured value) can begin.
class FrozenValueError : public ErrorFunction {
 public:
  explicit FrozenValueError(int64_t hold_seconds);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  void Observe(const Tuple& tuple,
               const std::vector<size_t>& attrs) override;
  std::string name() const override { return "frozen_value"; }
  ErrorTraits Describe() const override {
    return {};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  int64_t hold_seconds_;
  // Values of the previous and the current tuple, in `attrs` order.
  std::optional<std::vector<Value>> prev_values_;
  std::optional<std::vector<Value>> last_values_;
  // Values written while the freeze is active.
  std::optional<std::vector<Value>> frozen_values_;
  Timestamp freeze_until_ = INT64_MIN;
};

/// \brief Native temporal error: shifts the tuple's *timestamp attribute*
/// by a constant (clock skew). Unlike DelayError, the tuple's stream
/// position is unchanged — the recorded time is wrong.
class TimestampShiftError : public ErrorFunction {
 public:
  explicit TimestampShiftError(int64_t shift_seconds);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "timestamp_shift"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kMetadata, .mutates_timestamp = true};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  int64_t shift_seconds_;
};

/// \brief Native temporal error: adds uniform jitter in
/// [-max_jitter_seconds, +max_jitter_seconds] to the timestamp attribute
/// (unstable clock).
class TimestampJitterError : public ErrorFunction {
 public:
  explicit TimestampJitterError(int64_t max_jitter_seconds);
  void Apply(Tuple* tuple, const std::vector<size_t>& attrs,
             PollutionContext* ctx) override;
  std::string name() const override { return "timestamp_jitter"; }
  ErrorTraits Describe() const override {
    return {.domain = ErrorDomain::kMetadata, .uses_rng = true,
            .mutates_timestamp = true};
  }
  Json ToJson() const override;
  ErrorFunctionPtr Clone() const override;

 private:
  int64_t max_jitter_seconds_;
};

}  // namespace icewafl

#endif  // ICEWAFL_CORE_ERRORS_TEMPORAL_H_
