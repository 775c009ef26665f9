#ifndef ICEWAFL_STREAM_SINK_H_
#define ICEWAFL_STREAM_SINK_H_

#include <cstdint>
#include <utility>

#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {

/// \brief A push-based consumer of tuples.
class Sink {
 public:
  virtual ~Sink() = default;

  /// \brief Consumes one tuple.
  virtual Status Write(const Tuple& tuple) = 0;

  /// \brief Move-aware overload used by the runtime's sink stage; the
  /// default degrades to the copying Write. Materializing sinks override
  /// it to take ownership without a per-tuple deep copy.
  virtual Status Write(Tuple&& tuple) {
    return Write(static_cast<const Tuple&>(tuple));
  }

  /// \brief Called once after the last tuple.
  virtual Status Flush() { return Status::OK(); }
};

/// \brief Materializes the stream into an in-memory vector.
class VectorSink : public Sink {
 public:
  using Sink::Write;

  Status Write(const Tuple& tuple) override {
    tuples_.push_back(tuple);
    return Status::OK();
  }

  Status Write(Tuple&& tuple) override {
    tuples_.push_back(std::move(tuple));
    return Status::OK();
  }

  const TupleVector& tuples() const { return tuples_; }
  TupleVector TakeTuples() { return std::move(tuples_); }

 private:
  TupleVector tuples_;
};

/// \brief Discards tuples but counts them (baseline for overhead
/// measurements, Figure 8).
class CountingSink : public Sink {
 public:
  using Sink::Write;

  Status Write(const Tuple& tuple) override {
    ++count_;
    checksum_ ^= tuple.id() + 0x9E3779B97F4A7C15ULL + (checksum_ << 6);
    return Status::OK();
  }

  uint64_t count() const { return count_; }

  /// \brief Order-sensitive digest; prevents dead-code elimination in
  /// benchmarks and detects accidental reordering.
  uint64_t checksum() const { return checksum_; }

 private:
  uint64_t count_ = 0;
  uint64_t checksum_ = 0;
};

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_SINK_H_
