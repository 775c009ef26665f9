#include "stream/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "stream/operator.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace icewafl {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make(
             {{"ts", ValueType::kInt64}, {"v", ValueType::kDouble}}, "ts")
      .ValueOrDie();
}

TupleVector MakeTuples(const SchemaPtr& schema, int n) {
  TupleVector tuples;
  for (int i = 0; i < n; ++i) {
    Tuple t(schema, {Value(int64_t{i * 3600}), Value(static_cast<double>(i))});
    t.set_id(static_cast<TupleId>(i));
    t.set_event_time(i * 3600);
    t.set_arrival_time(i * 3600);
    tuples.push_back(std::move(t));
  }
  return tuples;
}

/// Adds 1.0 to value(1) of every tuple.
class AddOneOperator : public Operator {
 public:
  Status Process(Tuple tuple, Emitter* out) override {
    tuple.set_value(1, Value(tuple.value(1).AsDouble() + 1.0));
    return out->Emit(std::move(tuple));
  }
};

std::unique_ptr<Operator> AddOne() {
  return std::make_unique<AddOneOperator>();
}

/// Keeps the tuples whose value(1) is an even integer.
class KeepEvenOperator : public Operator {
 public:
  Status Process(Tuple tuple, Emitter* out) override {
    if (static_cast<int64_t>(tuple.value(1).AsDouble()) % 2 != 0) {
      return Status::OK();
    }
    return out->Emit(std::move(tuple));
  }
};

/// Buffers every tuple and re-emits the whole stream in Finish().
class HoldAllOperator : public Operator {
 public:
  Status Process(Tuple tuple, Emitter* out) override {
    (void)out;
    held_.push_back(std::move(tuple));
    return Status::OK();
  }
  Status Finish(Emitter* out) override {
    for (Tuple& t : held_) {
      ICEWAFL_RETURN_NOT_OK(out->Emit(std::move(t)));
    }
    held_.clear();
    return Status::OK();
  }

 private:
  TupleVector held_;
};

/// Fails on the tuple whose value(1) equals `bad`.
class FailOnValueOperator : public Operator {
 public:
  explicit FailOnValueOperator(double bad) : bad_(bad) {}
  Status Process(Tuple tuple, Emitter* out) override {
    if (tuple.value(1).AsDouble() == bad_) {
      return Status::Internal("poisoned tuple");
    }
    return out->Emit(std::move(tuple));
  }

 private:
  double bad_;
};

class FailingSource : public Source {
 public:
  explicit FailingSource(SchemaPtr schema, int fail_after)
      : schema_(std::move(schema)), fail_after_(fail_after) {}
  SchemaPtr schema() const override { return schema_; }
  Result<bool> Next(Tuple* out) override {
    if (produced_ >= fail_after_) return Status::IOError("source broke");
    *out = Tuple(schema_, {Value(int64_t{produced_}),
                           Value(static_cast<double>(produced_))});
    ++produced_;
    return true;
  }

 private:
  SchemaPtr schema_;
  int fail_after_;
  int produced_ = 0;
};

/// Produces `count` tuples, sleeping 2 ms before each one.
class SlowSource : public Source {
 public:
  SlowSource(SchemaPtr schema, int count)
      : schema_(std::move(schema)), count_(count) {}
  SchemaPtr schema() const override { return schema_; }
  Result<bool> Next(Tuple* out) override {
    if (produced_ >= count_) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    *out = Tuple(schema_, {Value(int64_t{produced_}),
                           Value(static_cast<double>(produced_))});
    ++produced_;
    return true;
  }

 private:
  SchemaPtr schema_;
  int count_;
  int produced_ = 0;
};

class FailingSink : public Sink {
 public:
  using Sink::Write;
  explicit FailingSink(uint64_t fail_after) : fail_after_(fail_after) {}
  Status Write(const Tuple& tuple) override {
    (void)tuple;
    if (written_ >= fail_after_) return Status::IOError("sink broke");
    ++written_;
    return Status::OK();
  }

 private:
  uint64_t fail_after_;
  uint64_t written_ = 0;
};

TEST(PipelineRuntimeTest, EmptySource) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, {});
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 4;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  EXPECT_EQ(sink.tuples().size(), 0u);
  EXPECT_EQ(runtime.stats().source_tuples, 0u);
  EXPECT_EQ(runtime.stats().sink_tuples, 0u);
}

TEST(PipelineRuntimeTest, EmptyChainPassesThrough) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 7));
  VectorSink sink;
  PipelineRuntime runtime;
  ASSERT_TRUE(
      runtime.Run(&source, [](int) { return OperatorChain{}; }, &sink).ok());
  ASSERT_EQ(sink.tuples().size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(sink.tuples()[i].value(1).AsDouble(), static_cast<double>(i));
  }
}

TEST(PipelineRuntimeTest, ParallelismExceedsTupleCount) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 3));
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 8;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  ASSERT_EQ(sink.tuples().size(), 3u);
  double sum = 0.0;
  for (const Tuple& t : sink.tuples()) sum += t.value(1).AsDouble();
  EXPECT_DOUBLE_EQ(sum, 6.0);  // (0+1)+(1+1)+(2+1)
  EXPECT_EQ(runtime.stats().source_tuples, 3u);
  EXPECT_EQ(runtime.stats().sink_tuples, 3u);
}

TEST(PipelineRuntimeTest, ParallelismOnePreservesInputOrder) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 100));
  VectorSink sink;
  RuntimeOptions options;
  options.batch_size = 7;  // force many partial batches
  options.channel_capacity = 2;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  ASSERT_EQ(sink.tuples().size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(sink.tuples()[i].value(1).AsDouble(), i + 1.0);
  }
}

TEST(PipelineRuntimeTest, DeterministicAcrossRuns) {
  SchemaPtr schema = TestSchema();
  RuntimeOptions options;
  options.parallelism = 4;
  options.batch_size = 16;
  auto run_once = [&]() -> uint64_t {
    VectorSource source(schema, MakeTuples(schema, 1000));
    CountingSink sink;
    PipelineRuntime runtime(options);
    EXPECT_TRUE(runtime
                    .Run(&source,
                         [](int) {
                           OperatorChain chain;
                           chain.push_back(AddOne());
                           return chain;
                         },
                         &sink)
                    .ok());
    EXPECT_EQ(sink.count(), 1000u);
    return sink.checksum();
  };
  const uint64_t first = run_once();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(run_once(), first) << "output order changed between runs";
  }
}

TEST(PipelineRuntimeTest, FinishReemissionsFlowThroughRemainingChain) {
  // HoldAll buffers everything and re-emits in Finish(); the downstream
  // AddOne must still see (and transform) those re-emissions, and they
  // must come out in the held order.
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 10));
  VectorSink sink;
  PipelineRuntime runtime;
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(std::make_unique<HoldAllOperator>());
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  ASSERT_EQ(sink.tuples().size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(sink.tuples()[i].value(1).AsDouble(), i + 1.0)
        << "Finish re-emission skipped the downstream operator";
  }
}

TEST(PipelineRuntimeTest, FinishOrderAfterRegularTuplesPerWorker) {
  // A chain of [AddOne, HoldAll]: every processed tuple is released only
  // at Finish, after the last regular batch of that worker.
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 6));
  VectorSink sink;
  PipelineRuntime runtime;
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         chain.push_back(std::make_unique<HoldAllOperator>());
                         return chain;
                       },
                       &sink)
                  .ok());
  ASSERT_EQ(sink.tuples().size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(sink.tuples()[i].value(1).AsDouble(), i + 1.0);
  }
}

TEST(PipelineRuntimeTest, WorkerErrorPropagates) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 64));
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 3;
  options.batch_size = 4;
  PipelineRuntime runtime(options);
  Status status = runtime.Run(
      &source,
      [](int) {
        OperatorChain chain;
        chain.push_back(std::make_unique<FailOnValueOperator>(33.0));
        return chain;
      },
      &sink);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(PipelineRuntimeTest, SourceErrorPropagates) {
  SchemaPtr schema = TestSchema();
  FailingSource source(schema, 20);
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 2;
  options.batch_size = 4;
  PipelineRuntime runtime(options);
  Status status = runtime.Run(
      &source,
      [](int) {
        OperatorChain chain;
        chain.push_back(AddOne());
        return chain;
      },
      &sink);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("source broke"), std::string::npos);
}

TEST(PipelineRuntimeTest, SinkErrorPropagates) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 256));
  FailingSink sink(10);
  RuntimeOptions options;
  options.parallelism = 2;
  options.batch_size = 8;
  PipelineRuntime runtime(options);
  Status status = runtime.Run(
      &source,
      [](int) {
        OperatorChain chain;
        chain.push_back(AddOne());
        return chain;
      },
      &sink);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("sink broke"), std::string::npos);
}

/// Takes whole batches and fails partway through the batch holding row
/// number `fail_at`.
class FailingBatchSink : public Sink {
 public:
  using Sink::Write;
  explicit FailingBatchSink(uint64_t fail_at) : fail_at_(fail_at) {}
  Status Write(const Tuple& tuple) override {
    (void)tuple;
    return Status::Internal("the runtime took the per-row path");
  }
  Status WriteBatch(TupleVector* rows) override {
    for (size_t i = 0; i < rows->size(); ++i) {
      if (written_ == fail_at_) return Status::IOError("batch sink broke");
      ++written_;
    }
    return Status::OK();
  }
  uint64_t written() const { return written_; }

 private:
  uint64_t fail_at_;
  uint64_t written_ = 0;
};

TEST(PipelineRuntimeTest, SinkErrorPartwayThroughABatchEndsTheRun) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 256));
  FailingBatchSink sink(20);  // the third batch of 8
  RuntimeOptions options;
  options.parallelism = 2;
  options.batch_size = 8;
  PipelineRuntime runtime(options);
  Status status = runtime.Run(
      &source,
      [](int) {
        OperatorChain chain;
        chain.push_back(AddOne());
        return chain;
      },
      &sink);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("batch sink broke"), std::string::npos);
  // No batch reached the sink after the failing one.
  EXPECT_EQ(sink.written(), 20u);
}

TEST(PipelineRuntimeTest, RawOperatorOverloadRunsChain) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 12));
  VectorSink sink;
  AddOneOperator add;
  KeepEvenOperator keep_even;
  PipelineRuntime runtime;
  ASSERT_TRUE(runtime.Run(&source, {&add, &keep_even}, &sink).ok());
  // Values 1..12 after AddOne; evens survive: 2,4,6,8,10,12.
  ASSERT_EQ(sink.tuples().size(), 6u);
  EXPECT_DOUBLE_EQ(sink.tuples().front().value(1).AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(sink.tuples().back().value(1).AsDouble(), 12.0);
}

TEST(PipelineRuntimeTest, StatsAreConsistent) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 500));
  CountingSink sink;
  RuntimeOptions options;
  options.parallelism = 4;
  options.batch_size = 16;
  options.channel_capacity = 2;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  const RuntimeStats& stats = runtime.stats();
  EXPECT_EQ(stats.source_tuples, 500u);
  EXPECT_EQ(stats.sink_tuples, 500u);
  EXPECT_GE(stats.batches, 500u / 16u);
  // source + 4 workers + sink
  EXPECT_EQ(stats.stages.size(), 6u);
  // Peak buffering is bounded by the channels plus the per-stage
  // in-flight batches (source accumulator, worker scratch, sink pop) —
  // O(channel_capacity * batch_size * parallelism), far below the
  // 500-tuple stream.
  EXPECT_LE(stats.peak_buffered_tuples,
            (2u * options.channel_capacity + 2u) * options.batch_size *
                static_cast<size_t>(options.parallelism));
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(PipelineRuntimeTest, BlockedPopsAggregateIntoRuntimeStats) {
  // Regression: StageStats::blocked_pops used to be collected per stage
  // but never summed into RuntimeStats nor printed by ToString(), so
  // starvation was invisible at the aggregate level.
  SchemaPtr schema = TestSchema();
  // A slow source starves the workers: their input pops find the channel
  // empty and block until the next batch arrives.
  SlowSource source(schema, 8);
  CountingSink sink;
  RuntimeOptions options;
  options.batch_size = 1;  // one batch per tuple: maximal pop pressure
  options.channel_capacity = 1;
  PipelineRuntime runtime(options);
  ASSERT_TRUE(runtime
                  .Run(&source,
                       [](int) {
                         OperatorChain chain;
                         chain.push_back(AddOne());
                         return chain;
                       },
                       &sink)
                  .ok());
  const RuntimeStats& stats = runtime.stats();
  uint64_t per_stage = 0;
  for (const StageStats& s : stats.stages) per_stage += s.blocked_pops;
  EXPECT_EQ(stats.blocked_pops, per_stage);
  EXPECT_GE(stats.blocked_pops, 1u);  // the starved worker blocked
  EXPECT_NE(stats.ToString().find("blocked_pops="), std::string::npos);
}

TEST(PipelineRuntimeTest, PublishesMetricsAndTraceWithoutPerturbingOutput) {
  SchemaPtr schema = TestSchema();
  RuntimeOptions options;
  options.parallelism = 2;
  options.batch_size = 16;

  auto run = [&](obs::MetricRegistry* metrics,
                 obs::TraceRecorder* trace) -> uint64_t {
    VectorSource source(schema, MakeTuples(schema, 200));
    CountingSink sink;
    RuntimeOptions opts = options;
    opts.metrics = metrics;
    opts.trace = trace;
    PipelineRuntime runtime(opts);
    EXPECT_TRUE(runtime
                    .Run(&source,
                         [](int) {
                           OperatorChain chain;
                           chain.push_back(AddOne());
                           return chain;
                         },
                         &sink)
                    .ok());
    return sink.checksum();
  };

  const uint64_t plain = run(nullptr, nullptr);
  obs::MetricRegistry registry;
  obs::TraceRecorder trace;
  const uint64_t instrumented = run(&registry, &trace);
  // Determinism contract: instrumentation must not change the output.
  EXPECT_EQ(plain, instrumented);

  // Stage counters agree with the runtime's own stats.
  obs::Counter* source_out = registry.GetCounter(
      "icewafl_stage_tuples_out_total", {{"stage", "source"}});
  ASSERT_NE(source_out, nullptr);
  EXPECT_EQ(source_out->value(), 200u);
  obs::Counter* sink_in = registry.GetCounter("icewafl_stage_tuples_in_total",
                                              {{"stage", "sink"}});
  ASSERT_NE(sink_in, nullptr);
  EXPECT_EQ(sink_in->value(), 200u);

  // One span per stage (source, 2 workers, sink) plus the run span.
  EXPECT_GE(trace.size(), 5u);
  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("icewafl_runtime_wall_seconds"), std::string::npos);
  EXPECT_NE(prom.find("icewafl_runtime_batch_tuples_bucket"),
            std::string::npos);
}

TEST(PipelineRuntimeTest, MatchesSequentialResultSet) {
  // Parallel workers interleave the output but never change which
  // tuples come out: the multiset equals the parallelism-1 run's.
  SchemaPtr schema = TestSchema();
  auto run = [&](int parallelism) {
    VectorSource source(schema, MakeTuples(schema, 100));
    VectorSink sink;
    RuntimeOptions options;
    options.parallelism = parallelism;
    options.batch_size = 8;
    PipelineRuntime runtime(options);
    EXPECT_TRUE(runtime
                    .Run(&source,
                         [](int) {
                           OperatorChain chain;
                           chain.push_back(AddOne());
                           return chain;
                         },
                         &sink)
                    .ok());
    std::vector<double> values;
    for (const Tuple& t : sink.tuples()) {
      values.push_back(t.value(1).AsDouble());
    }
    std::sort(values.begin(), values.end());
    return values;
  };
  const std::vector<double> sequential = run(1);
  ASSERT_EQ(sequential.size(), 100u);
  EXPECT_EQ(run(4), sequential);
}

TEST(PipelineRuntimeTest, OrderDependsOnBatchSizeAboveParallelismOne) {
  // The sink takes one whole batch per worker in turn, so above P=1 the
  // batch boundaries are part of the output order. Batches are cut by
  // count from the input alone; a flush timed by the clock would make
  // this order depend on scheduling.
  SchemaPtr schema = TestSchema();
  auto run = [&](int parallelism, size_t batch_size) {
    VectorSource source(schema, MakeTuples(schema, 100));
    VectorSink sink;
    RuntimeOptions options;
    options.parallelism = parallelism;
    options.batch_size = batch_size;
    PipelineRuntime runtime(options);
    EXPECT_TRUE(runtime
                    .Run(&source,
                         [](int) {
                           OperatorChain chain;
                           chain.push_back(AddOne());
                           return chain;
                         },
                         &sink)
                    .ok());
    std::vector<double> values;
    for (const Tuple& t : sink.tuples()) {
      values.push_back(t.value(1).AsDouble());
    }
    return values;
  };
  std::vector<double> small = run(2, 4);
  std::vector<double> large = run(2, 8);
  ASSERT_EQ(small.size(), 100u);
  EXPECT_NE(small, large) << "P=2 order must follow the batch boundaries";
  std::sort(small.begin(), small.end());
  std::sort(large.begin(), large.end());
  EXPECT_EQ(small, large) << "but the rows must not change";

  EXPECT_EQ(run(1, 4), run(1, 8)) << "P=1 keeps input order at any batch";
}

TEST(PipelineRuntimeTest, RejectsZeroParallelism) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 1));
  VectorSink sink;
  RuntimeOptions options;
  options.parallelism = 0;
  PipelineRuntime runtime(options);
  EXPECT_EQ(
      runtime.Run(&source, [](int) { return OperatorChain{}; }, &sink).code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace icewafl
