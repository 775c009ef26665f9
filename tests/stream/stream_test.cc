#include <gtest/gtest.h>

#include "stream/micro_batch.h"
#include "stream/operator.h"
#include "stream/runtime.h"
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

TEST(SourceTest, VectorSourceDrainsAndResets) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 5));
  EXPECT_EQ(source.size(), 5u);
  auto all = CollectAll(&source);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.ValueOrDie().size(), 5u);
  // Exhausted source yields nothing...
  Tuple t;
  EXPECT_FALSE(source.Next(&t).ValueOrDie());
  // ...until reset.
  ASSERT_TRUE(source.Reset().ok());
  EXPECT_TRUE(source.Next(&t).ValueOrDie());
  EXPECT_EQ(t.value(1).AsDouble(), 0.0);
}

TEST(SourceTest, GeneratorSourceBoundedByNullopt) {
  SchemaPtr schema = TestSchema();
  GeneratorSource source(schema, [&](uint64_t i) -> std::optional<Tuple> {
    if (i >= 3) return std::nullopt;
    return Tuple(schema, {Value(static_cast<int64_t>(i)),
                          Value(static_cast<double>(i) * 2.0)});
  });
  auto all = CollectAll(&source);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.ValueOrDie().size(), 3u);
  EXPECT_DOUBLE_EQ(all.ValueOrDie()[2].value(1).AsDouble(), 4.0);
  ASSERT_TRUE(source.Reset().ok());
  EXPECT_EQ(CollectAll(&source).ValueOrDie().size(), 3u);
}

TEST(SinkTest, VectorSinkCollects) {
  SchemaPtr schema = TestSchema();
  VectorSink sink;
  for (const Tuple& t : MakeTuples(schema, 4)) {
    ASSERT_TRUE(sink.Write(t).ok());
  }
  EXPECT_EQ(sink.tuples().size(), 4u);
  TupleVector taken = sink.TakeTuples();
  EXPECT_EQ(taken.size(), 4u);
  EXPECT_EQ(sink.tuples().size(), 0u);
}

TEST(SinkTest, CountingSinkChecksumIsOrderSensitive) {
  SchemaPtr schema = TestSchema();
  TupleVector tuples = MakeTuples(schema, 3);
  CountingSink forward;
  for (const Tuple& t : tuples) ASSERT_TRUE(forward.Write(t).ok());
  CountingSink reversed;
  for (auto it = tuples.rbegin(); it != tuples.rend(); ++it) {
    ASSERT_TRUE(reversed.Write(*it).ok());
  }
  EXPECT_EQ(forward.count(), 3u);
  EXPECT_EQ(reversed.count(), 3u);
  EXPECT_NE(forward.checksum(), reversed.checksum());
}

TEST(OperatorTest, MapTransformsEachTuple) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 3));
  MapOperator op([](Tuple t) -> Result<Tuple> {
    ICEWAFL_ASSIGN_OR_RETURN(Value v, t.Get("v"));
    ICEWAFL_RETURN_NOT_OK(t.Set("v", Value(v.AsDouble() + 100.0)));
    return t;
  });
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  ASSERT_EQ(sink.tuples().size(), 3u);
  EXPECT_DOUBLE_EQ(sink.tuples()[1].value(1).AsDouble(), 101.0);
}

TEST(OperatorTest, MapErrorPropagates) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 1));
  MapOperator op([](Tuple) -> Result<Tuple> {
    return Status::Internal("boom");
  });
  VectorSink sink;
  Status st = PipelineRuntime().Run(&source, {&op}, &sink);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(OperatorTest, FilterDropsTuples) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 10));
  FilterOperator op([](const Tuple& t) {
    return t.value(1).AsDouble() >= 5.0;
  });
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  EXPECT_EQ(sink.tuples().size(), 5u);
}

TEST(OperatorTest, FlatMapDuplicates) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 3));
  FlatMapOperator op([](Tuple t) -> Result<TupleVector> {
    return TupleVector{t, t};
  });
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&op}, &sink).ok());
  EXPECT_EQ(sink.tuples().size(), 6u);
}

TEST(OperatorTest, ChainedOperatorsComposeInOrder) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 6));
  MapOperator add([](Tuple t) -> Result<Tuple> {
    ICEWAFL_ASSIGN_OR_RETURN(Value v, t.Get("v"));
    ICEWAFL_RETURN_NOT_OK(t.Set("v", Value(v.AsDouble() + 1.0)));
    return t;
  });
  FilterOperator even([](const Tuple& t) {
    return static_cast<int64_t>(t.value(1).AsDouble()) % 2 == 0;
  });
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&add, &even}, &sink).ok());
  // v+1 in {1..6}; evens are 2, 4, 6.
  ASSERT_EQ(sink.tuples().size(), 3u);
  EXPECT_DOUBLE_EQ(sink.tuples()[0].value(1).AsDouble(), 2.0);
}

TEST(ReorderOperatorTest, RestoresArrivalOrderWithinLateness) {
  SchemaPtr schema = TestSchema();
  TupleVector tuples = MakeTuples(schema, 5);
  // Tuple 1 is delayed by 2.5 hours: its arrival time jumps past tuples
  // 2 and 3.
  tuples[1].set_arrival_time(tuples[1].arrival_time() + 9000);
  VectorSource source(schema, tuples);
  ReorderOperator reorder(4 * 3600);
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&reorder}, &sink).ok());
  ASSERT_EQ(sink.tuples().size(), 5u);
  std::vector<TupleId> order;
  for (const Tuple& t : sink.tuples()) order.push_back(t.id());
  EXPECT_EQ(order, (std::vector<TupleId>{0, 2, 3, 1, 4}));
}

TEST(ReorderOperatorTest, FlushEmitsRemainderInOrder) {
  SchemaPtr schema = TestSchema();
  TupleVector tuples = MakeTuples(schema, 3);
  tuples[0].set_arrival_time(tuples[2].arrival_time() + 100);
  VectorSource source(schema, tuples);
  ReorderOperator reorder(1000000);  // nothing released before Finish
  VectorSink sink;
  ASSERT_TRUE(PipelineRuntime().Run(&source, {&reorder}, &sink).ok());
  ASSERT_EQ(sink.tuples().size(), 3u);
  EXPECT_EQ(sink.tuples()[0].id(), 1u);
  EXPECT_EQ(sink.tuples()[1].id(), 2u);
  EXPECT_EQ(sink.tuples()[2].id(), 0u);
}

TEST(MicroBatchTest, BatchesHaveRequestedSize) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 10));
  auto batches = ToMicroBatches(&source, 4);
  ASSERT_TRUE(batches.ok());
  const auto& b = batches.ValueOrDie();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].size(), 4u);
  EXPECT_EQ(b[1].size(), 4u);
  EXPECT_EQ(b[2].size(), 2u);
}

TEST(MicroBatchTest, ZeroBatchSizeRejected) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 2));
  EXPECT_EQ(ToMicroBatches(&source, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MicroBatchTest, MicroBatchSourceReplaysTupleWise) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 7));
  auto batches = ToMicroBatches(&source, 3).ValueOrDie();
  MicroBatchSource mb(schema, batches);
  EXPECT_EQ(mb.num_batches(), 3u);
  auto all = CollectAll(&mb);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.ValueOrDie().size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(all.ValueOrDie()[static_cast<size_t>(i)].id(),
              static_cast<TupleId>(i));
  }
  ASSERT_TRUE(mb.Reset().ok());
  EXPECT_EQ(CollectAll(&mb).ValueOrDie().size(), 7u);
}

}  // namespace
}  // namespace icewafl
