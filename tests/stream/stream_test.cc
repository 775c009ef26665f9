#include <gtest/gtest.h>

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

TEST(SourceTest, VectorSourceDrainsOnceInOrder) {
  SchemaPtr schema = TestSchema();
  VectorSource source(schema, MakeTuples(schema, 5));
  auto all = CollectAll(&source);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.ValueOrDie().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(all.ValueOrDie()[i].id(), static_cast<TupleId>(i));
    EXPECT_EQ(all.ValueOrDie()[i].value(1).AsDouble(),
              static_cast<double>(i));
  }
  // The rows were handed over: a drained source yields nothing more.
  Tuple t;
  EXPECT_FALSE(source.Next(&t).ValueOrDie());
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

}  // namespace
}  // namespace icewafl
