// The runtime hands written rows back to its source, which assigns the
// next rows into them. These tests run streams through recycled rows
// and require exactly the rows a fresh-row run gives: a value, a type,
// a schema or a piece of metadata left over from a row's earlier life
// fails them.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clean/cleaner.h"
#include "clean/config.h"
#include "stream/runtime.h"
#include "stream/sink.h"
#include "stream/source.h"

namespace icewafl {
namespace {

SchemaPtr WideSchema() {
  static const SchemaPtr schema =
      Schema::Make({{"ts", ValueType::kInt64},
                    {"s", ValueType::kString},
                    {"v", ValueType::kDouble}},
                   "ts")
          .ValueOrDie();
  return schema;
}

SchemaPtr NarrowSchema() {
  static const SchemaPtr schema =
      Schema::Make({{"ts", ValueType::kInt64}, {"v", ValueType::kDouble}},
                   "ts")
          .ValueOrDie();
  return schema;
}

/// `n` rows in arrival order. With `switch_schema`, blocks of 37 rows
/// alternate between the wide and the narrow schema. The wide schema's
/// string slot holds a heap-sized string, a double or NULL in turn.
TupleVector Stream(int n, bool switch_schema) {
  TupleVector rows;
  for (int i = 0; i < n; ++i) {
    const int64_t ts = int64_t{60} * i;
    Tuple t;
    if (switch_schema && (i / 37) % 2 == 1) {
      t = Tuple(NarrowSchema(), {Value(ts), Value(0.5 * i)});
    } else {
      Value s;
      if (i % 3 == 0) s = Value("station-" + std::string(24, 'a' + i % 26));
      if (i % 3 == 1) s = Value(1.25 * i);
      t = Tuple(WideSchema(), {Value(ts), std::move(s), Value(0.5 * i)});
    }
    t.set_id(static_cast<TupleId>(i));
    t.set_event_time(ts);
    t.set_arrival_time(ts);
    rows.push_back(std::move(t));
  }
  return rows;
}

/// Changes slot types on the way through, as polluters do: the last
/// slot becomes NULL on every 7th row, the wide schema's string slot a
/// double on every 5th row and an int on every 11th.
class ScrambleOperator : public Operator {
 public:
  Status Process(Tuple tuple, Emitter* out) override {
    Scramble(&tuple);
    return out->Emit(std::move(tuple));
  }

  static void Scramble(Tuple* t) {
    const TupleId id = t->id();
    if (id % 7 == 0) t->set_value(t->num_values() - 1, Value());
    if (t->num_values() == 3 && id % 5 == 0) {
      t->set_value(1, Value(static_cast<double>(id)));
    }
    if (t->num_values() == 3 && id % 11 == 0) {
      t->set_value(1, Value(static_cast<int64_t>(id)));
    }
  }
};

/// Assigns each row into `*out` as PlanSegmentSource does, and counts
/// the calls that found a recycled row there.
class AssigningSource : public Source {
 public:
  explicit AssigningSource(TupleVector rows) : rows_(std::move(rows)) {}

  SchemaPtr schema() const override { return WideSchema(); }

  Result<bool> Next(Tuple* out) override {
    if (pos_ >= rows_.size()) return false;
    if (out->num_values() > 0) ++recycled_;
    *out = rows_[pos_++];
    return true;
  }

  int recycled() const { return recycled_; }

 private:
  TupleVector rows_;
  size_t pos_ = 0;
  int recycled_ = 0;
};

/// Copies every written row, so the written rows keep their values and
/// go back to the source.
class CopyingSink : public Sink {
 public:
  Status Write(const Tuple& tuple) override {
    rows_.push_back(tuple);
    return Status::OK();
  }
  const TupleVector& rows() const { return rows_; }

 private:
  TupleVector rows_;
};

void ExpectSameRows(const TupleVector& got, const TupleVector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(got[i].schema(), want[i].schema());
    ASSERT_TRUE(got[i].ValuesEqual(want[i]))
        << got[i].ToString() << " vs " << want[i].ToString();
    EXPECT_EQ(got[i].id(), want[i].id());
    EXPECT_EQ(got[i].event_time(), want[i].event_time());
    EXPECT_EQ(got[i].arrival_time(), want[i].arrival_time());
    EXPECT_EQ(got[i].substream(), want[i].substream());
  }
}

RuntimeOptions SmallBatches(int parallelism) {
  RuntimeOptions options;
  options.parallelism = parallelism;
  options.batch_size = 8;
  options.channel_capacity = 2;
  return options;
}

PipelineRuntime::ChainFactory Scramble() {
  return [](int) {
    OperatorChain chain;
    chain.push_back(std::make_unique<ScrambleOperator>());
    return chain;
  };
}

TupleVector Scrambled(TupleVector rows) {
  for (Tuple& t : rows) ScrambleOperator::Scramble(&t);
  return rows;
}

constexpr int kRows = 5000;

TEST(RowRecyclingTest, SchemaArityAndSlotTypeChangesMatchFreshRows) {
  for (int parallelism : {1, 2, 3}) {
    SCOPED_TRACE("P=" + std::to_string(parallelism));
    AssigningSource source(Stream(kRows, /*switch_schema=*/true));
    CopyingSink sink;
    PipelineRuntime runtime(SmallBatches(parallelism));
    ASSERT_TRUE(runtime.Run(&source, Scramble(), &sink).ok());
    ExpectSameRows(sink.rows(), Scrambled(Stream(kRows, true)));
    // Backpressure holds the source until rows come back, so most rows
    // are assigned into recycled ones.
    EXPECT_GT(source.recycled(), kRows / 2);
  }
}

TEST(RowRecyclingTest, RowsASinkMovedOutAreNotReturned) {
  for (int parallelism : {1, 2}) {
    SCOPED_TRACE("P=" + std::to_string(parallelism));
    AssigningSource source(Stream(kRows, /*switch_schema=*/true));
    VectorSink sink;  // moves every written row out
    PipelineRuntime runtime(SmallBatches(parallelism));
    ASSERT_TRUE(runtime.Run(&source, Scramble(), &sink).ok());
    ExpectSameRows(sink.tuples(), Scrambled(Stream(kRows, true)));
    EXPECT_EQ(source.recycled(), 0);
  }
}

TEST(RowRecyclingTest, CleanerThatDropsRowsMatchesFreshRows) {
  // Drops every row whose v lies above 1000 (rows 2001 on, less the
  // NULLed ones) and NULLs a string slot that holds another type.
  const Json doc = Json::Parse(R"({"name": "c", "rules": [
      {"label": "high", "column": "v",
       "detect": {"type": "range", "min": 0, "max": 1000},
       "repair": "drop"},
      {"label": "typed", "column": "s",
       "detect": {"type": "type", "value_type": "string"},
       "repair": "set_null"}]})")
                       .ValueOrDie();
  const clean::CleaningRules rules =
      clean::RulesFromJson(doc, WideSchema()).ValueOrDie();
  CopyingSink want;
  ASSERT_TRUE(clean::CleanTuples(rules, Scrambled(Stream(kRows, false)),
                                 &want)
                  .ok());
  ASSERT_LT(want.rows().size(), static_cast<size_t>(kRows) * 3 / 4);
  for (int parallelism : {1, 2}) {
    SCOPED_TRACE("P=" + std::to_string(parallelism));
    AssigningSource source(Stream(kRows, /*switch_schema=*/false));
    CopyingSink got;
    clean::CleaningSink cleaning(rules, &got);
    PipelineRuntime runtime(SmallBatches(parallelism));
    ASSERT_TRUE(runtime.Run(&source, Scramble(), &cleaning).ok());
    ExpectSameRows(got.rows(), want.rows());
    EXPECT_GT(source.recycled(), 0);
  }
}

}  // namespace
}  // namespace icewafl
