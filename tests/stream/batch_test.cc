#include "stream/batch.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/wire.h"
#include "util/rng.h"

namespace icewafl {
namespace {

// Bit-exact value comparison: doubles are compared by bit pattern so
// NaN payloads, signed zeros, and denormals all count.
bool BitEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.AsBool() == b.AsBool();
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble: {
      uint64_t ba = 0;
      uint64_t bb = 0;
      const double da = a.AsDouble();
      const double db = b.AsDouble();
      std::memcpy(&ba, &da, sizeof(ba));
      std::memcpy(&bb, &db, sizeof(bb));
      return ba == bb;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

bool TupleBitEq(const Tuple& a, const Tuple& b) {
  if (a.id() != b.id() || a.event_time() != b.event_time() ||
      a.arrival_time() != b.arrival_time() ||
      a.substream() != b.substream() ||
      a.num_values() != b.num_values()) {
    return false;
  }
  for (size_t i = 0; i < a.num_values(); ++i) {
    if (!BitEq(a.value(i), b.value(i))) return false;
  }
  return true;
}

SchemaPtr RandomSchema(Rng* rng) {
  const ValueType kinds[] = {ValueType::kBool, ValueType::kInt64,
                             ValueType::kDouble, ValueType::kString};
  std::vector<Attribute> attrs;
  attrs.push_back({"ts", ValueType::kInt64});
  const int extra = static_cast<int>(rng->UniformInt(0, 6));
  for (int i = 0; i < extra; ++i) {
    attrs.push_back({"a" + std::to_string(i),
                     kinds[rng->UniformInt(0, 3)]});
  }
  return Schema::Make(std::move(attrs), "ts").ValueOrDie();
}

Value RandomTypedValue(Rng* rng, ValueType type) {
  switch (type) {
    case ValueType::kBool:
      return Value(rng->Bernoulli(0.5));
    case ValueType::kInt64:
      return Value(rng->UniformInt(std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max()));
    case ValueType::kDouble: {
      switch (rng->UniformInt(0, 6)) {
        case 0:
          return Value(std::numeric_limits<double>::quiet_NaN());
        case 1:
          return Value(std::numeric_limits<double>::infinity());
        case 2:
          return Value(-0.0);
        case 3:
          return Value(std::numeric_limits<double>::denorm_min());
        default:
          return Value(rng->Uniform(-1e12, 1e12));
      }
    }
    case ValueType::kString: {
      std::string s;
      const int len = static_cast<int>(rng->UniformInt(0, 12));
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->UniformInt(0, 255)));
      }
      return Value(std::move(s));
    }
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

// Declared-type value with a chance of NULL or a diverged runtime type
// (an upstream polluter may have rewritten the slot).
Value RandomCellValue(Rng* rng, ValueType declared) {
  const double roll = rng->NextDouble();
  if (roll < 0.15) return Value::Null();
  if (roll < 0.25) {
    const ValueType kinds[] = {ValueType::kBool, ValueType::kInt64,
                               ValueType::kDouble, ValueType::kString};
    return RandomTypedValue(rng, kinds[rng->UniformInt(0, 3)]);
  }
  return RandomTypedValue(rng, declared);
}

TupleVector RandomTuples(Rng* rng, const SchemaPtr& schema, size_t rows) {
  TupleVector tuples;
  tuples.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> values;
    for (const Attribute& attr : schema->attributes()) {
      values.push_back(RandomCellValue(rng, attr.type));
    }
    Tuple t(schema, std::move(values));
    t.set_id(rng->Next());
    t.set_event_time(rng->UniformInt(-1'000'000, 1'000'000));
    t.set_arrival_time(rng->UniformInt(-1'000'000, 1'000'000));
    t.set_substream(static_cast<int>(rng->UniformInt(-1, 7)));
    tuples.push_back(std::move(t));
  }
  return tuples;
}

TEST(Batch, RoundTripPropertyIsLossless) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 2654435761ULL + 1);
    SchemaPtr schema = RandomSchema(&rng);
    const size_t rows = static_cast<size_t>(rng.UniformInt(1, 64));
    TupleVector tuples = RandomTuples(&rng, schema, rows);

    auto transposed = Batch::FromTuples(tuples);
    ASSERT_TRUE(transposed.ok()) << transposed.status().ToString();
    const Batch& batch = transposed.ValueOrDie();
    ASSERT_EQ(batch.rows(), rows);
    TupleVector back = batch.ToTuples();
    ASSERT_EQ(back.size(), rows);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_TRUE(TupleBitEq(tuples[r], back[r]))
          << "seed " << seed << " row " << r;
    }
  }
}

TEST(Batch, WireRoundTripMatchesTupleFramesByteExactly) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 40503ULL + 17);
    SchemaPtr schema = RandomSchema(&rng);
    const size_t rows = static_cast<size_t>(rng.UniformInt(1, 32));
    TupleVector tuples = RandomTuples(&rng, schema, rows);

    auto transposed = Batch::FromTuples(tuples);
    ASSERT_TRUE(transposed.ok()) << transposed.status().ToString();
    const std::string payload =
        net::EncodeBatchPayload(transposed.ValueOrDie());
    auto decoded = net::DecodeBatchPayload(payload, schema);
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": "
                              << decoded.status().ToString();

    // The decoded batch re-encodes to the identical bytes (the frame
    // has one canonical spelling) ...
    EXPECT_EQ(net::EncodeBatchPayload(decoded.ValueOrDie()), payload)
        << "seed " << seed;
    // ... and its rows serialize to exactly the tuple frames the same
    // stream would have produced without batching.
    TupleVector back = decoded.ValueOrDie().ToTuples();
    ASSERT_EQ(back.size(), rows);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(net::EncodeTuplePayload(back[r]),
                net::EncodeTuplePayload(tuples[r]))
          << "seed " << seed << " row " << r;
    }
  }
}

TEST(Batch, FromTuplesRejectsEmptyAndMixedSchemas) {
  EXPECT_FALSE(Batch::FromTuples(TupleVector{}).ok());

  Rng rng(7);
  SchemaPtr a = RandomSchema(&rng);
  SchemaPtr b = RandomSchema(&rng);
  TupleVector mixed = RandomTuples(&rng, a, 2);
  TupleVector other = RandomTuples(&rng, b, 1);
  mixed.push_back(other.front());
  auto transposed = Batch::FromTuples(mixed);
  ASSERT_FALSE(transposed.ok());
  EXPECT_NE(transposed.status().ToString().find("mixed schemas"),
            std::string::npos);
}

TEST(Batch, ColumnRoutesTypedNullAndDivergentWrites) {
  Column col(ValueType::kDouble);
  col.Append(Value(1.5));
  col.Append(Value::Null());
  col.Append(Value(int64_t{42}));  // diverged runtime type
  ASSERT_EQ(col.rows(), 3u);
  EXPECT_TRUE(col.IsValid(0));
  EXPECT_FALSE(col.IsValid(1));
  EXPECT_FALSE(col.IsValid(2));
  EXPECT_TRUE(BitEq(col.At(0), Value(1.5)));
  EXPECT_TRUE(BitEq(col.At(1), Value::Null()));
  EXPECT_TRUE(BitEq(col.At(2), Value(int64_t{42})));
  ASSERT_EQ(col.divergent().size(), 1u);
  EXPECT_EQ(col.divergent().front().first, 2u);
}

}  // namespace
}  // namespace icewafl
