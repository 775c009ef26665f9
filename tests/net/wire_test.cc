#include "net/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "stream/schema.h"
#include "stream/tuple.h"
#include "util/rng.h"

namespace icewafl {
namespace net {
namespace {

// ---------------------------------------------------------------------
// Bit-exact value comparison (NaN == NaN must hold on the wire).
// ---------------------------------------------------------------------

bool ValuesBitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.AsBool() == b.AsBool();
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble: {
      uint64_t abits = 0, bbits = 0;
      const double ad = a.AsDouble(), bd = b.AsDouble();
      std::memcpy(&abits, &ad, sizeof(abits));
      std::memcpy(&bbits, &bd, sizeof(bbits));
      return abits == bbits;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

// ---------------------------------------------------------------------
// Random generators over the full value domain.
// ---------------------------------------------------------------------

SchemaPtr RandomSchema(Rng* rng) {
  const int n = static_cast<int>(rng->UniformInt(1, 8));
  const int ts = static_cast<int>(rng->UniformInt(0, n - 1));
  std::vector<Attribute> attributes;
  std::string ts_name;
  for (int i = 0; i < n; ++i) {
    Attribute attr;
    attr.name = "attr" + std::to_string(i);
    // Occasionally exercise longer / odd names.
    if (rng->Bernoulli(0.2)) attr.name += std::string(40, 'x') + "\xE2\x82\xAC";
    if (i == ts) {
      attr.type = ValueType::kInt64;  // Schema::Make's timestamp rule
      ts_name = attr.name;
    } else {
      static const ValueType kTypes[] = {ValueType::kBool, ValueType::kInt64,
                                         ValueType::kDouble,
                                         ValueType::kString};
      attr.type = kTypes[rng->UniformInt(0, 3)];
    }
    attributes.push_back(std::move(attr));
  }
  auto schema = Schema::Make(std::move(attributes), ts_name);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return schema.ValueOrDie();
}

Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 9)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(rng->Bernoulli(0.5));
    case 2:
      return Value(static_cast<int64_t>(rng->Next()));
    case 3:
      return Value(std::numeric_limits<int64_t>::min());
    case 4:
      return Value(rng->Uniform(-1e18, 1e18));
    case 5:
      return Value(std::numeric_limits<double>::quiet_NaN());
    case 6: {
      static const double kEdges[] = {
          0.0,
          -0.0,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::lowest()};
      return Value(kEdges[rng->UniformInt(0, 6)]);
    }
    case 7:
      return Value(std::string());  // empty string
    case 8: {
      // Binary-hostile string: embedded NUL, newline, quote, high bytes;
      // lengths past 127 take a two-byte length varint.
      std::string s;
      const int len = static_cast<int>(rng->UniformInt(1, 200));
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->UniformInt(0, 255)));
      }
      return Value(std::move(s));
    }
    default:
      return Value(rng->NextDouble());
  }
}

Tuple RandomTuple(Rng* rng, const SchemaPtr& schema) {
  std::vector<Value> values;
  for (size_t i = 0; i < schema->num_attributes(); ++i) {
    values.push_back(RandomValue(rng));
  }
  Tuple tuple(schema, std::move(values));
  tuple.set_id(rng->Next());
  tuple.set_event_time(static_cast<Timestamp>(rng->Next()));
  tuple.set_arrival_time(static_cast<Timestamp>(rng->Next()));
  tuple.set_substream(rng->Bernoulli(0.3)
                          ? kNoSubstream
                          : static_cast<int>(rng->UniformInt(-1000, 1000)));
  return tuple;
}

void ExpectTuplesEqual(const Tuple& a, const Tuple& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.event_time(), b.event_time());
  EXPECT_EQ(a.arrival_time(), b.arrival_time());
  EXPECT_EQ(a.substream(), b.substream());
  ASSERT_EQ(a.num_values(), b.num_values());
  for (size_t i = 0; i < a.num_values(); ++i) {
    EXPECT_TRUE(ValuesBitEqual(a.value(i), b.value(i)))
        << "value " << i << " diverged";
  }
}

/// A Tuple frame as the generic framing spells it, after `prefix`.
std::string ReferenceTupleFrame(const std::string& prefix, const Tuple& t) {
  std::string out = prefix;
  AppendFrame(kFrameTuple, EncodeTuplePayload(t), &out);
  return out;
}

/// DecodeTupleInto `*target`, checked against a fresh
/// DecodeTuplePayload of the same payload: same Status (code and
/// message), and on success the same row, bound to `schema`.
void ExpectDecodeIntoMatchesFresh(const std::string& payload,
                                  const SchemaPtr& schema, Tuple* target) {
  const Result<Tuple> fresh = DecodeTuplePayload(payload, schema);
  const Status status = DecodeTupleInto(payload, schema, target);
  EXPECT_EQ(status, fresh.status())
      << status.ToString() << " vs " << fresh.status().ToString();
  if (!status.ok() || !fresh.ok()) return;
  EXPECT_EQ(target->schema(), schema);
  ExpectTuplesEqual(*target, fresh.ValueOrDie());
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

TEST(WirePrimitives, VarintRoundTripBoundaries) {
  for (uint64_t v : std::initializer_list<uint64_t>{
           0, 1, 127, 128, 16383, 16384, 0xFFFFFFFF, UINT64_MAX}) {
    std::string buf;
    AppendVarint(v, &buf);
    ByteReader reader(buf);
    auto decoded = reader.Varint();
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.ValueOrDie(), v);
    EXPECT_TRUE(reader.ExpectEnd().ok());
  }
}

TEST(WirePrimitives, ZigzagIsInvolutive) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-2},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  // Small magnitudes of either sign stay in one byte.
  std::string buf;
  AppendVarint(ZigzagEncode(-1), &buf);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WirePrimitives, OverlongVarintRejected) {
  const std::string eleven(11, static_cast<char>(0x80));
  ByteReader reader(eleven);
  EXPECT_FALSE(reader.Varint().ok());
  // Ten continuation bytes with a final byte overflowing 64 bits.
  std::string overflow(9, static_cast<char>(0x80));
  overflow.push_back(0x02);
  ByteReader reader2(overflow);
  EXPECT_FALSE(reader2.Varint().ok());
}

TEST(WirePrimitives, NonCanonicalVarintRejected) {
  // LEB128 admits padded spellings of every value (a redundant
  // continuation byte followed by a zero terminator). The reader used
  // to accept them silently, which broke the one-spelling-per-value
  // contract the canonical re-encode checks rely on. Fixtures cover
  // the overlong forms of 0, 127, 128, and the 2^63 boundary.
  struct Fixture {
    std::string bytes;
    const char* what;
  };
  const Fixture kOverlong[] = {
      {std::string("\x80\x00", 2), "0 padded to two bytes"},
      {std::string("\xFF\x00", 2), "127 padded to two bytes"},
      {std::string("\x80\x81\x00", 3), "128 padded to three bytes"},
      {std::string(9, static_cast<char>(0x80)) + std::string(1, '\x00'),
       "0 padded to the full ten bytes"},
  };
  for (const Fixture& f : kOverlong) {
    ByteReader reader(f.bytes);
    auto result = reader.Varint();
    ASSERT_FALSE(result.ok()) << f.what << " accepted";
    EXPECT_NE(result.status().ToString().find("non-canonical varint"),
              std::string::npos)
        << f.what << ": " << result.status().ToString();
  }
  // 2^63 needs all ten bytes, so its only overlong spelling is eleven
  // bytes — rejected by the length cap before the canonicality check.
  std::string eleven_pow63(10, static_cast<char>(0x80));
  eleven_pow63.push_back(0x01);
  ByteReader reader_pow63(eleven_pow63);
  EXPECT_FALSE(reader_pow63.Varint().ok());
  // The canonical spellings of the same values still decode.
  const std::pair<std::string, uint64_t> kCanonical[] = {
      {std::string(1, '\x00'), 0},
      {std::string(1, '\x7F'), 127},
      {std::string("\x80\x01", 2), 128},
      {std::string(9, static_cast<char>(0x80)) + std::string(1, '\x01'),
       uint64_t{1} << 63},
  };
  for (const auto& [bytes, want] : kCanonical) {
    ByteReader reader3(bytes);
    auto result = reader3.Varint();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie(), want);
  }
}

// ---------------------------------------------------------------------
// 500-seed property round-trip
// ---------------------------------------------------------------------

TEST(WireProperty, FiveHundredSeedRoundTrip) {
  // Every tuple is also decoded into one reused row that crosses every
  // seed's schema switch; every 50th seed moves it out first, and every
  // 7th row is preceded by a failed (truncated) decode into it.
  Tuple reused;
  size_t long_payloads = 0, long_strings = 0, decodes = 0;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    if (seed % 50 == 0) {
      Tuple taken = std::move(reused);  // the target is now moved-from
    }
    Rng rng(seed);
    SchemaPtr schema = RandomSchema(&rng);

    // Schema round-trip is exact.
    auto schema2 = DecodeSchemaPayload(EncodeSchemaPayload(*schema));
    ASSERT_TRUE(schema2.ok()) << "seed " << seed << ": "
                              << schema2.status().ToString();
    EXPECT_TRUE(schema->Equals(*schema2.ValueOrDie())) << "seed " << seed;

    // A small burst of tuples through the framed stream, fed to the
    // decoder in random-sized chunks (exercising resumption mid-frame).
    const int count = static_cast<int>(rng.UniformInt(1, 8));
    std::vector<Tuple> tuples;
    std::string stream = EncodeSchemaFrame(*schema);
    for (int i = 0; i < count; ++i) {
      tuples.push_back(RandomTuple(&rng, schema));
      // The one-pass frame writer appends the generic framing's bytes.
      const std::string before = stream;
      AppendTupleFrame(tuples.back(), &stream);
      ASSERT_EQ(stream, ReferenceTupleFrame(before, tuples.back()))
          << "seed " << seed;
      const size_t payload_bytes = EncodeTuplePayload(tuples.back()).size();
      long_payloads += payload_bytes >= 128 ? 1 : 0;
      for (const Value& v : tuples.back().values()) {
        long_strings += v.is_string() && v.AsString().size() >= 128 ? 1 : 0;
      }
    }
    stream += EncodeEndFrame(static_cast<uint64_t>(count));

    FrameDecoder decoder;
    size_t fed = 0;
    std::vector<Tuple> decoded;
    uint64_t end_total = 0;
    bool saw_schema = false, saw_end = false;
    while (true) {
      uint8_t type = 0;
      std::string_view payload;
      auto next = decoder.Next(&type, &payload);
      ASSERT_TRUE(next.ok()) << "seed " << seed << ": "
                             << next.status().ToString();
      if (!next.ValueOrDie()) {
        if (fed >= stream.size()) break;  // nothing more to feed
        const size_t chunk = static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(stream.size() - fed)));
        decoder.Feed(stream.data() + fed, chunk);
        fed += chunk;
        continue;
      }
      if (type == kFrameSchema) {
        saw_schema = true;
      } else if (type == kFrameTuple) {
        auto tuple = DecodeTuplePayload(payload, schema);
        ASSERT_TRUE(tuple.ok()) << "seed " << seed << ": "
                                << tuple.status().ToString();
        const std::string bytes(payload);
        if (++decodes % 7 == 0) {
          ExpectDecodeIntoMatchesFresh(bytes.substr(0, bytes.size() / 2),
                                       schema, &reused);
        }
        ExpectDecodeIntoMatchesFresh(bytes, schema, &reused);
        decoded.push_back(std::move(tuple).ValueOrDie());
      } else if (type == kFrameEnd) {
        auto total = DecodeEndPayload(payload);
        ASSERT_TRUE(total.ok());
        end_total = total.ValueOrDie();
        saw_end = true;
      }
    }
    EXPECT_TRUE(saw_schema);
    EXPECT_TRUE(saw_end);
    EXPECT_EQ(end_total, static_cast<uint64_t>(count));
    ASSERT_EQ(decoded.size(), tuples.size()) << "seed " << seed;
    for (size_t i = 0; i < tuples.size(); ++i) {
      ExpectTuplesEqual(tuples[i], decoded[i]);
    }
    EXPECT_EQ(decoder.buffered(), 0u) << "seed " << seed;
  }
  // The rows reach two-byte length varints in both places.
  EXPECT_GT(long_payloads, 0u);
  EXPECT_GT(long_strings, 0u);
}

TEST(WireProperty, ReusedRowFollowsEverySlotTypeChange) {
  // Slot i of row r holds kCycle[(r + i) % 5], so every slot steps
  // through double -> string -> NULL -> bool -> int64 and back, with
  // strings short and long. The sequence switches schema (same arity
  // and a wider one), decodes into a moved-from row, and decodes
  // right after a failed decode.
  static const ValueType kCycle[] = {ValueType::kDouble, ValueType::kString,
                                     ValueType::kNull, ValueType::kBool,
                                     ValueType::kInt64};
  auto make_schema = [](size_t width, const std::string& tag) {
    std::vector<Attribute> attributes = {{"ts", ValueType::kInt64}};
    for (size_t i = 0; i < width; ++i) {
      attributes.push_back({tag + std::to_string(i), ValueType::kDouble});
    }
    return Schema::Make(std::move(attributes), "ts").ValueOrDie();
  };
  const SchemaPtr narrow = make_schema(4, "a");
  const SchemaPtr twin = make_schema(4, "b");  // same arity, other schema
  const SchemaPtr wide = make_schema(6, "c");
  Rng rng(33);
  auto make_row = [&](const SchemaPtr& schema, int r) {
    std::vector<Value> values = {Value(static_cast<int64_t>(r))};
    for (size_t i = 1; i < schema->num_attributes(); ++i) {
      switch (kCycle[(static_cast<size_t>(r) + i) % 5]) {
        case ValueType::kDouble:
          values.push_back(Value(rng.Uniform(-1e6, 1e6)));
          break;
        case ValueType::kString:
          values.push_back(Value(std::string(
              static_cast<size_t>(rng.UniformInt(0, 300)),
              static_cast<char>('a' + r % 26))));
          break;
        case ValueType::kNull:
          values.push_back(Value::Null());
          break;
        case ValueType::kBool:
          values.push_back(Value(rng.Bernoulli(0.5)));
          break;
        case ValueType::kInt64:
          values.push_back(Value(static_cast<int64_t>(rng.Next())));
          break;
      }
    }
    Tuple tuple(schema, std::move(values));
    tuple.set_id(static_cast<TupleId>(r));
    tuple.set_event_time(r * 60);
    tuple.set_arrival_time(r * 60 + 5);
    tuple.set_substream(r % 3 - 1);
    return EncodeTuplePayload(tuple);
  };
  Tuple reused;
  for (int r = 0; r < 40; ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    const SchemaPtr& schema = r < 12 ? narrow : r < 24 ? twin : wide;
    if (r == 30) {
      Tuple taken = std::move(reused);  // the target is now moved-from
    }
    const std::string payload = make_row(schema, r);
    if (r % 9 == 4) {
      // A failed decode (trailing byte) leaves a half-written row behind.
      ExpectDecodeIntoMatchesFresh(payload + "x", schema, &reused);
    }
    ExpectDecodeIntoMatchesFresh(payload, schema, &reused);
  }
}

// ---------------------------------------------------------------------
// Truncation: every proper prefix decodes to "need more", never error.
// ---------------------------------------------------------------------

TEST(WireFuzz, EveryFramePrefixWaitsForMoreBytes) {
  Rng rng(7);
  SchemaPtr schema = RandomSchema(&rng);
  const std::string frame = EncodeTupleFrame(RandomTuple(&rng, schema));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(frame.data(), cut);
    uint8_t type = 0;
    std::string_view payload;
    auto next = decoder.Next(&type, &payload);
    ASSERT_TRUE(next.ok()) << "prefix of " << cut << " bytes errored: "
                           << next.status().ToString();
    EXPECT_FALSE(next.ValueOrDie()) << "prefix of " << cut
                                    << " bytes produced a frame";
  }
}

TEST(WireFuzz, TruncatedPayloadsReturnStatus) {
  Rng rng(11);
  SchemaPtr schema = RandomSchema(&rng);
  const std::string schema_payload = EncodeSchemaPayload(*schema);
  const std::string tuple_payload =
      EncodeTuplePayload(RandomTuple(&rng, schema));
  for (size_t cut = 0; cut < schema_payload.size(); ++cut) {
    auto result = DecodeSchemaPayload(schema_payload.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "schema prefix " << cut << " accepted";
  }
  for (size_t cut = 0; cut < tuple_payload.size(); ++cut) {
    auto result = DecodeTuplePayload(tuple_payload.substr(0, cut), schema);
    EXPECT_FALSE(result.ok()) << "tuple prefix " << cut << " accepted";
  }
}

// ---------------------------------------------------------------------
// Corruption: hostile headers and payloads are Status, never a crash.
// ---------------------------------------------------------------------

TEST(WireFuzz, OversizedFrameLengthRejectedBeforeAllocation) {
  std::string frame;
  frame.push_back(static_cast<char>(kFrameTuple));
  AppendVarint(kMaxFramePayload + 1, &frame);
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  EXPECT_FALSE(decoder.Next(&type, &payload).ok());
}

TEST(WireFuzz, OverlongFrameLengthVarintRejected) {
  std::string frame;
  frame.push_back(static_cast<char>(kFrameTuple));
  frame.append(9, static_cast<char>(0x80));
  frame.push_back(0x02);  // 10th byte overflows 64 bits
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  EXPECT_FALSE(decoder.Next(&type, &payload).ok());
}

TEST(WireFuzz, NonCanonicalFrameLengthVarintRejected) {
  // A payload length of 1 spelled as [0x81 0x00] instead of [0x01]:
  // the stream-level length field obeys the same canonicality rule as
  // every in-payload varint.
  std::string frame;
  frame.push_back(static_cast<char>(kFrameTuple));
  frame.push_back(static_cast<char>(0x81));
  frame.push_back(0x00);
  frame.push_back('x');  // the one payload byte the length promises
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  auto next = decoder.Next(&type, &payload);
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().ToString().find("non-canonical varint"),
            std::string::npos)
      << next.status().ToString();
}

TEST(WireFuzz, CorruptTuplePayloadsReturnStatus) {
  Rng rng(13);
  SchemaPtr schema = RandomSchema(&rng);
  const std::string good = EncodeTuplePayload(RandomTuple(&rng, schema));
  // Each corrupt payload below is also decoded in place, through a fresh
  // target and through one reused across them (last holding `good`):
  // both give DecodeTuplePayload's code and message.
  std::vector<std::string> corrupt;

  // Unknown value tag.
  {
    std::string bad = good;
    bad[8 * 3 + 2] = static_cast<char>(0xEE);  // first value's type tag area
    auto result = DecodeTuplePayload(bad, schema);
    // Either a tag error or a downstream length error — must not crash
    // and must not silently succeed with different bytes unless the
    // mutation happened to hit a string byte. Round-trip what decodes.
    if (result.ok()) {
      EXPECT_EQ(EncodeTuplePayload(result.ValueOrDie()).size(), bad.size());
    }
    corrupt.push_back(bad);
  }
  // Value-count mismatch against the schema arity.
  {
    std::string bad;
    AppendFixed64(1, &bad);
    AppendFixed64(2, &bad);
    AppendFixed64(3, &bad);
    AppendVarint(ZigzagEncode(kNoSubstream), &bad);
    AppendVarint(schema->num_attributes() + 1, &bad);
    EXPECT_FALSE(DecodeTuplePayload(bad, schema).ok());
    corrupt.push_back(bad);
  }
  // Bool byte out of domain.
  {
    std::string bad;
    AppendFixed64(1, &bad);
    AppendFixed64(2, &bad);
    AppendFixed64(3, &bad);
    AppendVarint(ZigzagEncode(0), &bad);
    AppendVarint(schema->num_attributes(), &bad);
    for (size_t i = 0; i < schema->num_attributes(); ++i) {
      bad.push_back(static_cast<char>(ValueType::kBool));
      bad.push_back(2);  // not 0/1
    }
    EXPECT_FALSE(DecodeTuplePayload(bad, schema).ok());
    corrupt.push_back(bad);
  }
  // String length pointing past the payload end.
  {
    std::string bad;
    AppendFixed64(1, &bad);
    AppendFixed64(2, &bad);
    AppendFixed64(3, &bad);
    AppendVarint(ZigzagEncode(0), &bad);
    AppendVarint(schema->num_attributes(), &bad);
    bad.push_back(static_cast<char>(ValueType::kString));
    AppendVarint(1 << 30, &bad);
    EXPECT_FALSE(DecodeTuplePayload(bad, schema).ok());
    corrupt.push_back(bad);
  }
  // Trailing garbage after a well-formed tuple.
  {
    std::string bad = good + "garbage";
    EXPECT_FALSE(DecodeTuplePayload(bad, schema).ok());
    corrupt.push_back(bad);
  }
  // Sub-stream id beyond int32, checked after every value was read.
  {
    std::string bad;
    AppendFixed64(1, &bad);
    AppendFixed64(2, &bad);
    AppendFixed64(3, &bad);
    AppendVarint(ZigzagEncode(int64_t{1} << 40), &bad);
    AppendVarint(schema->num_attributes(), &bad);
    for (size_t i = 0; i < schema->num_attributes(); ++i) {
      bad.push_back(static_cast<char>(ValueType::kNull));
    }
    auto result = DecodeTuplePayload(bad, schema);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), "wire: substream id out of range");
    corrupt.push_back(bad);
  }
  // Every proper prefix of the good payload.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    corrupt.push_back(good.substr(0, cut));
  }
  Tuple reused;
  for (size_t k = 0; k < corrupt.size(); ++k) {
    SCOPED_TRACE("corrupt payload " + std::to_string(k));
    Tuple fresh;
    ExpectDecodeIntoMatchesFresh(corrupt[k], schema, &fresh);
    ExpectDecodeIntoMatchesFresh(good, schema, &reused);
    ExpectDecodeIntoMatchesFresh(corrupt[k], schema, &reused);
  }
  // A null schema is the caller's error, before any byte is read.
  Tuple target;
  EXPECT_EQ(DecodeTupleInto(good, nullptr, &target).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireFuzz, CorruptSchemaPayloadsReturnStatus) {
  // Attribute count far beyond the payload.
  {
    std::string bad;
    AppendVarint(1u << 20, &bad);
    EXPECT_FALSE(DecodeSchemaPayload(bad).ok());
  }
  // Timestamp index out of range.
  {
    std::string bad;
    AppendVarint(1, &bad);
    AppendVarint(1, &bad);
    bad += "a";
    bad.push_back(static_cast<char>(ValueType::kInt64));
    AppendVarint(7, &bad);  // only one attribute
    EXPECT_FALSE(DecodeSchemaPayload(bad).ok());
  }
  // Unknown attribute type tag.
  {
    std::string bad;
    AppendVarint(1, &bad);
    AppendVarint(1, &bad);
    bad += "a";
    bad.push_back(99);
    AppendVarint(0, &bad);
    EXPECT_FALSE(DecodeSchemaPayload(bad).ok());
  }
  // Timestamp attribute of non-int64 type (Schema::Make's rule).
  {
    std::string bad;
    AppendVarint(1, &bad);
    AppendVarint(1, &bad);
    bad += "a";
    bad.push_back(static_cast<char>(ValueType::kString));
    AppendVarint(0, &bad);
    EXPECT_FALSE(DecodeSchemaPayload(bad).ok());
  }
  // Random byte soup: decoding must be total (error or schema, no crash).
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    std::string soup;
    const int len = static_cast<int>(rng.UniformInt(0, 64));
    for (int j = 0; j < len; ++j) {
      soup.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    (void)DecodeSchemaPayload(soup);
    SchemaPtr schema = RandomSchema(&rng);
    (void)DecodeTuplePayload(soup, schema);
  }
}

TEST(WireFuzz, EndPayloadRejectsTruncationAndTrailingBytes) {
  std::string good;
  AppendVarint(123456789, &good);
  auto total = DecodeEndPayload(good);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.ValueOrDie(), 123456789u);
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeEndPayload(good.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes accepted";
  }
  // Bytes after the total were silently ignored before the decoder
  // audit; they are a ParseError now, like every other frame type.
  EXPECT_FALSE(DecodeEndPayload(good + "x").ok());
  EXPECT_FALSE(DecodeEndPayload(std::string("\x80\x00", 2)).ok());
}

TEST(WireFuzz, CorruptBatchPayloadsReturnStatus) {
  auto schema =
      Schema::Make({{"ts", ValueType::kInt64}, {"v", ValueType::kInt64}},
                   "ts")
          .ValueOrDie();
  // Hand-built single-row payload so each strictness rule can be
  // violated in isolation. Layout: row_count, ids, event/arrival
  // times, substreams, column count, then per-column blobs of
  // [tag, validity bits, slots, divergent entries].
  auto make_payload = [&](const std::string& v_blob) {
    std::string payload;
    AppendVarint(1, &payload);                   // row_count
    AppendFixed64(7, &payload);                  // id
    AppendFixed64(100, &payload);                // event time
    AppendFixed64(200, &payload);                // arrival time
    AppendVarint(ZigzagEncode(kNoSubstream), &payload);
    AppendVarint(2, &payload);                   // column count
    std::string ts_blob;
    ts_blob.push_back(static_cast<char>(ValueType::kInt64));
    ts_blob.push_back(0x01);                     // row 0 valid
    AppendFixed64(100, &ts_blob);
    AppendVarint(0, &ts_blob);                   // no divergents
    AppendVarint(ts_blob.size(), &payload);
    payload += ts_blob;
    AppendVarint(v_blob.size(), &payload);
    payload += v_blob;
    return payload;
  };
  auto int64_blob = [](uint8_t vbits, int64_t slot) {
    std::string blob;
    blob.push_back(static_cast<char>(ValueType::kInt64));
    blob.push_back(static_cast<char>(vbits));
    AppendFixed64(static_cast<uint64_t>(slot), &blob);
    AppendVarint(0, &blob);
    return blob;
  };
  auto expect_error = [&](const std::string& payload, const char* needle) {
    auto result = DecodeBatchPayload(payload, schema);
    ASSERT_FALSE(result.ok()) << "expected '" << needle << "'";
    EXPECT_NE(result.status().ToString().find(needle), std::string::npos)
        << result.status().ToString();
  };

  // The well-formed baseline decodes and re-encodes byte-identically.
  const std::string good = make_payload(int64_blob(0x01, 42));
  {
    auto batch = DecodeBatchPayload(good, schema);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(EncodeBatchPayload(batch.ValueOrDie()), good);
  }
  // Truncation: every proper prefix is an error, never an accept.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeBatchPayload(good.substr(0, cut), schema).ok())
        << "prefix of " << cut << " bytes accepted";
  }
  // Trailing bytes after the last column blob.
  expect_error(good + "x", "trailing payload byte");
  // Row count beyond what the payload could hold, rejected before any
  // allocation.
  {
    std::string bad;
    AppendVarint(uint64_t{1} << 40, &bad);
    expect_error(bad, "row count exceeds payload");
  }
  // Column count disagreeing with the schema arity.
  {
    auto narrow = Schema::Make({{"ts", ValueType::kInt64}}, "ts").ValueOrDie();
    auto result = DecodeBatchPayload(good, narrow);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().ToString().find("columns"), std::string::npos);
  }
  // Column type tag disagreeing with the schema.
  {
    auto retyped =
        Schema::Make({{"ts", ValueType::kInt64}, {"v", ValueType::kDouble}},
                     "ts")
            .ValueOrDie();
    auto result = DecodeBatchPayload(good, retyped);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().ToString().find("type tag"), std::string::npos);
  }
  // Validity bits set past the row count.
  expect_error(make_payload(int64_blob(0x02, 0)),
               "non-zero trailing validity bits");
  // A non-zero typed slot for a row marked invalid (two spellings of
  // the same logical column would otherwise round-trip differently).
  expect_error(make_payload(int64_blob(0x00, 42)),
               "non-zero slot for invalid row");
  // Divergent row index past the batch.
  {
    std::string blob = int64_blob(0x00, 0);
    blob.back() = 0x01;  // divergent count 1
    AppendVarint(5, &blob);
    blob.push_back(static_cast<char>(ValueType::kBool));
    blob.push_back(1);
    expect_error(make_payload(blob), "divergent row out of range");
  }
  // Divergent entry naming a row the validity bitmap already covers.
  {
    std::string blob = int64_blob(0x01, 42);
    blob.back() = 0x01;
    AppendVarint(0, &blob);
    blob.push_back(static_cast<char>(ValueType::kBool));
    blob.push_back(1);
    expect_error(make_payload(blob), "divergent entry for valid row");
  }
  // A "divergent" value of the column's own declared type.
  {
    std::string blob = int64_blob(0x00, 0);
    blob.back() = 0x01;
    AppendVarint(0, &blob);
    blob.push_back(static_cast<char>(ValueType::kInt64));
    AppendFixed64(9, &blob);
    expect_error(make_payload(blob), "does not diverge");
  }
  // Unconsumed bytes inside a column blob.
  {
    std::string blob = int64_blob(0x01, 42);
    blob.push_back('x');
    expect_error(make_payload(blob), "trailing payload byte");
  }
}

TEST(WireFuzz, MutatedBatchPayloadsRejectOrStayCanonical) {
  // Single-byte corruptions of a real batch payload must either fail
  // to decode or decode to a batch whose canonical re-encode is the
  // corrupted spelling itself — i.e. there is exactly one accepted
  // spelling per batch, so served frame bytes are reproducible.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SchemaPtr schema = RandomSchema(&rng);
    TupleVector tuples;
    const int rows = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < rows; ++i) {
      tuples.push_back(RandomTuple(&rng, schema));
    }
    auto batch = Batch::FromTuples(tuples);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const std::string payload = EncodeBatchPayload(batch.ValueOrDie());
    for (size_t pos = 0; pos < payload.size(); ++pos) {
      for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xFF}}) {
        std::string mutated = payload;
        mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
        auto decoded = DecodeBatchPayload(mutated, schema);
        if (decoded.ok()) {
          EXPECT_EQ(EncodeBatchPayload(decoded.ValueOrDie()), mutated)
              << "seed " << seed << " byte " << pos << " flip "
              << static_cast<int>(flip)
              << ": accepted a non-canonical spelling";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Subscribe hello (wire version 2)
// ---------------------------------------------------------------------

TEST(WireFrames, SubscribeRoundTrip) {
  for (const std::string& id :
       {std::string(""), std::string("alpha"),
        std::string("weird \xE2\x82\xAC id with spaces"),
        std::string(kMaxSessionIdBytes, 's')}) {
    const std::string frame = EncodeSubscribeFrame(kWireVersion, id);
    FrameDecoder decoder;
    decoder.Feed(frame.data(), frame.size());
    uint8_t type = 0;
    std::string_view payload;
    auto next = decoder.Next(&type, &payload);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.ValueOrDie());
    EXPECT_EQ(type, kFrameSubscribe);
    auto request = DecodeSubscribePayload(payload);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(request.ValueOrDie().version, kWireVersion);
    EXPECT_EQ(request.ValueOrDie().session_id, id);
  }
}

TEST(WireFrames, SubscribeRejectsOversizedSessionId) {
  const std::string payload = EncodeSubscribePayload(
      kWireVersion, std::string(kMaxSessionIdBytes + 1, 's'));
  auto request = DecodeSubscribePayload(payload);
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().ToString().find("exceeds limit"),
            std::string::npos)
      << request.status().ToString();
}

TEST(WireFrames, SubscribeRejectsTruncatedAndTrailingPayloads) {
  const std::string good = EncodeSubscribePayload(kWireVersion, "alpha");
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeSubscribePayload(good.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes accepted";
  }
  // A single trailing varint is the optional capabilities field, not
  // garbage: "x" (0x78) decodes as capabilities = 0x78.
  {
    auto request = DecodeSubscribePayload(good + "x");
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(request.ValueOrDie().capabilities, 0x78u);
  }
  // Anything after the capabilities field is trailing garbage again.
  const std::string with_caps =
      EncodeSubscribePayload(kWireVersion, "alpha", kCapBatchFrames);
  EXPECT_FALSE(DecodeSubscribePayload(with_caps + "x").ok());
  // A truncated multi-byte capabilities varint is rejected, as is a
  // non-canonical one.
  EXPECT_FALSE(DecodeSubscribePayload(good + std::string("\x80", 1)).ok());
  EXPECT_FALSE(DecodeSubscribePayload(good + std::string("\x80\x00", 2)).ok());
}

TEST(WireFrames, SubscribeCapabilitiesRoundTrip) {
  // Default capabilities stay off the wire (old servers see old bytes).
  EXPECT_EQ(EncodeSubscribePayload(kWireVersion, "alpha"),
            EncodeSubscribePayload(kWireVersion, "alpha", 0));
  const std::string payload =
      EncodeSubscribePayload(kWireVersion, "alpha", kCapBatchFrames);
  auto request = DecodeSubscribePayload(payload);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.ValueOrDie().version, kWireVersion);
  EXPECT_EQ(request.ValueOrDie().session_id, "alpha");
  EXPECT_EQ(request.ValueOrDie().capabilities, kCapBatchFrames);
}

TEST(WireFrames, ErrorFrameCarriesMessage) {
  const std::string frame = EncodeErrorFrame("boom");
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  auto next = decoder.Next(&type, &payload);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.ValueOrDie());
  EXPECT_EQ(type, kFrameError);
  EXPECT_EQ(payload, "boom");
}

}  // namespace
}  // namespace net
}  // namespace icewafl
