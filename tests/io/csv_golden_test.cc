// Golden CSV text. The golden determinism digests hash value bit
// patterns, so they cannot see how a double is *written*; these digests
// pin the exact bytes of the CSV the paper's offline path produces for
// two stock streams (recorded with the 17-precision "%.*g" probe
// formatter), and every CSV writer must reproduce them. The value
// digests pin what both readers decode from that text (recorded with
// the character-at-a-time scanner and per-field strings).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>

#include "core/process.h"
#include "data/airquality.h"
#include "data/wearable.h"
#include "io/csv.h"
#include "scenarios/scenarios.h"
#include "stream/source.h"

namespace icewafl {
namespace {

uint64_t Fnv1a(std::string_view bytes,
               uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// FNV over what each decoded value is: its type, then its bits (bool,
// int64, double) or its length and bytes (string).
uint64_t ValueDigest(const TupleVector& tuples) {
  uint64_t h = Fnv1a("");
  auto feed = [&h](const void* p, size_t n) {
    h = Fnv1a(std::string_view(static_cast<const char*>(p), n), h);
  };
  for (const Tuple& t : tuples) {
    for (size_t i = 0; i < t.num_values(); ++i) {
      const Value& v = t.value(i);
      const auto type = static_cast<uint8_t>(v.type());
      feed(&type, 1);
      switch (v.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kBool: {
          const uint8_t b = v.AsBool() ? 1 : 0;
          feed(&b, 1);
          break;
        }
        case ValueType::kInt64: {
          const int64_t x = v.AsInt64();
          feed(&x, sizeof(x));
          break;
        }
        case ValueType::kDouble: {
          uint64_t bits = 0;
          const double d = v.AsDouble();
          std::memcpy(&bits, &d, sizeof(bits));
          feed(&bits, sizeof(bits));
          break;
        }
        case ValueType::kString: {
          const uint64_t n = v.AsString().size();
          feed(&n, sizeof(n));
          feed(v.AsString().data(), v.AsString().size());
          break;
        }
      }
    }
  }
  return h;
}

struct GoldenStream {
  SchemaPtr schema;
  TupleVector polluted;
};

// 1,500 hours of the air-quality stream through the offline workload's
// temporal-scale pipeline: 18 attributes, mostly non-integral doubles.
GoldenStream AirQualityPolluted() {
  data::AirQualityOptions options;
  options.hours = 1500;
  options.seed = 77;
  TupleVector clean = data::GenerateAirQuality(options).ValueOrDie();
  SchemaPtr schema = clean.front().schema();
  VectorSource source(schema, std::move(clean));
  PollutionResult result =
      PollutionProcess::Pollute(
          &source,
          scenarios::TemporalScalePipeline(
              scenarios::AirQualityNumericAttributes(), 10.0, 0.1, 24),
          5)
          .ValueOrDie();
  return {schema, std::move(result.polluted)};
}

// The paper's wearable software-update scenario: int64 columns, NULLs,
// and values rounded by the pollution.
GoldenStream WearableSoftwareUpdate() {
  TupleVector clean = data::GenerateWearable().ValueOrDie();
  SchemaPtr schema = clean.front().schema();
  VectorSource source(schema, std::move(clean));
  PollutionResult result =
      PollutionProcess::Pollute(&source, scenarios::SoftwareUpdatePipeline(),
                                9)
          .ValueOrDie();
  return {schema, std::move(result.polluted)};
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// WriteCsvFile renders the same bytes as ToCsvString.
void ExpectWritersAgree(const GoldenStream& s, const std::string& expected,
                        const CsvOptions& options) {
  // Named per test: ctest runs the tests of this file in parallel.
  const std::string path =
      testing::TempDir() + "/icewafl_csv_golden_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  ASSERT_TRUE(WriteCsvFile(s.schema, s.polluted, path, options).ok());
  EXPECT_TRUE(ReadFile(path) == expected) << "WriteCsvFile differs";
  std::remove(path.c_str());
}

// Both readers decode the golden text to the same values, pinned by
// `digest`, and writing those values gives the text back.
void ExpectReadersAgree(const GoldenStream& s, const std::string& csv,
                        uint64_t digest) {
  const std::string path =
      testing::TempDir() + "/icewafl_csv_golden_read_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << csv;
  }
  auto from_string = FromCsvString(s.schema, csv);
  auto from_file = ReadCsvFile(s.schema, path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_string.ok()) << from_string.status().ToString();
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_EQ(ValueDigest(from_string.ValueOrDie()), digest)
      << std::hex << ValueDigest(from_string.ValueOrDie());
  EXPECT_EQ(ValueDigest(from_file.ValueOrDie()), digest)
      << std::hex << ValueDigest(from_file.ValueOrDie());
  EXPECT_TRUE(ToCsvString(s.schema, from_string.ValueOrDie()) == csv)
      << "FromCsvString -> ToCsvString differs";
  EXPECT_TRUE(ToCsvString(s.schema, from_file.ValueOrDie()) == csv)
      << "ReadCsvFile -> ToCsvString differs";
}

TEST(CsvGoldenTest, AirQualityOfflinePolluteBytes) {
  const GoldenStream s = AirQualityPolluted();
  const std::string csv = ToCsvString(s.schema, s.polluted);
  EXPECT_EQ(Fnv1a(csv), 0x97dbe24d501264b3ULL) << csv.size() << " bytes";
  ExpectWritersAgree(s, csv, {});
}

TEST(CsvGoldenTest, AirQualityReadersDecodeGoldenValues) {
  const GoldenStream s = AirQualityPolluted();
  ExpectReadersAgree(s, ToCsvString(s.schema, s.polluted),
                     0xaf397f17003a63d3ULL);
}

TEST(CsvGoldenTest, WearableSoftwareUpdateBytes) {
  const GoldenStream s = WearableSoftwareUpdate();
  const std::string csv = ToCsvString(s.schema, s.polluted);
  EXPECT_EQ(Fnv1a(csv), 0x88e6624418d38a35ULL) << csv.size() << " bytes";
  ExpectWritersAgree(s, csv, {});
  const CsvOptions custom{';', "NULL", false};
  ExpectWritersAgree(s, ToCsvString(s.schema, s.polluted, custom), custom);
}

TEST(CsvGoldenTest, WearableReadersDecodeGoldenValues) {
  const GoldenStream s = WearableSoftwareUpdate();
  ExpectReadersAgree(s, ToCsvString(s.schema, s.polluted),
                     0x98ea418805aaf367ULL);
}

}  // namespace
}  // namespace icewafl
