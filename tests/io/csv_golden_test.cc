// Golden CSV text. The golden determinism digests hash value bit
// patterns, so they cannot see how a double is *written*; these digests
// pin the exact bytes of the CSV the paper's offline path produces for
// two stock streams (recorded with the 17-precision "%.*g" probe
// formatter), and every CSV writer must reproduce them.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/process.h"
#include "data/airquality.h"
#include "data/wearable.h"
#include "io/csv.h"
#include "scenarios/scenarios.h"
#include "stream/source.h"

namespace icewafl {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
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

TEST(CsvGoldenTest, AirQualityOfflinePolluteBytes) {
  const GoldenStream s = AirQualityPolluted();
  const std::string csv = ToCsvString(s.schema, s.polluted);
  EXPECT_EQ(Fnv1a(csv), 0x97dbe24d501264b3ULL) << csv.size() << " bytes";
  ExpectWritersAgree(s, csv, {});
}

TEST(CsvGoldenTest, WearableSoftwareUpdateBytes) {
  const GoldenStream s = WearableSoftwareUpdate();
  const std::string csv = ToCsvString(s.schema, s.polluted);
  EXPECT_EQ(Fnv1a(csv), 0x88e6624418d38a35ULL) << csv.size() << " bytes";
  ExpectWritersAgree(s, csv, {});
  const CsvOptions custom{';', "NULL", false};
  ExpectWritersAgree(s, ToCsvString(s.schema, s.polluted, custom), custom);
}

}  // namespace
}  // namespace icewafl
