#include "data/airquality.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/splits.h"

namespace icewafl {
namespace data {
namespace {

AirQualityOptions SmallOptions(size_t hours = 24 * 40) {
  AirQualityOptions options;
  options.hours = hours;
  return options;
}

TEST(AirQualityTest, SchemaHasEighteenAttributes) {
  SchemaPtr schema = AirQualitySchema();
  EXPECT_EQ(schema->num_attributes(), 18u);
  EXPECT_EQ(schema->timestamp_name(), "timestamp");
  for (const char* name : {"NO2", "TEMP", "PRES", "WSPM", "station", "WD"}) {
    EXPECT_TRUE(schema->Contains(name)) << name;
  }
}

TEST(AirQualityTest, HourlyCadenceAndCalendarColumns) {
  const TupleVector tuples = GenerateAirQuality(SmallOptions(48)).ValueOrDie();
  ASSERT_EQ(tuples.size(), 48u);
  const SchemaPtr& schema = tuples.front().schema();
  const size_t hour_idx = schema->IndexOf("hour").ValueOrDie();
  for (size_t i = 0; i < tuples.size(); ++i) {
    const Timestamp ts = tuples[i].GetTimestamp().ValueOrDie();
    if (i > 0) {
      ASSERT_EQ(ts - tuples[i - 1].GetTimestamp().ValueOrDie(),
                kSecondsPerHour);
    }
    EXPECT_EQ(tuples[i].value(hour_idx).AsInt64(), HourOfDay(ts));
  }
}

TEST(AirQualityTest, ValuesPhysicallyPlausible) {
  const TupleVector tuples = GenerateAirQuality(SmallOptions()).ValueOrDie();
  const SchemaPtr& schema = tuples.front().schema();
  const size_t no2 = schema->IndexOf("NO2").ValueOrDie();
  const size_t temp = schema->IndexOf("TEMP").ValueOrDie();
  const size_t pres = schema->IndexOf("PRES").ValueOrDie();
  const size_t wspm = schema->IndexOf("WSPM").ValueOrDie();
  for (const Tuple& t : tuples) {
    ASSERT_GT(t.value(no2).AsDouble(), 0.0);
    ASSERT_GT(t.value(temp).AsDouble(), -40.0);
    ASSERT_LT(t.value(temp).AsDouble(), 55.0);
    ASSERT_GT(t.value(pres).AsDouble(), 950.0);
    ASSERT_LT(t.value(pres).AsDouble(), 1070.0);
    ASSERT_GT(t.value(wspm).AsDouble(), 0.0);
  }
}

TEST(AirQualityTest, AnnualSeasonalityPresent) {
  AirQualityOptions options;
  options.hours = 35064;
  const TupleVector tuples = GenerateAirQuality(options).ValueOrDie();
  const auto temp = ColumnAsDoubles(tuples, "TEMP").ValueOrDie();
  // The stream starts in March; July (~hour 2950..3670 of year 1) must be
  // much warmer than January (~hour 7350..8060).
  auto mean_range = [&](size_t begin, size_t end) {
    double sum = 0.0;
    for (size_t i = begin; i < end; ++i) sum += temp[i];
    return sum / static_cast<double>(end - begin);
  };
  const double july = mean_range(2950, 3670);
  const double january = mean_range(7350, 8060);
  EXPECT_GT(july - january, 10.0);
}

TEST(AirQualityTest, No2AutocorrelationIsStrong) {
  const TupleVector tuples = GenerateAirQuality(SmallOptions()).ValueOrDie();
  const auto no2 = ColumnAsDoubles(tuples, "NO2").ValueOrDie();
  double mean = 0.0;
  for (double v : no2) mean += v;
  mean /= static_cast<double>(no2.size());
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 1; i < no2.size(); ++i) {
    num += (no2[i] - mean) * (no2[i - 1] - mean);
  }
  for (double v : no2) den += (v - mean) * (v - mean);
  const double lag1 = num / den;
  EXPECT_GT(lag1, 0.5);  // AR(1)-like memory
}

TEST(AirQualityTest, StationsDiffer) {
  AirQualityOptions a = SmallOptions(200);
  a.station = "Gucheng";
  AirQualityOptions b = SmallOptions(200);
  b.station = "Wanliu";
  const auto sa = GenerateAirQuality(a).ValueOrDie();
  const auto sb = GenerateAirQuality(b).ValueOrDie();
  const auto na = ColumnAsDoubles(sa, "NO2").ValueOrDie();
  const auto nb = ColumnAsDoubles(sb, "NO2").ValueOrDie();
  EXPECT_NE(na, nb);
  EXPECT_EQ(sa.front().Get("station").ValueOrDie().AsString(), "Gucheng");
}

TEST(AirQualityTest, UnknownStationGetsStableProfile) {
  const StationProfile p1 = StationProfileFor("SomewhereElse");
  const StationProfile p2 = StationProfileFor("SomewhereElse");
  EXPECT_EQ(p1.seed_offset, p2.seed_offset);
  EXPECT_NE(p1.seed_offset, StationProfileFor("Another").seed_offset);
}

TEST(AirQualityTest, DeterministicForSeed) {
  const auto a = GenerateAirQuality(SmallOptions(100)).ValueOrDie();
  const auto b = GenerateAirQuality(SmallOptions(100)).ValueOrDie();
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ValuesEqual(b[i])) << i;
  }
}

TEST(AirQualityTest, InvalidOptionsRejected) {
  AirQualityOptions zero;
  zero.hours = 0;
  EXPECT_FALSE(GenerateAirQuality(zero).ok());
}

TEST(AirQualityTest, GenerateAllRegionsCoversPaperRegions) {
  AirQualityOptions base = SmallOptions(100);
  auto streams = GenerateAllRegions(base);
  ASSERT_TRUE(streams.ok());
  const auto regions = PaperRegions();
  ASSERT_EQ(streams.ValueOrDie().size(), regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    const TupleVector& stream = streams.ValueOrDie()[i];
    ASSERT_EQ(stream.size(), 100u);
    EXPECT_EQ(stream.front().Get("station").ValueOrDie().AsString(),
              regions[i]);
  }
  // Streams differ across regions.
  EXPECT_NE(ColumnAsDoubles(streams.ValueOrDie()[0], "NO2").ValueOrDie(),
            ColumnAsDoubles(streams.ValueOrDie()[2], "NO2").ValueOrDie());
  // Extraction refuses a series with a gap.
  TupleVector gappy = streams.ValueOrDie()[1];
  ASSERT_TRUE(gappy[50].Set("NO2", Value::Null()).ok());
  EXPECT_FALSE(ColumnAsDoubles(gappy, "NO2").ok());
}

TEST(SplitsTest, TableTwoSemantics) {
  AirQualityOptions options;
  options.hours = 35064;  // four years, like the real dataset
  const TupleVector stream = GenerateAirQuality(options).ValueOrDie();
  const DataSplits splits = SplitByYear(stream).ValueOrDie();
  EXPECT_EQ(splits.train.size(), 8760u - 12u);
  EXPECT_EQ(splits.valid.size(), 12u);
  EXPECT_EQ(splits.eval.size(), 8760u);
  // D_valid directly follows D_train.
  EXPECT_EQ(splits.valid.front().GetTimestamp().ValueOrDie() -
                splits.train.back().GetTimestamp().ValueOrDie(),
            kSecondsPerHour);
  // D_eval is the final year.
  EXPECT_EQ(splits.eval.back().GetTimestamp().ValueOrDie(),
            stream.back().GetTimestamp().ValueOrDie());
}

TEST(SplitsTest, TooShortStreamRejected) {
  const TupleVector stream = GenerateAirQuality(SmallOptions(100)).ValueOrDie();
  EXPECT_FALSE(SplitByYear(stream).ok());
}

TEST(SplitsTest, InvalidOptionsRejected) {
  const TupleVector stream =
      GenerateAirQuality(SmallOptions(200)).ValueOrDie();
  SplitOptions options;
  options.hours_per_year = 50;
  options.valid_hours = 50;
  EXPECT_FALSE(SplitByYear(stream, options).ok());
}

}  // namespace
}  // namespace data
}  // namespace icewafl
