#include "data/wearable.h"

#include <gtest/gtest.h>

#include "util/regex.h"

namespace icewafl {
namespace data {
namespace {

struct Columns {
  size_t time, bpm, steps, distance, calories, active;
};

Columns Cols(const SchemaPtr& schema) {
  return {schema->IndexOf("Time").ValueOrDie(),
          schema->IndexOf("BPM").ValueOrDie(),
          schema->IndexOf("Steps").ValueOrDie(),
          schema->IndexOf("Distance").ValueOrDie(),
          schema->IndexOf("CaloriesBurned").ValueOrDie(),
          schema->IndexOf("ActiveMinutes").ValueOrDie()};
}

TEST(WearableTest, DefaultCountsMatchPaperScenario) {
  auto stream = GenerateWearable();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const TupleVector& tuples = stream.ValueOrDie();
  ASSERT_EQ(tuples.size(), 1059u);
  const Columns c = Cols(tuples.front().schema());
  const Timestamp update = WearableUpdateTime();

  int post_update = 0;
  int non_zero_distance = 0;
  int bpm_over_100 = 0;
  int not_worn = 0;
  int anomalous = 0;
  for (const Tuple& t : tuples) {
    const Timestamp ts = t.GetTimestamp().ValueOrDie();
    const double bpm = t.value(c.bpm).AsDouble();
    const int64_t steps = t.value(c.steps).AsInt64();
    const double distance = t.value(c.distance).AsDouble();
    const double calories = t.value(c.calories).AsDouble();
    const double active = t.value(c.active).AsDouble();
    if (ts < update) continue;
    ++post_update;
    if (distance > 0.0) ++non_zero_distance;
    if (bpm > 100.0) ++bpm_over_100;
    if (bpm == 0.0 && steps == 0 && distance == 0.0 && calories == 0.0 &&
        active == 0.0) {
      ++not_worn;
    }
    if (bpm == 0.0 && steps > 0) ++anomalous;
  }
  // The exact structural counts that drive Table 1 and Figure 5.
  EXPECT_EQ(post_update, 1056);
  EXPECT_EQ(non_zero_distance, 374);
  EXPECT_EQ(bpm_over_100, 33);
  EXPECT_EQ(not_worn, 96);
  EXPECT_EQ(anomalous, 2);
}

TEST(WearableTest, SpansPaperDuration) {
  const TupleVector tuples = GenerateWearable().ValueOrDie();
  const Timestamp first = tuples.front().GetTimestamp().ValueOrDie();
  const Timestamp last = tuples.back().GetTimestamp().ValueOrDie();
  // 1058 intervals of 15 minutes: 264.5 hours between the first and last
  // tuple, 264.75 h counted inclusively as in the paper.
  EXPECT_EQ(last - first, 1058 * 900);
  // Timestamps strictly increasing at 15-minute granularity.
  for (size_t i = 1; i < tuples.size(); ++i) {
    ASSERT_EQ(tuples[i].GetTimestamp().ValueOrDie() -
                  tuples[i - 1].GetTimestamp().ValueOrDie(),
              900);
  }
}

TEST(WearableTest, WornTuplesHaveThreeDecimalCalories) {
  const TupleVector tuples = GenerateWearable().ValueOrDie();
  const Columns c = Cols(tuples.front().schema());
  const Regex three_decimals = Regex::Compile(R"(\d+\.\d{3})").ValueOrDie();
  int checked = 0;
  for (const Tuple& t : tuples) {
    const double calories = t.value(c.calories).AsDouble();
    if (calories == 0.0) continue;
    const std::string rendered = t.value(c.calories).ToString();
    ASSERT_TRUE(three_decimals.FullMatch(rendered)) << rendered;
    ++checked;
  }
  // 1059 tuples minus 96 not-worn ones have calories with precision 3.
  EXPECT_EQ(checked, 1059 - 96);
}

TEST(WearableTest, ExerciseImpliesActivity) {
  const TupleVector tuples = GenerateWearable().ValueOrDie();
  const Columns c = Cols(tuples.front().schema());
  for (const Tuple& t : tuples) {
    if (t.value(c.bpm).AsDouble() > 100.0) {
      EXPECT_GT(t.value(c.steps).AsInt64(), 0);
      EXPECT_GT(t.value(c.distance).AsDouble(), 0.0);
    }
  }
}

TEST(WearableTest, StepsAlwaysExceedDistanceInKm) {
  // The precondition for the unit-conversion detection: in clean data
  // Steps >= Distance (or both zero).
  const TupleVector tuples = GenerateWearable().ValueOrDie();
  const Columns c = Cols(tuples.front().schema());
  for (const Tuple& t : tuples) {
    EXPECT_GE(static_cast<double>(t.value(c.steps).AsInt64()),
              t.value(c.distance).AsDouble());
  }
}

TEST(WearableTest, DeterministicForSeed) {
  WearableOptions options;
  options.seed = 123;
  const TupleVector a = GenerateWearable(options).ValueOrDie();
  const TupleVector b = GenerateWearable(options).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ValuesEqual(b[i])) << i;
  }
  options.seed = 124;
  const TupleVector other = GenerateWearable(options).ValueOrDie();
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].ValuesEqual(other[i])) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(WearableTest, CountsRemainExactUnderDifferentSeeds) {
  for (uint64_t seed : {1ULL, 99ULL, 31337ULL}) {
    WearableOptions options;
    options.seed = seed;
    const TupleVector tuples = GenerateWearable(options).ValueOrDie();
    const Columns c = Cols(tuples.front().schema());
    int active = 0;
    int exercise = 0;
    for (const Tuple& t : tuples) {
      if (t.value(c.distance).AsDouble() > 0.0) ++active;
      if (t.value(c.bpm).AsDouble() > 100.0) ++exercise;
    }
    EXPECT_EQ(active, 374) << seed;
    EXPECT_EQ(exercise, 33) << seed;
  }
}

TEST(WearableTest, InvalidOptionsRejected) {
  {
    WearableOptions options;
    options.total_tuples = 0;
    EXPECT_FALSE(GenerateWearable(options).ok());
  }
  {
    WearableOptions options;
    options.active_tuples = 100000;
    EXPECT_FALSE(GenerateWearable(options).ok());
  }
  {
    WearableOptions options;
    options.exercise_tuples = options.active_tuples + 1;
    EXPECT_FALSE(GenerateWearable(options).ok());
  }
}

TEST(WearableTest, CustomCountsHonored) {
  WearableOptions options;
  options.total_tuples = 500;
  options.pre_update_tuples = 3;
  options.not_worn_tuples = 40;
  options.active_tuples = 100;
  options.exercise_tuples = 10;
  options.anomalous_tuples = 1;
  const TupleVector tuples = GenerateWearable(options).ValueOrDie();
  ASSERT_EQ(tuples.size(), 500u);
  const Columns c = Cols(tuples.front().schema());
  int active = 0;
  for (const Tuple& t : tuples) {
    if (t.value(c.distance).AsDouble() > 0.0) ++active;
  }
  EXPECT_EQ(active, 100);
}

}  // namespace
}  // namespace data
}  // namespace icewafl
