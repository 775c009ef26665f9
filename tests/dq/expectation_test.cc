#include "dq/expectation.h"

#include <gtest/gtest.h>

namespace icewafl {
namespace dq {
namespace {

SchemaPtr WearableLikeSchema() {
  return Schema::Make({{"Time", ValueType::kInt64},
                       {"BPM", ValueType::kDouble},
                       {"Steps", ValueType::kInt64},
                       {"Distance", ValueType::kDouble},
                       {"Calories", ValueType::kDouble}},
                      "Time")
      .ValueOrDie();
}

Tuple Row(const SchemaPtr& schema, int minute15, Value bpm, int64_t steps,
          Value distance, double calories) {
  const Timestamp ts =
      TimestampFromCivil({2016, 2, 27, 0, 0, 0}) + minute15 * 900;
  Tuple t(schema, {Value(ts), std::move(bpm), Value(steps),
                   std::move(distance), Value(calories)});
  t.set_id(static_cast<TupleId>(minute15));
  t.set_event_time(ts);
  return t;
}

TEST(NotNullExpectationTest, CountsNulls) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 100, Value(0.1), 5.0));
  tuples.push_back(Row(schema, 1, Value::Null(), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 2, Value(72.0), 50, Value::Null(), 2.0));
  ExpectColumnValuesToNotBeNull expectation("BPM");
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().evaluated, 3u);
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_FALSE(r.ValueOrDie().success);
  ASSERT_EQ(r.ValueOrDie().failures.size(), 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(NotNullExpectationTest, CleanColumnSucceeds) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 100, Value(0.1), 5.0));
  ExpectColumnValuesToNotBeNull expectation("BPM");
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().success);
  EXPECT_EQ(r.ValueOrDie().unexpected, 0u);
}

TEST(NullExpectationTest, InverseOfNotNull) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value::Null(), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 1, Value(70.0), 0, Value(0.0), 0.0));
  ExpectColumnValuesToBeNull expectation("BPM");
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(BetweenExpectationTest, FlagsOutOfRangeSkipsNulls) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 1, Value(250.0), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 2, Value::Null(), 0, Value(0.0), 0.0));
  ExpectColumnValuesToBeBetween expectation("BPM", 30.0, 220.0);
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().evaluated, 2u);  // NULL skipped
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(BetweenExpectationTest, BoundsInclusive) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(30.0), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 1, Value(220.0), 0, Value(0.0), 0.0));
  ExpectColumnValuesToBeBetween expectation("BPM", 30.0, 220.0);
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().success);
}

TEST(RegexExpectationTest, DetectsReducedPrecision) {
  // The software-update scenario: valid CaloriesBurned are 0 or have
  // exactly three decimal places; a round-to-2 polluter breaks that.
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 5.123));
  tuples.push_back(Row(schema, 1, Value(70.0), 0, Value(0.0), 5.12));
  tuples.push_back(Row(schema, 2, Value(70.0), 0, Value(0.0), 0.0));
  ExpectColumnValuesToMatchRegex expectation(
      "Calories", Regex::Compile(R"(0|\d+\.\d{3,})").ValueOrDie());
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(RegexExpectationTest, MatchesWholeValue) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 12.5));
  ExpectColumnValuesToMatchRegex expectation(
      "Calories", Regex::Compile(R"(\d+)").ValueOrDie());
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  // "12.5" does not fully match \d+.
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
}

TEST(IncreasingExpectationTest, DetectsDelayedTuples) {
  // A delayed tuple appears late in the stream: its Time attribute breaks
  // the strictly increasing order (Experiment 3.1.3 detection).
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 2, Value(70.0), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 1, Value(70.0), 0, Value(0.0), 0.0));  // late
  tuples.push_back(Row(schema, 3, Value(70.0), 0, Value(0.0), 0.0));
  ExpectColumnValuesToBeIncreasing expectation("Time");
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(IncreasingExpectationTest, StrictVsNonStrict) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 0.0));  // tie
  ExpectColumnValuesToBeIncreasing strict("Time", true);
  ExpectColumnValuesToBeIncreasing lax("Time", false);
  EXPECT_EQ(strict.Validate(tuples).ValueOrDie().unexpected, 1u);
  EXPECT_EQ(lax.Validate(tuples).ValueOrDie().unexpected, 0u);
}

TEST(IncreasingExpectationTest, ConsecutiveInversionsEachFlagged) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  for (int i : {5, 4, 3, 6}) {
    tuples.push_back(Row(schema, i, Value(70.0), 0, Value(0.0), 0.0));
  }
  ExpectColumnValuesToBeIncreasing expectation("Time");
  EXPECT_EQ(expectation.Validate(tuples).ValueOrDie().unexpected, 2u);
}

TEST(PairGreaterExpectationTest, DetectsUnitConversion) {
  // Clean: Steps >= Distance (km). After km->cm, Distance explodes.
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 1000, Value(0.8), 0.0));
  tuples.push_back(Row(schema, 1, Value(70.0), 1000, Value(80000.0), 0.0));
  tuples.push_back(Row(schema, 2, Value(70.0), 0, Value(0.0), 0.0));
  ExpectColumnPairValuesAToBeGreaterThanB expectation("Steps", "Distance",
                                                      /*or_equal=*/true);
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(PairGreaterExpectationTest, StrictModeFlagsTies) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 0.0));
  ExpectColumnPairValuesAToBeGreaterThanB strict("Steps", "Distance", false);
  EXPECT_EQ(strict.Validate(tuples).ValueOrDie().unexpected, 1u);
}

TEST(PairGreaterExpectationTest, NullPairsSkipped) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 10, Value::Null(), 0.0));
  ExpectColumnPairValuesAToBeGreaterThanB expectation("Steps", "Distance",
                                                      true);
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().evaluated, 0u);
  EXPECT_TRUE(r.ValueOrDie().success);
}

TEST(MulticolumnSumExpectationTest, DetectsZeroedBpmWithActivity) {
  // "BPM == 0 while the tracker shows movement" — the detector for the
  // BPM-set-to-0 polluter. The suite validates sum(Steps, Distance) == 0
  // over tuples where BPM is 0 by filtering beforehand.
  SchemaPtr schema = WearableLikeSchema();
  TupleVector bpm_zero_tuples;
  // Legit: not worn.
  bpm_zero_tuples.push_back(Row(schema, 0, Value(0.0), 0, Value(0.0), 0.0));
  // Polluted: BPM zeroed during exercise.
  bpm_zero_tuples.push_back(
      Row(schema, 1, Value(0.0), 2000, Value(1.5), 50.0));
  ExpectMulticolumnSumToEqual expectation({"Steps", "Distance"}, 0.0);
  auto r = expectation.Validate(bpm_zero_tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(MulticolumnSumExpectationTest, RowConditionRestrictsEvaluation) {
  // The paper's exact setup: sum(ActiveMinutes, Distance, Steps) == 0 is
  // only expected for tuples whose BPM is 0.
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(0.0), 0, Value(0.0), 0.0));    // ok
  tuples.push_back(Row(schema, 1, Value(0.0), 2000, Value(1.5), 0.0)); // bad
  tuples.push_back(Row(schema, 2, Value(80.0), 2000, Value(1.5), 0.0)); // skip
  tuples.push_back(Row(schema, 3, Value::Null(), 500, Value(0.3), 0.0)); // skip
  ExpectMulticolumnSumToEqual expectation({"Steps", "Distance"}, 0.0);
  expectation.WhereColumnEquals("BPM", 0.0);
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().evaluated, 2u);
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(MulticolumnSumExpectationTest, ToleranceAndNullSkip) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(1.0), 2, Value(3.0), 0.0));
  tuples.push_back(Row(schema, 1, Value::Null(), 2, Value(3.0), 0.0));
  ExpectMulticolumnSumToEqual expectation({"BPM", "Steps", "Distance"}, 6.0,
                                          0.5);
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().evaluated, 1u);  // NULL row skipped
  EXPECT_TRUE(r.ValueOrDie().success);
}

TEST(InSetExpectationTest, FlagsUnknownCategories) {
  SchemaPtr schema =
      Schema::Make({{"ts", ValueType::kInt64}, {"wd", ValueType::kString}},
                   "ts")
          .ValueOrDie();
  TupleVector tuples;
  tuples.emplace_back(schema, std::vector<Value>{Value(int64_t{0}),
                                                 Value("N")});
  tuples.emplace_back(schema, std::vector<Value>{Value(int64_t{1}),
                                                 Value("XX")});
  ExpectColumnValuesToBeInSet expectation("wd", {"N", "S", "E", "W"});
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
}

TEST(UniqueExpectationTest, FlagsSecondOccurrence) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(1.0), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 1, Value(2.0), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 2, Value(1.0), 0, Value(0.0), 0.0));
  ExpectColumnValuesToBeUnique expectation("BPM");
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 2u);
}

TEST(MeanExpectationTest, ObservedValueAndBounds) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  for (double v : {10.0, 20.0, 30.0}) {
    tuples.push_back(Row(schema, static_cast<int>(v), Value(v), 0,
                         Value(0.0), 0.0));
  }
  ExpectColumnMeanToBeBetween good("BPM", 15.0, 25.0);
  auto r = good.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().success);
  EXPECT_DOUBLE_EQ(r.ValueOrDie().observed, 20.0);
  ExpectColumnMeanToBeBetween bad("BPM", 0.0, 15.0);
  EXPECT_FALSE(bad.Validate(tuples).ValueOrDie().success);
}

TEST(StdevExpectationTest, DetectsInjectedNoise) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector quiet;
  TupleVector noisy;
  for (int i = 0; i < 100; ++i) {
    quiet.push_back(Row(schema, i, Value(50.0 + (i % 3)), 0, Value(0.0), 0.0));
    noisy.push_back(
        Row(schema, i, Value(50.0 + (i % 2 == 0 ? 40.0 : -40.0)), 0,
            Value(0.0), 0.0));
  }
  ExpectColumnStdevToBeBetween expectation("BPM", 0.0, 5.0);
  EXPECT_TRUE(expectation.Validate(quiet).ValueOrDie().success);
  EXPECT_FALSE(expectation.Validate(noisy).ValueOrDie().success);
}

TEST(ValueLengthsExpectationTest, CatchesTruncationAndInsertions) {
  SchemaPtr schema =
      Schema::Make({{"ts", ValueType::kInt64}, {"code", ValueType::kString}},
                   "ts")
          .ValueOrDie();
  TupleVector tuples;
  int64_t ts = 0;
  for (const char* code : {"AB-1234", "AB-12", "AB-12345678", "CD-9999"}) {
    tuples.emplace_back(schema,
                        std::vector<Value>{Value(ts++), Value(code)});
  }
  ExpectColumnValueLengthsToBeBetween expectation("code", 7, 7);
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().unexpected, 2u);  // too short + too long
}

TEST(ValueLengthsExpectationTest, NumbersUseRenderedLength) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 1.234));
  tuples.push_back(Row(schema, 1, Value(70.0), 0, Value(0.0), 1.2));
  // "1.234" has length 5, "1.2" has length 3.
  ExpectColumnValueLengthsToBeBetween expectation("Calories", 5, 10);
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(OfTypeExpectationTest, FlagsForeignTypes) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 0.0));
  Tuple corrupted = Row(schema, 1, Value(70.0), 0, Value(0.0), 0.0);
  corrupted.set_value(1, Value("seventy"));  // BPM became a string
  tuples.push_back(corrupted);
  tuples.push_back(Row(schema, 2, Value::Null(), 0, Value(0.0), 0.0));
  ExpectColumnValuesToBeOfType expectation("BPM", ValueType::kDouble);
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().evaluated, 2u);  // NULL skipped
  EXPECT_EQ(r.ValueOrDie().unexpected, 1u);
  EXPECT_EQ(r.ValueOrDie().failures[0].id, 1u);
}

TEST(ExpectationTest, MissingColumnIsError) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  tuples.push_back(Row(schema, 0, Value(70.0), 0, Value(0.0), 0.0));
  ExpectColumnValuesToNotBeNull expectation("NoSuchColumn");
  EXPECT_EQ(expectation.Validate(tuples).status().code(),
            StatusCode::kNotFound);
}

TEST(ExpectationTest, EmptyStreamSucceedsVacuously) {
  ExpectColumnValuesToNotBeNull expectation("BPM");
  auto r = expectation.Validate({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().success);
  EXPECT_EQ(r.ValueOrDie().evaluated, 0u);
}

TEST(ExpectationResultTest, FailureHourHistogram) {
  SchemaPtr schema = WearableLikeSchema();
  TupleVector tuples;
  // 15-minute slots: slot 4*h lands in hour h.
  tuples.push_back(Row(schema, 0, Value::Null(), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 4, Value::Null(), 0, Value(0.0), 0.0));
  tuples.push_back(Row(schema, 5, Value::Null(), 0, Value(0.0), 0.0));
  ExpectColumnValuesToNotBeNull expectation("BPM");
  auto r = expectation.Validate(tuples);
  ASSERT_TRUE(r.ok());
  const auto hist = r.ValueOrDie().FailureHourHistogram();
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 2u);
  EXPECT_EQ(r.ValueOrDie().unexpected, r.ValueOrDie().evaluated);
}

}  // namespace
}  // namespace dq
}  // namespace icewafl
