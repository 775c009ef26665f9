#include "core/config.h"

#include <gtest/gtest.h>

#include "core/composite_polluter.h"
#include "core/derived_error.h"
#include "core/errors_numeric.h"
#include "core/errors_temporal.h"
#include "core/errors_value.h"
#include "core/process.h"
#include "test_helpers.h"
#include "../support/config_text.h"

namespace icewafl {
namespace {

using testing_helpers::SensorSchema;
using testing_helpers::SensorTuple;

TEST(ConfigTest, AllErrorTypesParse) {
  const char* kTypes[] = {
      R"({"type":"gaussian_noise","stddev":1.5})",
      R"({"type":"gaussian_noise","stddev":1.5,"multiplicative":true})",
      R"({"type":"uniform_noise","lo":0.1,"hi":0.4})",
      R"({"type":"scale","factor":0.125})",
      R"({"type":"offset","delta":-2})",
      R"({"type":"round","precision":2})",
      R"({"type":"unit_conversion","factor":100000,"from_unit":"km","to_unit":"cm"})",
      R"({"type":"outlier","min_factor":5,"max_factor":10})",
      R"({"type":"missing_value"})",
      R"({"type":"set_constant","value":0})",
      R"({"type":"set_constant","value":"broken"})",
      R"({"type":"incorrect_category","categories":["a","b"]})",
      R"({"type":"typo"})",
      R"({"type":"digit_swap"})",
      R"({"type":"sign_flip"})",
      R"({"type":"case","flip_probability":0.3})",
      R"({"type":"truncate","max_length":8})",
      R"({"type":"swap_attributes"})",
      R"({"type":"delay","delay_seconds":3600})",
      R"({"type":"frozen_value","hold_seconds":600})",
      R"({"type":"timestamp_shift","shift_seconds":-60})",
      R"({"type":"timestamp_jitter","max_jitter_seconds":30})",
  };
  for (const char* text : kTypes) {
    auto json = Json::Parse(text);
    ASSERT_TRUE(json.ok()) << text;
    auto error = ErrorFunctionFromJson(json.ValueOrDie());
    ASSERT_TRUE(error.ok()) << text << ": " << error.status().ToString();
  }
}

TEST(ConfigTest, AllConditionTypesParse) {
  const char* kTypes[] = {
      R"({"type":"always"})",
      R"({"type":"never"})",
      R"({"type":"random","p":0.2})",
      R"({"type":"value","attribute":"BPM","op":">","operand":100})",
      R"({"type":"value","attribute":"x","op":"is_null"})",
      R"({"type":"time_window","start":"2016-02-27"})",
      R"({"type":"time_window","start":100,"end":200})",
      R"({"type":"daily_window","start_minute":780,"end_minute":899})",
      R"({"type":"window_aggregate","attribute":"temp","window_seconds":7200,"agg":"mean","op":">","threshold":20})",
      R"({"type":"hold","hold_seconds":14400,"inner":{"type":"random","p":0.01}})",
      R"({"type":"profile_probability","profile":{"type":"sinusoidal","period_hours":24,"amplitude":0.25,"offset":0.25}})",
      R"({"type":"and","children":[{"type":"always"},{"type":"random","p":0.5}]})",
      R"({"type":"or","children":[{"type":"never"}]})",
      R"({"type":"not","child":{"type":"never"}})",
  };
  for (const char* text : kTypes) {
    auto json = Json::Parse(text);
    ASSERT_TRUE(json.ok()) << text;
    auto condition = ConditionFromJson(json.ValueOrDie());
    ASSERT_TRUE(condition.ok()) << text << ": "
                                << condition.status().ToString();
  }
}

TEST(ConfigTest, AllProfileTypesParse) {
  const char* kTypes[] = {
      R"({"type":"constant","value":0.5})",
      R"({"type":"abrupt","change_time":"2016-02-27 00:00:00"})",
      R"({"type":"incremental","ramp_start":0,"ramp_end":300,"from":0.4,"to":0.9})",
      R"({"type":"intermediate","ramp_start":0,"ramp_end":100})",
      R"({"type":"sinusoidal","period_hours":24,"amplitude":0.25,"offset":0.25})",
      R"({"type":"stream_ramp","scale":1.0})",
      R"({"type":"reoccurring","period_hours":4,"low":0,"high":1})",
      R"({"type":"spike","center":"2016-03-01 12:00:00","width_seconds":600})",
  };
  for (const char* text : kTypes) {
    auto json = Json::Parse(text);
    ASSERT_TRUE(json.ok()) << text;
    auto profile = TimeProfileFromJson(json.ValueOrDie());
    ASSERT_TRUE(profile.ok()) << text << ": " << profile.status().ToString();
  }
}

TEST(ConfigTest, UnknownTypesRejected) {
  auto e = ErrorFunctionFromJson(
      Json::Parse(R"({"type":"zap"})").ValueOrDie());
  EXPECT_EQ(e.status().code(), StatusCode::kParseError);
  auto c = ConditionFromJson(Json::Parse(R"({"type":"zap"})").ValueOrDie());
  EXPECT_EQ(c.status().code(), StatusCode::kParseError);
  auto p = TimeProfileFromJson(Json::Parse(R"({"type":"zap"})").ValueOrDie());
  EXPECT_EQ(p.status().code(), StatusCode::kParseError);
  auto pol = PolluterFromJson(Json::Parse(R"({"type":"zap"})").ValueOrDie());
  EXPECT_EQ(pol.status().code(), StatusCode::kParseError);
}

TEST(ConfigTest, MissingRequiredFieldRejected) {
  auto e = ErrorFunctionFromJson(
      Json::Parse(R"({"type":"gaussian_noise"})").ValueOrDie());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
  auto c = ConditionFromJson(Json::Parse(R"({"type":"random"})").ValueOrDie());
  EXPECT_EQ(c.status().code(), StatusCode::kNotFound);
}

TEST(ConfigTest, TimestampStringsAccepted) {
  auto condition = ConditionFromJson(
      Json::Parse(R"({"type":"time_window","start":"2016-02-27 00:00:00"})")
          .ValueOrDie());
  ASSERT_TRUE(condition.ok());
  SchemaPtr schema = SensorSchema();
  Tuple t = SensorTuple(schema, 0);
  PollutionContext ctx;
  ctx.tau = TimestampFromCivil({2016, 2, 27, 5, 0, 0});
  EXPECT_TRUE(condition.ValueOrDie()->Evaluate(t, &ctx));
  ctx.tau = TimestampFromCivil({2016, 2, 26, 5, 0, 0});
  EXPECT_FALSE(condition.ValueOrDie()->Evaluate(t, &ctx));
}

TEST(ConfigTest, SetConstantIntTypeRoundTrips) {
  auto error = ErrorFunctionFromJson(
      Json::Parse(R"({"type":"set_constant","value":5,"value_type":"int64"})")
          .ValueOrDie());
  ASSERT_TRUE(error.ok());
  SchemaPtr schema = SensorSchema();
  Tuple t = SensorTuple(schema, 0);
  Rng rng(1);
  PollutionContext ctx;
  ctx.rng = &rng;
  error.ValueOrDie()->Apply(&t, {2}, &ctx);
  EXPECT_TRUE(t.value(2).is_int64());
  EXPECT_EQ(t.value(2).AsInt64(), 5);
}

TEST(ConfigTest, PipelineRoundTripsThroughJson) {
  // Build the paper's software-update pipeline programmatically, dump it,
  // re-parse it, and compare the JSON representations.
  auto composite = std::make_unique<SequentialPolluter>(
      "software_update",
      TimeWindowCondition::After(TimestampFromCivil({2016, 2, 27, 0, 0, 0})));
  composite->Register(std::make_unique<StandardPolluter>(
      "km_to_cm",
      std::make_unique<UnitConversionError>(100000.0, "km", "cm"),
      std::make_unique<AlwaysCondition>(),
      std::vector<std::string>{"Distance"}));
  auto bpm = std::make_unique<SequentialPolluter>(
      "wrong_bpm",
      std::make_unique<ValueCondition>("BPM", CompareOp::kGt, Value(100.0)));
  bpm->Register(std::make_unique<StandardPolluter>(
      "bpm_zero", std::make_unique<SetConstantError>(Value(0.0)),
      std::make_unique<AlwaysCondition>(), std::vector<std::string>{"BPM"}));
  bpm->Register(std::make_unique<StandardPolluter>(
      "bpm_null", std::make_unique<MissingValueError>(),
      std::make_unique<RandomCondition>(0.2),
      std::vector<std::string>{"BPM"}));
  composite->Register(std::move(bpm));

  PollutionPipeline pipeline("software_update_pipeline");
  pipeline.Add(std::move(composite));

  const Json dumped = pipeline.ToJson();
  auto reparsed = PipelineFromJson(dumped);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.ValueOrDie().ToJson(), dumped);
  EXPECT_EQ(reparsed.ValueOrDie().name(), "software_update_pipeline");
}

TEST(ConfigTest, DerivedErrorRoundTrips) {
  DerivedTemporalError error(
      std::make_unique<GaussianNoiseError>(2.0),
      std::make_unique<IncrementalProfile>(0, 300, 0.4, 0.9));
  auto reparsed = ErrorFunctionFromJson(error.ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.ValueOrDie()->ToJson(), error.ToJson());
}

TEST(ConfigTest, ConfiguredPipelineActuallyPollutes) {
  const char* config = R"({
    "name": "from_config",
    "polluters": [
      {"type": "standard", "label": "null_temp",
       "attributes": ["temp"],
       "condition": {"type": "always"},
       "error": {"type": "missing_value"}}
    ]
  })";
  auto pipeline = PipelineFromText(config);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  SchemaPtr schema = SensorSchema();
  TupleVector tuples;
  for (int i = 0; i < 5; ++i) tuples.push_back(SensorTuple(schema, i));
  VectorSource source(schema, tuples);
  auto result = PollutionProcess::Pollute(
      &source, std::move(pipeline).ValueOrDie(), 1);
  ASSERT_TRUE(result.ok());
  for (const Tuple& t : result.ValueOrDie().polluted) {
    EXPECT_TRUE(t.value(1).is_null());
  }
}

TEST(ConfigTest, ExclusiveWeightsParse) {
  const char* config = R"({
    "type": "exclusive", "label": "one_of",
    "condition": {"type": "always"},
    "weights": [3, 1],
    "children": [
      {"type": "standard", "label": "a", "attributes": ["temp"],
       "error": {"type": "missing_value"}},
      {"type": "standard", "label": "b", "attributes": ["count"],
       "error": {"type": "missing_value"}}
    ]
  })";
  auto polluter = PolluterFromJson(Json::Parse(config).ValueOrDie());
  ASSERT_TRUE(polluter.ok()) << polluter.status().ToString();
  auto* exclusive = dynamic_cast<ExclusivePolluter*>(
      polluter.ValueOrDie().get());
  ASSERT_NE(exclusive, nullptr);
  EXPECT_EQ(exclusive->num_children(), 2u);
}

TEST(ConfigTest, DefaultsAreAlwaysConditionAndTypeLabel) {
  const char* config = R"({
    "type": "standard",
    "attributes": ["temp"],
    "error": {"type": "missing_value"}
  })";
  auto polluter = PolluterFromJson(Json::Parse(config).ValueOrDie());
  ASSERT_TRUE(polluter.ok());
  EXPECT_EQ(polluter.ValueOrDie()->label(), "standard");
  const Json j = polluter.ValueOrDie()->ToJson();
  EXPECT_EQ(j.Get("condition").ValueOrDie().GetString("type", ""), "always");
}

TEST(ConfigTest, MissingFileIsIOError) {
  EXPECT_EQ(PipelineFromConfigFile("/does/not/exist.json").status().code(),
            StatusCode::kIOError);
}

TEST(ConfigTest, MalformedJsonIsParseError) {
  EXPECT_EQ(PipelineFromText("{not json").status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace icewafl
