#include "core/config.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "core/composite_polluter.h"
#include "core/derived_error.h"
#include "core/errors_numeric.h"
#include "core/errors_temporal.h"
#include "core/errors_value.h"
#include "util/time_util.h"

namespace icewafl {

namespace {

std::string SubIdx(const std::string& path, size_t index) {
  return path + "/" + std::to_string(index);
}

/// Reads a timestamp field that is either an epoch-second integer or a
/// calendar string; `fallback` is returned when the key is absent.
Result<Timestamp> ReadTimestamp(FieldReader& r, const std::string& key,
                                Timestamp fallback) {
  if (!r.Has(key)) return fallback;
  ICEWAFL_ASSIGN_OR_RETURN(const Json* field, r.Get(key));
  if (field->is_number()) return r.Int<Timestamp>(key, fallback);
  if (!field->is_string()) {
    return r.Fail(StatusCode::kTypeError, key,
                  "\"" + key + "\" must be an epoch-second number or a "
                  "timestamp string");
  }
  auto parsed = ParseTimestamp(field->AsString());
  if (!parsed.ok()) {
    return r.Fail(StatusCode::kParseError, key,
                  "invalid timestamp: " + parsed.status().message());
  }
  return parsed;
}

/// Reads a scalar Value field; "<key>_type": "int64" makes a number an
/// integer.
Result<Value> ReadValue(FieldReader& r, const std::string& key) {
  ICEWAFL_ASSIGN_OR_RETURN(const Json* field, r.Get(key));
  ICEWAFL_ASSIGN_OR_RETURN(std::string value_type,
                           r.String(key + "_type", ""));
  switch (field->type()) {
    case Json::Type::kNull:
      return Value::Null();
    case Json::Type::kBool:
      return Value(field->AsBool());
    case Json::Type::kNumber:
      if (value_type == "int64") {
        ICEWAFL_ASSIGN_OR_RETURN(int64_t v, r.Int<int64_t>(key));
        return Value(v);
      }
      return Value(field->AsDouble());
    case Json::Type::kString:
      return Value(field->AsString());
    default:
      return r.Fail(StatusCode::kTypeError, key,
                    "\"" + key + "\" must be a scalar");
  }
}

/// A duration in seconds: an integer, IW303 when negative (or, for an
/// aggregation window, not positive).
Result<int64_t> ReadSeconds(FieldReader& r, const std::string& key,
                            bool window = false) {
  ICEWAFL_ASSIGN_OR_RETURN(int64_t seconds, r.Int<int64_t>(key, 0));
  const std::string got = std::to_string(seconds) + "s";
  if (window && seconds <= 0) {
    return r.Fail(StatusCode::kInvalidArgument, key,
                  "aggregation window must be positive, got " + got, "IW303");
  }
  if (seconds < 0) {
    return r.Fail(StatusCode::kInvalidArgument, key,
                  "negative duration (" + got + ")", "IW303");
  }
  return seconds;
}

Result<CompareOp> ReadOp(FieldReader& r) {
  ICEWAFL_ASSIGN_OR_RETURN(std::string text, r.String("op"));
  auto op = ParseCompareOp(text);
  if (!op.ok()) {
    return r.Fail(StatusCode::kParseError, "op",
                  "invalid op: " + op.status().message());
  }
  return op;
}

/// The optional "condition" of a polluter; always-true when absent.
Result<ConditionPtr> ReadCondition(FieldReader& r) {
  if (!r.Has("condition")) {
    return ConditionPtr(std::make_unique<AlwaysCondition>());
  }
  ICEWAFL_ASSIGN_OR_RETURN(const Json* cond, r.Get("condition"));
  return ConditionFromJson(*cond, r.At("condition"), r.diags());
}

Result<TimeProfilePtr> BuildProfile(FieldReader& r, const std::string& type) {
  if (type == "constant") {
    ICEWAFL_ASSIGN_OR_RETURN(double value, r.Number("value"));
    return TimeProfilePtr(std::make_unique<ConstantProfile>(value));
  }
  if (type == "abrupt") {
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp change,
                             ReadTimestamp(r, "change_time", 0));
    ICEWAFL_ASSIGN_OR_RETURN(double before, r.Number("before", 0.0));
    ICEWAFL_ASSIGN_OR_RETURN(double after, r.Number("after", 1.0));
    return TimeProfilePtr(
        std::make_unique<AbruptProfile>(change, before, after));
  }
  if (type == "incremental" || type == "intermediate") {
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp start,
                             ReadTimestamp(r, "ramp_start", 0));
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp end,
                             ReadTimestamp(r, "ramp_end", 0));
    if (type == "incremental") {
      ICEWAFL_ASSIGN_OR_RETURN(double from, r.Number("from", 0.0));
      ICEWAFL_ASSIGN_OR_RETURN(double to, r.Number("to", 1.0));
      return TimeProfilePtr(
          std::make_unique<IncrementalProfile>(start, end, from, to));
    }
    ICEWAFL_ASSIGN_OR_RETURN(double before, r.Number("before", 0.0));
    ICEWAFL_ASSIGN_OR_RETURN(double after, r.Number("after", 1.0));
    return TimeProfilePtr(
        std::make_unique<IntermediateProfile>(start, end, before, after));
  }
  if (type == "sinusoidal") {
    ICEWAFL_ASSIGN_OR_RETURN(double period, r.Number("period_hours", 24.0));
    ICEWAFL_ASSIGN_OR_RETURN(double amplitude, r.Number("amplitude", 0.5));
    ICEWAFL_ASSIGN_OR_RETURN(double offset, r.Number("offset", 0.5));
    ICEWAFL_ASSIGN_OR_RETURN(double phase, r.Number("phase", 0.0));
    return TimeProfilePtr(std::make_unique<SinusoidalProfile>(
        period, amplitude, offset, phase));
  }
  if (type == "stream_ramp") {
    ICEWAFL_ASSIGN_OR_RETURN(double scale, r.Number("scale", 1.0));
    return TimeProfilePtr(std::make_unique<StreamRampProfile>(scale));
  }
  if (type == "reoccurring") {
    ICEWAFL_ASSIGN_OR_RETURN(double period, r.Number("period_hours", 24.0));
    ICEWAFL_ASSIGN_OR_RETURN(double low, r.Number("low", 0.0));
    ICEWAFL_ASSIGN_OR_RETURN(double high, r.Number("high", 1.0));
    ICEWAFL_ASSIGN_OR_RETURN(double duty, r.Number("duty_cycle", 0.5));
    return TimeProfilePtr(
        std::make_unique<ReoccurringProfile>(period, low, high, duty));
  }
  if (type == "spike") {
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp center,
                             ReadTimestamp(r, "center", 0));
    ICEWAFL_ASSIGN_OR_RETURN(int64_t width,
                             r.Int<int64_t>("width_seconds", 1));
    ICEWAFL_ASSIGN_OR_RETURN(double peak, r.Number("peak", 1.0));
    return TimeProfilePtr(
        std::make_unique<SpikeProfile>(center, width, peak));
  }
  return r.Fail(StatusCode::kParseError, "type",
                "unknown profile type '" + type + "'");
}

Result<ErrorFunctionPtr> BuildError(FieldReader& r, const std::string& type) {
  if (type == "gaussian_noise") {
    ICEWAFL_ASSIGN_OR_RETURN(double stddev, r.Number("stddev"));
    ICEWAFL_ASSIGN_OR_RETURN(bool multiplicative,
                             r.Bool("multiplicative", false));
    return ErrorFunctionPtr(
        std::make_unique<GaussianNoiseError>(stddev, multiplicative));
  }
  if (type == "uniform_noise") {
    ICEWAFL_ASSIGN_OR_RETURN(double lo, r.Number("lo"));
    ICEWAFL_ASSIGN_OR_RETURN(double hi, r.Number("hi"));
    return ErrorFunctionPtr(std::make_unique<UniformNoiseError>(lo, hi));
  }
  if (type == "scale") {
    ICEWAFL_ASSIGN_OR_RETURN(double factor, r.Number("factor"));
    return ErrorFunctionPtr(std::make_unique<ScaleError>(factor));
  }
  if (type == "offset") {
    ICEWAFL_ASSIGN_OR_RETURN(double delta, r.Number("delta"));
    return ErrorFunctionPtr(std::make_unique<OffsetError>(delta));
  }
  if (type == "round") {
    ICEWAFL_ASSIGN_OR_RETURN(int precision, r.Int<int>("precision", 0));
    return ErrorFunctionPtr(std::make_unique<RoundError>(precision));
  }
  if (type == "unit_conversion") {
    ICEWAFL_ASSIGN_OR_RETURN(double factor, r.Number("factor"));
    ICEWAFL_ASSIGN_OR_RETURN(std::string from, r.String("from_unit", ""));
    ICEWAFL_ASSIGN_OR_RETURN(std::string to, r.String("to_unit", ""));
    return ErrorFunctionPtr(std::make_unique<UnitConversionError>(
        factor, std::move(from), std::move(to)));
  }
  if (type == "outlier") {
    ICEWAFL_ASSIGN_OR_RETURN(double lo, r.Number("min_factor"));
    ICEWAFL_ASSIGN_OR_RETURN(double hi, r.Number("max_factor"));
    return ErrorFunctionPtr(std::make_unique<OutlierError>(lo, hi));
  }
  if (type == "missing_value") {
    return ErrorFunctionPtr(std::make_unique<MissingValueError>());
  }
  if (type == "set_constant") {
    ICEWAFL_ASSIGN_OR_RETURN(Value value, ReadValue(r, "value"));
    return ErrorFunctionPtr(
        std::make_unique<SetConstantError>(std::move(value)));
  }
  if (type == "incorrect_category") {
    ICEWAFL_ASSIGN_OR_RETURN(std::vector<std::string> categories,
                             r.Strings("categories"));
    return ErrorFunctionPtr(
        std::make_unique<IncorrectCategoryError>(std::move(categories)));
  }
  if (type == "typo") {
    return ErrorFunctionPtr(std::make_unique<TypoError>());
  }
  if (type == "digit_swap") {
    return ErrorFunctionPtr(std::make_unique<DigitSwapError>());
  }
  if (type == "sign_flip") {
    return ErrorFunctionPtr(std::make_unique<SignFlipError>());
  }
  if (type == "case") {
    ICEWAFL_ASSIGN_OR_RETURN(double p, r.Number("flip_probability", 0.5));
    return ErrorFunctionPtr(std::make_unique<CaseError>(p));
  }
  if (type == "truncate") {
    ICEWAFL_ASSIGN_OR_RETURN(size_t max_length,
                             r.Int<size_t>("max_length", 0));
    return ErrorFunctionPtr(std::make_unique<TruncateError>(max_length));
  }
  if (type == "swap_attributes") {
    return ErrorFunctionPtr(std::make_unique<SwapAttributesError>());
  }
  if (type == "delay") {
    ICEWAFL_ASSIGN_OR_RETURN(int64_t delay, ReadSeconds(r, "delay_seconds"));
    return ErrorFunctionPtr(std::make_unique<DelayError>(delay));
  }
  if (type == "frozen_value") {
    ICEWAFL_ASSIGN_OR_RETURN(int64_t hold, ReadSeconds(r, "hold_seconds"));
    return ErrorFunctionPtr(std::make_unique<FrozenValueError>(hold));
  }
  if (type == "timestamp_shift") {
    ICEWAFL_ASSIGN_OR_RETURN(int64_t shift, r.Int<int64_t>("shift_seconds", 0));
    return ErrorFunctionPtr(std::make_unique<TimestampShiftError>(shift));
  }
  if (type == "timestamp_jitter") {
    ICEWAFL_ASSIGN_OR_RETURN(int64_t jitter,
                             ReadSeconds(r, "max_jitter_seconds"));
    return ErrorFunctionPtr(std::make_unique<TimestampJitterError>(jitter));
  }
  if (type == "derived") {
    ICEWAFL_ASSIGN_OR_RETURN(const Json* base_json, r.Get("base"));
    ICEWAFL_ASSIGN_OR_RETURN(const Json* profile_json, r.Get("profile"));
    ICEWAFL_ASSIGN_OR_RETURN(
        ErrorFunctionPtr base,
        ErrorFunctionFromJson(*base_json, r.At("base"), r.diags()));
    ICEWAFL_ASSIGN_OR_RETURN(
        TimeProfilePtr profile,
        TimeProfileFromJson(*profile_json, r.At("profile"), r.diags()));
    return ErrorFunctionPtr(std::make_unique<DerivedTemporalError>(
        std::move(base), std::move(profile)));
  }
  return r.Fail(StatusCode::kParseError, "type",
                "unknown error type '" + type + "'");
}

/// The "children" conditions of an and/or node.
Result<std::vector<ConditionPtr>> ReadChildren(FieldReader& r) {
  ICEWAFL_ASSIGN_OR_RETURN(const Json::Array* items, r.Array("children"));
  std::vector<ConditionPtr> children;
  for (size_t i = 0; i < items->size(); ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(
        ConditionPtr child,
        ConditionFromJson((*items)[i], SubIdx(r.At("children"), i),
                          r.diags()));
    children.push_back(std::move(child));
  }
  return children;
}

Result<ConditionPtr> BuildCondition(FieldReader& r, const std::string& type) {
  if (type == "always") return ConditionPtr(std::make_unique<AlwaysCondition>());
  if (type == "never") return ConditionPtr(std::make_unique<NeverCondition>());
  if (type == "random") {
    ICEWAFL_ASSIGN_OR_RETURN(double p, r.Number("p"));
    return ConditionPtr(std::make_unique<RandomCondition>(p));
  }
  if (type == "value") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string attr, r.String("attribute"));
    ICEWAFL_ASSIGN_OR_RETURN(CompareOp op, ReadOp(r));
    Value operand;
    if (r.Has("operand")) {
      ICEWAFL_ASSIGN_OR_RETURN(operand, ReadValue(r, "operand"));
    }
    return ConditionPtr(std::make_unique<ValueCondition>(
        std::move(attr), op, std::move(operand)));
  }
  if (type == "time_window") {
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp start,
                             ReadTimestamp(r, "start", INT64_MIN));
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp end,
                             ReadTimestamp(r, "end", INT64_MAX));
    return ConditionPtr(std::make_unique<TimeWindowCondition>(start, end));
  }
  if (type == "daily_window") {
    ICEWAFL_ASSIGN_OR_RETURN(int start, r.Int<int>("start_minute", 0));
    ICEWAFL_ASSIGN_OR_RETURN(int end, r.Int<int>("end_minute", 1439));
    return ConditionPtr(std::make_unique<DailyWindowCondition>(start, end));
  }
  if (type == "profile_probability") {
    ICEWAFL_ASSIGN_OR_RETURN(const Json* profile_json, r.Get("profile"));
    ICEWAFL_ASSIGN_OR_RETURN(
        TimeProfilePtr profile,
        TimeProfileFromJson(*profile_json, r.At("profile"), r.diags()));
    return ConditionPtr(
        std::make_unique<ProfileProbabilityCondition>(std::move(profile)));
  }
  if (type == "and" || type == "or") {
    ICEWAFL_ASSIGN_OR_RETURN(std::vector<ConditionPtr> children,
                             ReadChildren(r));
    if (type == "and") {
      return ConditionPtr(std::make_unique<AndCondition>(std::move(children)));
    }
    return ConditionPtr(std::make_unique<OrCondition>(std::move(children)));
  }
  if (type == "not") {
    ICEWAFL_ASSIGN_OR_RETURN(const Json* child_json, r.Get("child"));
    ICEWAFL_ASSIGN_OR_RETURN(
        ConditionPtr child,
        ConditionFromJson(*child_json, r.At("child"), r.diags()));
    return ConditionPtr(std::make_unique<NotCondition>(std::move(child)));
  }
  if (type == "window_aggregate") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string attr, r.String("attribute"));
    ICEWAFL_ASSIGN_OR_RETURN(std::string agg_text, r.String("agg"));
    auto agg = ParseWindowAgg(agg_text);
    if (!agg.ok()) {
      return r.Fail(StatusCode::kParseError, "agg",
                    "invalid agg: " + agg.status().message());
    }
    ICEWAFL_ASSIGN_OR_RETURN(CompareOp op, ReadOp(r));
    if (op == CompareOp::kIsNull || op == CompareOp::kNotNull) {
      return r.Fail(StatusCode::kParseError, "op",
                    "window_aggregate does not support null comparison "
                    "operator '" + std::string(CompareOpName(op)) + "'");
    }
    ICEWAFL_ASSIGN_OR_RETURN(double threshold, r.Number("threshold"));
    ICEWAFL_ASSIGN_OR_RETURN(int64_t window,
                             ReadSeconds(r, "window_seconds", true));
    return ConditionPtr(std::make_unique<WindowAggregateCondition>(
        std::move(attr), window, agg.ValueOrDie(), op, threshold));
  }
  if (type == "hold") {
    ICEWAFL_ASSIGN_OR_RETURN(const Json* inner_json, r.Get("inner"));
    ICEWAFL_ASSIGN_OR_RETURN(int64_t hold, ReadSeconds(r, "hold_seconds"));
    ICEWAFL_ASSIGN_OR_RETURN(
        ConditionPtr inner,
        ConditionFromJson(*inner_json, r.At("inner"), r.diags()));
    return ConditionPtr(
        std::make_unique<HoldCondition>(std::move(inner), hold));
  }
  return r.Fail(StatusCode::kParseError, "type",
                "unknown condition type '" + type + "'");
}

Result<PolluterPtr> BuildPolluter(FieldReader& r, const std::string& type) {
  ICEWAFL_ASSIGN_OR_RETURN(std::string label, r.String("label", type));
  if (type == "standard") {
    ICEWAFL_ASSIGN_OR_RETURN(const Json* error_json, r.Get("error"));
    ICEWAFL_ASSIGN_OR_RETURN(
        ErrorFunctionPtr error,
        ErrorFunctionFromJson(*error_json, r.At("error"), r.diags()));
    ICEWAFL_ASSIGN_OR_RETURN(ConditionPtr condition,
                             ReadCondition(r));
    std::vector<std::string> attributes;
    if (r.Has("attributes")) {
      ICEWAFL_ASSIGN_OR_RETURN(attributes, r.Strings("attributes"));
    }
    return PolluterPtr(std::make_unique<StandardPolluter>(
        std::move(label), std::move(error), std::move(condition),
        std::move(attributes)));
  }
  if (type != "sequential" && type != "exclusive") {
    return r.Fail(StatusCode::kParseError, "type",
                  "unknown polluter type '" + type + "'");
  }
  ICEWAFL_ASSIGN_OR_RETURN(ConditionPtr condition,
                           ReadCondition(r));
  ICEWAFL_ASSIGN_OR_RETURN(const Json::Array* items, r.Array("children"));
  std::vector<double> weights;
  if (type == "exclusive" && r.Has("weights")) {
    ICEWAFL_ASSIGN_OR_RETURN(weights, r.Numbers("weights"));
  }
  std::unique_ptr<CompositePolluter> composite;
  ExclusivePolluter* exclusive = nullptr;
  if (type == "sequential") {
    composite =
        std::make_unique<SequentialPolluter>(label, std::move(condition));
  } else {
    auto owned =
        std::make_unique<ExclusivePolluter>(label, std::move(condition));
    exclusive = owned.get();
    composite = std::move(owned);
  }
  for (size_t i = 0; i < items->size(); ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(
        PolluterPtr child,
        PolluterFromJson((*items)[i], SubIdx(r.At("children"), i),
                         r.diags()));
    if (exclusive == nullptr) {
      composite->Register(std::move(child));
    } else {
      exclusive->RegisterWeighted(std::move(child),
                                  i < weights.size() ? weights[i] : 1.0);
    }
  }
  return PolluterPtr(std::move(composite));
}

/// Loads one node: checks it is an object, reads its "type", builds it
/// with `build`, and reports the keys the build did not read.
template <typename T>
Result<T> LoadNode(const Json& json, const std::string& path,
                   Diagnostics* diags, const char* what,
                   Result<T> (*build)(FieldReader&, const std::string& type)) {
  FieldReader r(json, path, diags);
  ICEWAFL_RETURN_NOT_OK(r.ExpectObject(what));
  ICEWAFL_ASSIGN_OR_RETURN(std::string type, r.String("type"));
  ICEWAFL_ASSIGN_OR_RETURN(T node, build(r, type));
  r.Done();
  return node;
}

}  // namespace

Result<TimeProfilePtr> TimeProfileFromJson(const Json& json,
                                           const std::string& path,
                                           Diagnostics* diags) {
  return LoadNode(json, path, diags, "profile description", BuildProfile);
}

Result<ErrorFunctionPtr> ErrorFunctionFromJson(const Json& json,
                                               const std::string& path,
                                               Diagnostics* diags) {
  return LoadNode(json, path, diags, "error description", BuildError);
}

Result<ConditionPtr> ConditionFromJson(const Json& json,
                                       const std::string& path,
                                       Diagnostics* diags) {
  return LoadNode(json, path, diags, "condition description", BuildCondition);
}

Result<PolluterPtr> PolluterFromJson(const Json& json, const std::string& path,
                                     Diagnostics* diags) {
  return LoadNode(json, path, diags, "polluter description", BuildPolluter);
}

Result<const Json::Array*> PollutersOf(const Json& json, Diagnostics* diags,
                                       std::string* name) {
  FieldReader r(json, "", diags);
  ICEWAFL_RETURN_NOT_OK(r.ExpectObject("pipeline description"));
  ICEWAFL_ASSIGN_OR_RETURN(std::string read_name, r.String("name", "pipeline"));
  ICEWAFL_ASSIGN_OR_RETURN(const Json::Array* polluters, r.Array("polluters"));
  r.Done();
  if (name != nullptr) *name = std::move(read_name);
  return polluters;
}

Result<PollutionPipeline> PipelineFromJson(const Json& json,
                                           SchemaPtr bind_schema,
                                           Diagnostics* diags) {
  std::string name;
  ICEWAFL_ASSIGN_OR_RETURN(const Json::Array* polluters,
                           PollutersOf(json, diags, &name));
  PollutionPipeline pipeline(std::move(name));
  // Every entry is loaded, so `diags` holds each one's findings; the
  // first failure is the result.
  Status first;
  for (size_t i = 0; i < polluters->size(); ++i) {
    auto polluter =
        PolluterFromJson((*polluters)[i], SubIdx("/polluters", i), diags);
    if (polluter.ok()) {
      pipeline.Add(std::move(polluter).ValueOrDie());
    } else if (first.ok()) {
      first = polluter.status();
    }
  }
  ICEWAFL_RETURN_NOT_OK(first);
  if (bind_schema != nullptr) {
    ICEWAFL_RETURN_NOT_OK(pipeline.Bind(std::move(bind_schema), diags));
  }
  return pipeline;
}

Result<PollutionPipeline> PipelineFromConfigFile(const std::string& path,
                                                 SchemaPtr bind_schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open config file: '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  ICEWAFL_ASSIGN_OR_RETURN(Json json, Json::Parse(buf.str()));
  return PipelineFromJson(json, std::move(bind_schema));
}

}  // namespace icewafl
