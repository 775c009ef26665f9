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

PipelineLoadHook g_pipeline_load_hook;

/// Renders a JSON pointer for error messages ("" is the document root).
std::string AtPath(const std::string& path) {
  return path.empty() ? std::string("/") : path;
}

/// Child pointer of an object member / array element.
std::string Sub(const std::string& path, const std::string& key) {
  return path + "/" + key;
}
std::string SubIdx(const std::string& path, size_t index) {
  return path + "/" + std::to_string(index);
}

Result<Json> GetField(const Json& json, const std::string& key,
                      const std::string& path) {
  if (!json.Has(key)) {
    return Status::NotFound("missing field '" + key + "' at " + AtPath(path));
  }
  return json.Get(key);
}

/// Reads a timestamp field that is either an epoch-second number or a
/// calendar string; `fallback` is returned when the key is absent.
Result<Timestamp> GetTimestampField(const Json& json, const std::string& key,
                                    Timestamp fallback,
                                    const std::string& path) {
  if (!json.Has(key)) return fallback;
  ICEWAFL_ASSIGN_OR_RETURN(Json field, json.Get(key));
  if (field.is_number()) return field.AsInt64();
  if (field.is_string()) {
    auto parsed = ParseTimestamp(field.AsString());
    if (!parsed.ok()) {
      return Status::ParseError("invalid timestamp at " + Sub(path, key) +
                                ": " + parsed.status().message());
    }
    return parsed;
  }
  return Status::TypeError("field at " + Sub(path, key) +
                           " must be a number or timestamp string");
}

/// Reads a Value field; "<key>_type": "int64" forces integer values.
Result<Value> GetValueField(const Json& json, const std::string& key,
                            const std::string& path) {
  ICEWAFL_ASSIGN_OR_RETURN(Json field, GetField(json, key, path));
  switch (field.type()) {
    case Json::Type::kNull:
      return Value::Null();
    case Json::Type::kBool:
      return Value(field.AsBool());
    case Json::Type::kNumber:
      if (json.GetString(key + "_type", "") == "int64") {
        return Value(field.AsInt64());
      }
      return Value(field.AsDouble());
    case Json::Type::kString:
      return Value(field.AsString());
    default:
      return Status::TypeError("field at " + Sub(path, key) +
                               " must be a scalar");
  }
}

Result<double> RequireDouble(const Json& json, const std::string& key,
                             const std::string& path) {
  ICEWAFL_ASSIGN_OR_RETURN(Json field, GetField(json, key, path));
  if (!field.is_number()) {
    return Status::TypeError("field at " + Sub(path, key) +
                             " must be a number");
  }
  return field.AsDouble();
}

Result<std::string> RequireString(const Json& json, const std::string& key,
                                  const std::string& path) {
  ICEWAFL_ASSIGN_OR_RETURN(Json field, GetField(json, key, path));
  if (!field.is_string()) {
    return Status::TypeError("field at " + Sub(path, key) +
                             " must be a string");
  }
  return field.AsString();
}

}  // namespace

Result<TimeProfilePtr> TimeProfileFromJson(const Json& json,
                                           const std::string& path) {
  if (!json.is_object()) {
    return Status::ParseError("profile description at " + AtPath(path) +
                              " must be a JSON object");
  }
  ICEWAFL_ASSIGN_OR_RETURN(std::string type,
                           RequireString(json, "type", path));
  if (type == "constant") {
    ICEWAFL_ASSIGN_OR_RETURN(double value,
                             RequireDouble(json, "value", path));
    return TimeProfilePtr(std::make_unique<ConstantProfile>(value));
  }
  if (type == "abrupt") {
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp change,
                             GetTimestampField(json, "change_time", 0, path));
    return TimeProfilePtr(std::make_unique<AbruptProfile>(
        change, json.GetDouble("before", 0.0), json.GetDouble("after", 1.0)));
  }
  if (type == "incremental") {
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp start,
                             GetTimestampField(json, "ramp_start", 0, path));
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp end,
                             GetTimestampField(json, "ramp_end", 0, path));
    return TimeProfilePtr(std::make_unique<IncrementalProfile>(
        start, end, json.GetDouble("from", 0.0), json.GetDouble("to", 1.0)));
  }
  if (type == "intermediate") {
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp start,
                             GetTimestampField(json, "ramp_start", 0, path));
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp end,
                             GetTimestampField(json, "ramp_end", 0, path));
    return TimeProfilePtr(std::make_unique<IntermediateProfile>(
        start, end, json.GetDouble("before", 0.0),
        json.GetDouble("after", 1.0)));
  }
  if (type == "sinusoidal") {
    return TimeProfilePtr(std::make_unique<SinusoidalProfile>(
        json.GetDouble("period_hours", 24.0), json.GetDouble("amplitude", 0.5),
        json.GetDouble("offset", 0.5), json.GetDouble("phase", 0.0)));
  }
  if (type == "stream_ramp") {
    return TimeProfilePtr(
        std::make_unique<StreamRampProfile>(json.GetDouble("scale", 1.0)));
  }
  if (type == "reoccurring") {
    return TimeProfilePtr(std::make_unique<ReoccurringProfile>(
        json.GetDouble("period_hours", 24.0), json.GetDouble("low", 0.0),
        json.GetDouble("high", 1.0), json.GetDouble("duty_cycle", 0.5)));
  }
  if (type == "spike") {
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp center,
                             GetTimestampField(json, "center", 0, path));
    return TimeProfilePtr(std::make_unique<SpikeProfile>(
        center, json.GetInt("width_seconds", 1),
        json.GetDouble("peak", 1.0)));
  }
  return Status::ParseError("unknown profile type '" + type + "' at " +
                            AtPath(path));
}

Result<ErrorFunctionPtr> ErrorFunctionFromJson(const Json& json,
                                               const std::string& path) {
  if (!json.is_object()) {
    return Status::ParseError("error description at " + AtPath(path) +
                              " must be a JSON object");
  }
  ICEWAFL_ASSIGN_OR_RETURN(std::string type,
                           RequireString(json, "type", path));
  if (type == "gaussian_noise") {
    ICEWAFL_ASSIGN_OR_RETURN(double stddev,
                             RequireDouble(json, "stddev", path));
    return ErrorFunctionPtr(std::make_unique<GaussianNoiseError>(
        stddev, json.GetBool("multiplicative", false)));
  }
  if (type == "uniform_noise") {
    ICEWAFL_ASSIGN_OR_RETURN(double lo, RequireDouble(json, "lo", path));
    ICEWAFL_ASSIGN_OR_RETURN(double hi, RequireDouble(json, "hi", path));
    return ErrorFunctionPtr(std::make_unique<UniformNoiseError>(lo, hi));
  }
  if (type == "scale") {
    ICEWAFL_ASSIGN_OR_RETURN(double factor,
                             RequireDouble(json, "factor", path));
    return ErrorFunctionPtr(std::make_unique<ScaleError>(factor));
  }
  if (type == "offset") {
    ICEWAFL_ASSIGN_OR_RETURN(double delta, RequireDouble(json, "delta", path));
    return ErrorFunctionPtr(std::make_unique<OffsetError>(delta));
  }
  if (type == "round") {
    return ErrorFunctionPtr(std::make_unique<RoundError>(
        static_cast<int>(json.GetInt("precision", 0))));
  }
  if (type == "unit_conversion") {
    ICEWAFL_ASSIGN_OR_RETURN(double factor,
                             RequireDouble(json, "factor", path));
    return ErrorFunctionPtr(std::make_unique<UnitConversionError>(
        factor, json.GetString("from_unit", ""), json.GetString("to_unit", "")));
  }
  if (type == "outlier") {
    ICEWAFL_ASSIGN_OR_RETURN(double lo,
                             RequireDouble(json, "min_factor", path));
    ICEWAFL_ASSIGN_OR_RETURN(double hi,
                             RequireDouble(json, "max_factor", path));
    return ErrorFunctionPtr(std::make_unique<OutlierError>(lo, hi));
  }
  if (type == "missing_value") {
    return ErrorFunctionPtr(std::make_unique<MissingValueError>());
  }
  if (type == "set_constant") {
    ICEWAFL_ASSIGN_OR_RETURN(Value value, GetValueField(json, "value", path));
    return ErrorFunctionPtr(
        std::make_unique<SetConstantError>(std::move(value)));
  }
  if (type == "incorrect_category") {
    ICEWAFL_ASSIGN_OR_RETURN(Json cats, GetField(json, "categories", path));
    if (!cats.is_array()) {
      return Status::TypeError("field at " + Sub(path, "categories") +
                               " must be an array of strings");
    }
    std::vector<std::string> categories;
    for (const Json& c : cats.items()) {
      if (!c.is_string()) {
        return Status::TypeError("field at " + Sub(path, "categories") +
                                 " must contain only strings");
      }
      categories.push_back(c.AsString());
    }
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
    return ErrorFunctionPtr(
        std::make_unique<CaseError>(json.GetDouble("flip_probability", 0.5)));
  }
  if (type == "truncate") {
    return ErrorFunctionPtr(std::make_unique<TruncateError>(
        static_cast<size_t>(json.GetInt("max_length", 0))));
  }
  if (type == "swap_attributes") {
    return ErrorFunctionPtr(std::make_unique<SwapAttributesError>());
  }
  if (type == "delay") {
    const int64_t delay = json.GetInt("delay_seconds", 0);
    if (delay < 0) {
      return Status::InvalidArgument("negative delay (" +
                                     std::to_string(delay) + "s) at " +
                                     Sub(path, "delay_seconds"));
    }
    return ErrorFunctionPtr(std::make_unique<DelayError>(delay));
  }
  if (type == "frozen_value") {
    return ErrorFunctionPtr(
        std::make_unique<FrozenValueError>(json.GetInt("hold_seconds", 0)));
  }
  if (type == "timestamp_shift") {
    return ErrorFunctionPtr(
        std::make_unique<TimestampShiftError>(json.GetInt("shift_seconds", 0)));
  }
  if (type == "timestamp_jitter") {
    return ErrorFunctionPtr(std::make_unique<TimestampJitterError>(
        json.GetInt("max_jitter_seconds", 0)));
  }
  if (type == "derived") {
    ICEWAFL_ASSIGN_OR_RETURN(Json base_json, GetField(json, "base", path));
    ICEWAFL_ASSIGN_OR_RETURN(Json profile_json,
                             GetField(json, "profile", path));
    ICEWAFL_ASSIGN_OR_RETURN(
        ErrorFunctionPtr base,
        ErrorFunctionFromJson(base_json, Sub(path, "base")));
    ICEWAFL_ASSIGN_OR_RETURN(
        TimeProfilePtr profile,
        TimeProfileFromJson(profile_json, Sub(path, "profile")));
    return ErrorFunctionPtr(std::make_unique<DerivedTemporalError>(
        std::move(base), std::move(profile)));
  }
  return Status::ParseError("unknown error type '" + type + "' at " +
                            AtPath(path));
}

Result<ConditionPtr> ConditionFromJson(const Json& json,
                                       const std::string& path) {
  if (!json.is_object()) {
    return Status::ParseError("condition description at " + AtPath(path) +
                              " must be a JSON object");
  }
  ICEWAFL_ASSIGN_OR_RETURN(std::string type,
                           RequireString(json, "type", path));
  if (type == "always") return ConditionPtr(std::make_unique<AlwaysCondition>());
  if (type == "never") return ConditionPtr(std::make_unique<NeverCondition>());
  if (type == "random") {
    ICEWAFL_ASSIGN_OR_RETURN(double p, RequireDouble(json, "p", path));
    return ConditionPtr(std::make_unique<RandomCondition>(p));
  }
  if (type == "value") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string attr,
                             RequireString(json, "attribute", path));
    ICEWAFL_ASSIGN_OR_RETURN(std::string op_text,
                             RequireString(json, "op", path));
    auto op = ParseCompareOp(op_text);
    if (!op.ok()) {
      return Status::ParseError("invalid op at " + Sub(path, "op") + ": " +
                                op.status().message());
    }
    Value operand;
    if (json.Has("operand")) {
      ICEWAFL_ASSIGN_OR_RETURN(operand, GetValueField(json, "operand", path));
    }
    return ConditionPtr(std::make_unique<ValueCondition>(
        std::move(attr), op.ValueOrDie(), std::move(operand)));
  }
  if (type == "time_window") {
    ICEWAFL_ASSIGN_OR_RETURN(
        Timestamp start, GetTimestampField(json, "start", INT64_MIN, path));
    ICEWAFL_ASSIGN_OR_RETURN(
        Timestamp end, GetTimestampField(json, "end", INT64_MAX, path));
    return ConditionPtr(std::make_unique<TimeWindowCondition>(start, end));
  }
  if (type == "daily_window") {
    return ConditionPtr(std::make_unique<DailyWindowCondition>(
        static_cast<int>(json.GetInt("start_minute", 0)),
        static_cast<int>(json.GetInt("end_minute", 1439))));
  }
  if (type == "profile_probability") {
    ICEWAFL_ASSIGN_OR_RETURN(Json profile_json,
                             GetField(json, "profile", path));
    ICEWAFL_ASSIGN_OR_RETURN(
        TimeProfilePtr profile,
        TimeProfileFromJson(profile_json, Sub(path, "profile")));
    return ConditionPtr(
        std::make_unique<ProfileProbabilityCondition>(std::move(profile)));
  }
  if (type == "and" || type == "or") {
    ICEWAFL_ASSIGN_OR_RETURN(Json children_json,
                             GetField(json, "children", path));
    if (!children_json.is_array()) {
      return Status::TypeError("field at " + Sub(path, "children") +
                               " must be an array");
    }
    std::vector<ConditionPtr> children;
    for (size_t i = 0; i < children_json.items().size(); ++i) {
      ICEWAFL_ASSIGN_OR_RETURN(
          ConditionPtr child,
          ConditionFromJson(children_json.items()[i],
                            SubIdx(Sub(path, "children"), i)));
      children.push_back(std::move(child));
    }
    if (type == "and") {
      return ConditionPtr(std::make_unique<AndCondition>(std::move(children)));
    }
    return ConditionPtr(std::make_unique<OrCondition>(std::move(children)));
  }
  if (type == "not") {
    ICEWAFL_ASSIGN_OR_RETURN(Json child_json, GetField(json, "child", path));
    ICEWAFL_ASSIGN_OR_RETURN(
        ConditionPtr child,
        ConditionFromJson(child_json, Sub(path, "child")));
    return ConditionPtr(std::make_unique<NotCondition>(std::move(child)));
  }
  if (type == "window_aggregate") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string attr,
                             RequireString(json, "attribute", path));
    ICEWAFL_ASSIGN_OR_RETURN(std::string agg_text,
                             RequireString(json, "agg", path));
    auto agg = ParseWindowAgg(agg_text);
    if (!agg.ok()) {
      return Status::ParseError("invalid agg at " + Sub(path, "agg") + ": " +
                                agg.status().message());
    }
    ICEWAFL_ASSIGN_OR_RETURN(std::string op_text,
                             RequireString(json, "op", path));
    auto op = ParseCompareOp(op_text);
    if (!op.ok()) {
      return Status::ParseError("invalid op at " + Sub(path, "op") + ": " +
                                op.status().message());
    }
    if (op.ValueOrDie() == CompareOp::kIsNull ||
        op.ValueOrDie() == CompareOp::kNotNull) {
      return Status::ParseError(
          "invalid op at " + Sub(path, "op") +
          ": window_aggregate does not support null comparison operator '" +
          op_text + "'");
    }
    ICEWAFL_ASSIGN_OR_RETURN(double threshold,
                             RequireDouble(json, "threshold", path));
    return ConditionPtr(std::make_unique<WindowAggregateCondition>(
        std::move(attr), json.GetInt("window_seconds", 0), agg.ValueOrDie(),
        op.ValueOrDie(), threshold));
  }
  if (type == "hold") {
    ICEWAFL_ASSIGN_OR_RETURN(Json inner_json, GetField(json, "inner", path));
    ICEWAFL_ASSIGN_OR_RETURN(
        ConditionPtr inner,
        ConditionFromJson(inner_json, Sub(path, "inner")));
    return ConditionPtr(std::make_unique<HoldCondition>(
        std::move(inner), json.GetInt("hold_seconds", 0)));
  }
  return Status::ParseError("unknown condition type '" + type + "' at " +
                            AtPath(path));
}

Result<PolluterPtr> PolluterFromJson(const Json& json,
                                     const std::string& path) {
  if (!json.is_object()) {
    return Status::ParseError("polluter description at " + AtPath(path) +
                              " must be a JSON object");
  }
  ICEWAFL_ASSIGN_OR_RETURN(std::string type,
                           RequireString(json, "type", path));
  const std::string label = json.GetString("label", type);
  if (type == "standard") {
    ICEWAFL_ASSIGN_OR_RETURN(Json error_json, GetField(json, "error", path));
    ICEWAFL_ASSIGN_OR_RETURN(
        ErrorFunctionPtr error,
        ErrorFunctionFromJson(error_json, Sub(path, "error")));
    ConditionPtr condition = std::make_unique<AlwaysCondition>();
    if (json.Has("condition")) {
      ICEWAFL_ASSIGN_OR_RETURN(Json cond_json, json.Get("condition"));
      ICEWAFL_ASSIGN_OR_RETURN(
          condition, ConditionFromJson(cond_json, Sub(path, "condition")));
    }
    std::vector<std::string> attributes;
    if (json.Has("attributes")) {
      ICEWAFL_ASSIGN_OR_RETURN(Json attrs, json.Get("attributes"));
      if (!attrs.is_array()) {
        return Status::TypeError("field at " + Sub(path, "attributes") +
                                 " must be an array");
      }
      for (const Json& a : attrs.items()) {
        if (!a.is_string()) {
          return Status::TypeError("field at " + Sub(path, "attributes") +
                                   " must contain only strings");
        }
        attributes.push_back(a.AsString());
      }
    }
    return PolluterPtr(std::make_unique<StandardPolluter>(
        label, std::move(error), std::move(condition), std::move(attributes)));
  }
  if (type == "sequential" || type == "exclusive") {
    ConditionPtr condition = std::make_unique<AlwaysCondition>();
    if (json.Has("condition")) {
      ICEWAFL_ASSIGN_OR_RETURN(Json cond_json, json.Get("condition"));
      ICEWAFL_ASSIGN_OR_RETURN(
          condition, ConditionFromJson(cond_json, Sub(path, "condition")));
    }
    ICEWAFL_ASSIGN_OR_RETURN(Json children_json,
                             GetField(json, "children", path));
    if (!children_json.is_array()) {
      return Status::TypeError("field at " + Sub(path, "children") +
                               " must be an array");
    }
    const std::string children_path = Sub(path, "children");
    if (type == "sequential") {
      auto composite =
          std::make_unique<SequentialPolluter>(label, std::move(condition));
      for (size_t i = 0; i < children_json.items().size(); ++i) {
        ICEWAFL_ASSIGN_OR_RETURN(
            PolluterPtr child,
            PolluterFromJson(children_json.items()[i],
                             SubIdx(children_path, i)));
        composite->Register(std::move(child));
      }
      return PolluterPtr(std::move(composite));
    }
    auto composite =
        std::make_unique<ExclusivePolluter>(label, std::move(condition));
    std::vector<double> weights;
    if (json.Has("weights")) {
      ICEWAFL_ASSIGN_OR_RETURN(Json w, json.Get("weights"));
      if (!w.is_array()) {
        return Status::TypeError("field at " + Sub(path, "weights") +
                                 " must be an array");
      }
      for (const Json& x : w.items()) {
        if (!x.is_number()) {
          return Status::TypeError("field at " + Sub(path, "weights") +
                                   " must contain only numbers");
        }
        weights.push_back(x.AsDouble());
      }
    }
    for (size_t i = 0; i < children_json.items().size(); ++i) {
      ICEWAFL_ASSIGN_OR_RETURN(
          PolluterPtr child,
          PolluterFromJson(children_json.items()[i], SubIdx(children_path, i)));
      composite->RegisterWeighted(std::move(child),
                                  i < weights.size() ? weights[i] : 1.0);
    }
    return PolluterPtr(std::move(composite));
  }
  return Status::ParseError("unknown polluter type '" + type + "' at " +
                            AtPath(path));
}

Result<PollutionPipeline> PipelineFromJson(const Json& json,
                                           SchemaPtr bind_schema) {
  if (!json.is_object()) {
    return Status::ParseError("pipeline description must be a JSON object");
  }
  if (g_pipeline_load_hook) {
    ICEWAFL_RETURN_NOT_OK(g_pipeline_load_hook(json));
  }
  PollutionPipeline pipeline(json.GetString("name", "pipeline"));
  ICEWAFL_ASSIGN_OR_RETURN(Json polluters, GetField(json, "polluters", ""));
  if (!polluters.is_array()) {
    return Status::TypeError("field at /polluters must be an array");
  }
  for (size_t i = 0; i < polluters.items().size(); ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(
        PolluterPtr polluter,
        PolluterFromJson(polluters.items()[i], SubIdx("/polluters", i)));
    pipeline.Add(std::move(polluter));
  }
  if (bind_schema != nullptr) {
    ICEWAFL_RETURN_NOT_OK(pipeline.Bind(std::move(bind_schema)));
  }
  return pipeline;
}

void SetPipelineLoadHook(PipelineLoadHook hook) {
  g_pipeline_load_hook = std::move(hook);
}

Result<PollutionPipeline> PipelineFromConfigString(const std::string& text,
                                                   SchemaPtr bind_schema) {
  ICEWAFL_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return PipelineFromJson(json, std::move(bind_schema));
}

Result<PollutionPipeline> PipelineFromConfigFile(const std::string& path,
                                                 SchemaPtr bind_schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open config file: '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return PipelineFromConfigString(buf.str(), std::move(bind_schema));
}

}  // namespace icewafl
