#ifndef ICEWAFL_TESTS_SUPPORT_CONFIG_TEXT_H_
#define ICEWAFL_TESTS_SUPPORT_CONFIG_TEXT_H_

// Loads config documents from JSON text: Json::Parse, then the loader.
// The file loaders do the same after reading the file; tests keep their
// documents inline.

#include <string>

#include "clean/config.h"
#include "core/config.h"
#include "dq/config.h"

namespace icewafl {

inline Result<PollutionPipeline> PipelineFromText(
    const std::string& text, SchemaPtr bind_schema = nullptr) {
  ICEWAFL_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return PipelineFromJson(json, std::move(bind_schema));
}

inline Result<dq::ExpectationSuite> SuiteFromText(
    const std::string& text, SchemaPtr bind_schema = nullptr) {
  ICEWAFL_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return dq::SuiteFromJson(json, std::move(bind_schema));
}

inline Result<clean::CleaningRules> RulesFromText(
    const std::string& text, SchemaPtr bind_schema = nullptr) {
  ICEWAFL_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
  return clean::RulesFromJson(json, std::move(bind_schema));
}

}  // namespace icewafl

#endif  // ICEWAFL_TESTS_SUPPORT_CONFIG_TEXT_H_
