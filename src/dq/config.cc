#include "dq/config.h"

#include <fstream>
#include <set>
#include <sstream>

namespace icewafl {
namespace dq {

namespace {

Result<ExpectationPtr> BuildExpectation(FieldReader& r,
                                        const std::string& type) {
  if (type == "expect_column_values_to_not_be_null") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    return ExpectationPtr(
        std::make_unique<ExpectColumnValuesToNotBeNull>(std::move(column)));
  }
  if (type == "expect_column_values_to_be_null") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    return ExpectationPtr(
        std::make_unique<ExpectColumnValuesToBeNull>(std::move(column)));
  }
  if (type == "expect_column_values_to_be_between") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    ICEWAFL_ASSIGN_OR_RETURN(double min, r.Number("min"));
    ICEWAFL_ASSIGN_OR_RETURN(double max, r.Number("max"));
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToBeBetween>(
        std::move(column), min, max));
  }
  if (type == "expect_column_values_to_match_regex") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    ICEWAFL_ASSIGN_OR_RETURN(std::string pattern, r.String("regex"));
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToMatchRegex>(
        std::move(column), std::move(pattern)));
  }
  if (type == "expect_column_values_to_be_increasing") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    ICEWAFL_ASSIGN_OR_RETURN(bool strictly, r.Bool("strictly", true));
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToBeIncreasing>(
        std::move(column), strictly));
  }
  if (type == "expect_column_pair_values_a_to_be_greater_than_b") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string a, r.String("column_a"));
    ICEWAFL_ASSIGN_OR_RETURN(std::string b, r.String("column_b"));
    ICEWAFL_ASSIGN_OR_RETURN(bool or_equal, r.Bool("or_equal", false));
    return ExpectationPtr(
        std::make_unique<ExpectColumnPairValuesAToBeGreaterThanB>(
            std::move(a), std::move(b), or_equal));
  }
  if (type == "expect_multicolumn_sum_to_equal") {
    ICEWAFL_ASSIGN_OR_RETURN(std::vector<std::string> columns,
                             r.Strings("columns"));
    ICEWAFL_ASSIGN_OR_RETURN(double total, r.Number("total"));
    ICEWAFL_ASSIGN_OR_RETURN(double tolerance, r.Number("tolerance", 1e-9));
    auto expectation = std::make_unique<ExpectMulticolumnSumToEqual>(
        std::move(columns), total, tolerance);
    if (r.Has("where_column")) {
      ICEWAFL_ASSIGN_OR_RETURN(std::string where_column,
                               r.String("where_column"));
      ICEWAFL_ASSIGN_OR_RETURN(double where_value, r.Number("where_value"));
      expectation->WhereColumnEquals(std::move(where_column), where_value);
    }
    return ExpectationPtr(std::move(expectation));
  }
  if (type == "expect_column_values_to_be_in_set") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    ICEWAFL_ASSIGN_OR_RETURN(std::vector<std::string> values,
                             r.Strings("values"));
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToBeInSet>(
        std::move(column),
        std::set<std::string>(values.begin(), values.end())));
  }
  if (type == "expect_column_values_to_be_unique") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    return ExpectationPtr(
        std::make_unique<ExpectColumnValuesToBeUnique>(std::move(column)));
  }
  if (type == "expect_column_mean_to_be_between" ||
      type == "expect_column_stdev_to_be_between") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    ICEWAFL_ASSIGN_OR_RETURN(double min, r.Number("min"));
    ICEWAFL_ASSIGN_OR_RETURN(double max, r.Number("max"));
    if (type == "expect_column_mean_to_be_between") {
      return ExpectationPtr(std::make_unique<ExpectColumnMeanToBeBetween>(
          std::move(column), min, max));
    }
    return ExpectationPtr(std::make_unique<ExpectColumnStdevToBeBetween>(
        std::move(column), min, max));
  }
  if (type == "expect_column_value_lengths_to_be_between") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    ICEWAFL_ASSIGN_OR_RETURN(size_t min, r.Int<size_t>("min_length"));
    ICEWAFL_ASSIGN_OR_RETURN(size_t max, r.Int<size_t>("max_length"));
    return ExpectationPtr(
        std::make_unique<ExpectColumnValueLengthsToBeBetween>(
            std::move(column), min, max));
  }
  if (type == "expect_column_values_to_be_of_type") {
    ICEWAFL_ASSIGN_OR_RETURN(std::string column, r.String("column"));
    ICEWAFL_ASSIGN_OR_RETURN(std::string type_name, r.String("value_type"));
    auto value_type = ValueTypeFromName(type_name);
    if (!value_type.ok()) {
      return r.Fail(value_type.status().code(), "value_type",
                    value_type.status().message());
    }
    return ExpectationPtr(std::make_unique<ExpectColumnValuesToBeOfType>(
        std::move(column), value_type.ValueOrDie()));
  }
  return r.Fail(StatusCode::kParseError, "type",
                "unknown expectation type '" + type + "'");
}

}  // namespace

Result<ExpectationPtr> ExpectationFromJson(const Json& json,
                                           const std::string& path,
                                           Diagnostics* diags) {
  FieldReader r(json, path, diags);
  ICEWAFL_RETURN_NOT_OK(r.ExpectObject("expectation description"));
  ICEWAFL_ASSIGN_OR_RETURN(std::string type, r.String("type"));
  ICEWAFL_ASSIGN_OR_RETURN(ExpectationPtr expectation,
                           BuildExpectation(r, type));
  r.Done();
  return expectation;
}

Result<const Json::Array*> ExpectationsOf(const Json& json,
                                          Diagnostics* diags,
                                          std::string* name) {
  FieldReader r(json, "", diags);
  ICEWAFL_RETURN_NOT_OK(r.ExpectObject("suite description"));
  ICEWAFL_ASSIGN_OR_RETURN(std::string read_name, r.String("name", "suite"));
  ICEWAFL_ASSIGN_OR_RETURN(const Json::Array* expectations,
                           r.Array("expectations"));
  r.Done();
  if (name != nullptr) *name = std::move(read_name);
  return expectations;
}

Result<ExpectationSuite> SuiteFromJson(const Json& json, SchemaPtr bind_schema,
                                       Diagnostics* diags) {
  std::string name;
  ICEWAFL_ASSIGN_OR_RETURN(const Json::Array* expectations,
                           ExpectationsOf(json, diags, &name));
  ExpectationSuite suite(std::move(name));
  // Every entry is loaded, so `diags` holds each one's findings; the
  // first failure is the result.
  Status first;
  for (size_t i = 0; i < expectations->size(); ++i) {
    auto expectation = ExpectationFromJson(
        (*expectations)[i], "/expectations/" + std::to_string(i), diags);
    if (expectation.ok()) {
      suite.Add(std::move(expectation).ValueOrDie());
    } else if (first.ok()) {
      first = expectation.status();
    }
  }
  ICEWAFL_RETURN_NOT_OK(first);
  if (bind_schema != nullptr) {
    ICEWAFL_RETURN_NOT_OK(suite.Bind(std::move(bind_schema), diags));
  }
  return suite;
}

Result<ExpectationSuite> SuiteFromConfigFile(const std::string& path,
                                             SchemaPtr bind_schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open suite file: '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  ICEWAFL_ASSIGN_OR_RETURN(Json json, Json::Parse(buf.str()));
  return SuiteFromJson(json, std::move(bind_schema));
}

}  // namespace dq
}  // namespace icewafl
