#include "dq/suite.h"

#include "util/strings.h"

namespace icewafl {
namespace dq {

bool SuiteResult::success() const {
  for (const ExpectationResult& r : results) {
    if (!r.success) return false;
  }
  return true;
}

uint64_t SuiteResult::TotalUnexpected() const {
  uint64_t total = 0;
  for (const ExpectationResult& r : results) total += r.unexpected;
  return total;
}

std::vector<uint64_t> SuiteResult::FailureHourHistogram() const {
  std::vector<uint64_t> hist(24, 0);
  for (const ExpectationResult& r : results) {
    const std::vector<uint64_t> h = r.FailureHourHistogram();
    for (size_t i = 0; i < 24; ++i) hist[i] += h[i];
  }
  return hist;
}

std::string SuiteResult::ToReport() const {
  std::string out;
  for (const ExpectationResult& r : results) {
    out += r.success ? "[ OK ] " : "[FAIL] ";
    out += r.expectation;
    out += "(";
    out += r.column;
    out += "): ";
    out += std::to_string(r.unexpected);
    out += "/";
    out += std::to_string(r.evaluated);
    out += " unexpected";
    if (!std::isnan(r.observed)) {
      out += ", observed=";
      out += FormatDouble(r.observed, 4);
    }
    out += "\n";
  }
  return out;
}

void PublishSuiteResult(const SuiteResult& result,
                        const std::string& suite_name,
                        obs::MetricRegistry* registry) {
  if (registry == nullptr) return;
  obs::Counter* passed = registry->GetCounter(
      "icewafl_dq_expectations_total",
      {{"suite", suite_name}, {"result", "pass"}},
      "Expectation validations by outcome");
  obs::Counter* failed = registry->GetCounter(
      "icewafl_dq_expectations_total",
      {{"suite", suite_name}, {"result", "fail"}},
      "Expectation validations by outcome");
  for (const ExpectationResult& r : result.results) {
    if (r.success) {
      if (passed != nullptr) passed->Increment();
    } else {
      if (failed != nullptr) failed->Increment();
    }
    obs::Counter* unexpected = registry->GetCounter(
        "icewafl_dq_unexpected_total",
        {{"suite", suite_name},
         {"expectation", r.expectation},
         {"column", r.column}},
        "Unexpected elements per expectation");
    if (unexpected != nullptr) unexpected->Increment(r.unexpected);
  }
}

Status ExpectationSuite::Bind(SchemaPtr schema, Diagnostics* diags) {
  if (schema == nullptr) {
    return Status::InvalidArgument("suite '" + name_ +
                                   "': cannot bind to a null schema");
  }
  for (size_t i = 0; i < expectations_.size(); ++i) {
    BindContext ctx(*schema, "/expectations/" + std::to_string(i));
    Status status = expectations_[i]->Bind(ctx);
    if (!status.ok()) {
      if (diags != nullptr) {
        diags->AddError("IW100", ctx.error_path(), ctx.error_message());
      }
      return status;
    }
  }
  bound_schema_ = std::move(schema);
  return Status::OK();
}

Result<SuiteResult> ExpectationSuite::Validate(
    const TupleVector& tuples) const {
  SuiteResult suite_result;
  suite_result.results.reserve(expectations_.size());
  for (const ExpectationPtr& e : expectations_) {
    ICEWAFL_ASSIGN_OR_RETURN(ExpectationResult r, e->Validate(tuples));
    suite_result.results.push_back(std::move(r));
  }
  return suite_result;
}

Json ExpectationSuite::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("name", name_);
  Json arr = Json::MakeArray();
  for (const ExpectationPtr& e : expectations_) arr.Append(e->ToJson());
  j.Set("expectations", std::move(arr));
  return j;
}

}  // namespace dq
}  // namespace icewafl
