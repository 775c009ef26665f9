#ifndef ICEWAFL_DQ_SUITE_H_
#define ICEWAFL_DQ_SUITE_H_

#include <string>
#include <vector>

#include "dq/expectation.h"
#include "obs/metrics.h"
#include "util/diag.h"

namespace icewafl {
namespace dq {

/// \brief Result of validating an expectation suite.
struct SuiteResult {
  std::vector<ExpectationResult> results;

  /// \brief True iff every expectation succeeded.
  bool success() const;

  /// \brief Total unexpected element count across expectations.
  uint64_t TotalUnexpected() const;

  /// \brief Per-hour histogram of all failures across expectations.
  std::vector<uint64_t> FailureHourHistogram() const;

  /// \brief Human-readable validation report.
  std::string ToReport() const;
};

/// \brief Publishes a validation outcome to `registry`: pass/fail counts
/// per suite (`icewafl_dq_expectations_total{suite,result}`) and the
/// unexpected-element count per expectation
/// (`icewafl_dq_unexpected_total{suite,expectation,column}`). Counters
/// accumulate across repeated validations of the same suite. No-op when
/// `registry` is nullptr.
void PublishSuiteResult(const SuiteResult& result,
                        const std::string& suite_name,
                        obs::MetricRegistry* registry);

/// \brief An ordered collection of expectations validated together —
/// the analogue of a Great Expectations expectation suite.
class ExpectationSuite {
 public:
  ExpectationSuite() = default;
  explicit ExpectationSuite(std::string name) : name_(std::move(name)) {}

  ExpectationSuite(ExpectationSuite&&) = default;
  ExpectationSuite& operator=(ExpectationSuite&&) = default;

  const std::string& name() const { return name_; }

  void Add(ExpectationPtr expectation) {
    expectations_.push_back(std::move(expectation));
  }

  /// \brief Builder-style add, enabling
  /// `suite.Expect<ExpectColumnValuesToNotBeNull>("Distance")`.
  template <typename T, typename... Args>
  ExpectationSuite& Expect(Args&&... args) {
    expectations_.push_back(std::make_unique<T>(std::forward<Args>(args)...));
    return *this;
  }

  size_t size() const { return expectations_.size(); }

  /// \brief Binds every expectation against `schema` (DESIGN.md section
  /// 8). Errors carry the expectation's JSON-pointer path, e.g.
  /// "at /expectations/2/column: unknown attribute ...". After a
  /// successful Bind, Validate runs without per-call column resolution.
  /// A failure is also reported into `diags` (when non-null) as IW100 at
  /// its pointer.
  Status Bind(SchemaPtr schema, Diagnostics* diags = nullptr);

  /// \brief The schema this suite was bound against, or nullptr.
  const SchemaPtr& bound_schema() const { return bound_schema_; }

  /// \brief Validates all expectations against the stream.
  Result<SuiteResult> Validate(const TupleVector& tuples) const;

  /// \brief Config representation; round-trips through
  /// dq::SuiteFromJson (dq/config.h).
  Json ToJson() const;

 private:
  std::string name_ = "suite";
  std::vector<ExpectationPtr> expectations_;
  SchemaPtr bound_schema_;
};

}  // namespace dq
}  // namespace icewafl

#endif  // ICEWAFL_DQ_SUITE_H_
