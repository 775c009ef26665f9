#ifndef ICEWAFL_DQ_PROFILE_H_
#define ICEWAFL_DQ_PROFILE_H_

#include <map>
#include <string>
#include <vector>

#include "dq/suite.h"
#include "stream/tuple.h"

namespace icewafl {
namespace dq {

/// \brief Summary statistics of one column.
struct ColumnProfile {
  std::string column;
  ValueType declared_type = ValueType::kNull;
  uint64_t total = 0;
  uint64_t nulls = 0;
  uint64_t type_mismatches = 0;  ///< non-NULL values of a foreign type

  // Numeric statistics (over non-NULL numeric values).
  uint64_t numeric_count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;

  // Distinct rendered values, capped at `distinct_cap` (then counting
  // stops and `distinct_exceeded` is set).
  uint64_t distinct = 0;
  bool distinct_exceeded = false;
  /// The distinct values themselves while under the cap (categorical
  /// domains).
  std::vector<std::string> distinct_values;
};

/// \brief Options for profiling and suite suggestion.
struct ProfileOptions {
  /// Stop tracking distinct values beyond this many (memory bound).
  uint64_t distinct_cap = 64;
  /// Slack applied to numeric bounds when suggesting between-expectations:
  /// the suggested range is [min - slack*span, max + slack*span].
  double bound_slack = 0.1;
  /// Only suggest in-set expectations for string columns with at most
  /// this many distinct values.
  uint64_t max_categorical_domain = 16;
};

/// \brief Profiles every column of the stream.
Result<std::vector<ColumnProfile>> ProfileColumns(
    const TupleVector& tuples, const ProfileOptions& options = {});

/// \brief Renders profiles as a fixed-width table.
std::string ProfilesToReport(const std::vector<ColumnProfile>& profiles);

/// \brief Builds an expectation suite from the profile of a *clean*
/// stream — the Great-Expectations-profiler workflow: characteristics
/// observed in clean data become the constraints that flag pollution.
///
/// Suggested per column: not-null (if the clean column has no NULLs),
/// between with slack (numeric columns), of-type, and in-set (small
/// string domains). The timestamp column additionally gets an
/// increasing expectation.
Result<ExpectationSuite> SuggestSuite(const TupleVector& tuples,
                                      const ProfileOptions& options = {});

}  // namespace dq
}  // namespace icewafl

#endif  // ICEWAFL_DQ_PROFILE_H_
