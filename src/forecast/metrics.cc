#include "forecast/metrics.h"

#include <cmath>

namespace icewafl {
namespace forecast {

namespace {

Status CheckSizes(const std::vector<double>& actual,
                  const std::vector<double>& predicted) {
  if (actual.size() != predicted.size()) {
    return Status::InvalidArgument(
        "series length mismatch: " + std::to_string(actual.size()) + " vs " +
        std::to_string(predicted.size()));
  }
  if (actual.empty()) {
    return Status::InvalidArgument("cannot score empty series");
  }
  return Status::OK();
}

}  // namespace

Result<double> MeanAbsoluteError(const std::vector<double>& actual,
                                 const std::vector<double>& predicted) {
  ICEWAFL_RETURN_NOT_OK(CheckSizes(actual, predicted));
  double sum = 0.0;
  for (size_t i = 0; i < actual.size(); ++i) {
    sum += std::abs(actual[i] - predicted[i]);
  }
  return sum / static_cast<double>(actual.size());
}

}  // namespace forecast
}  // namespace icewafl
