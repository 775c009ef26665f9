#ifndef ICEWAFL_FORECAST_METRICS_H_
#define ICEWAFL_FORECAST_METRICS_H_

#include <vector>

#include "util/result.h"

namespace icewafl {
namespace forecast {

/// \brief Mean absolute error between actual and predicted series.
Result<double> MeanAbsoluteError(const std::vector<double>& actual,
                                 const std::vector<double>& predicted);

}  // namespace forecast
}  // namespace icewafl

#endif  // ICEWAFL_FORECAST_METRICS_H_
