#ifndef ICEWAFL_DATA_AIRQUALITY_H_
#define ICEWAFL_DATA_AIRQUALITY_H_

#include <string>
#include <vector>

#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {
namespace data {

/// \brief Configuration of the synthetic Beijing-style air-quality
/// stream.
///
/// Stands in for the UCI Beijing Multi-Site Air-Quality dataset used in
/// Experiment 2: hourly multivariate measurements over four years
/// (35,064 tuples per station, 18 attributes). The generator reproduces
/// the statistical structure the forecasting experiment depends on —
/// annual seasonality, diurnal cycles, autocorrelated residuals, and
/// cross-attribute correlation between NO2 and the weather covariates —
/// not the literal measurements.
struct AirQualityOptions {
  std::string station = "Wanshouxigong";
  /// First observation (paper: 2013-03-01 00:00).
  Timestamp start = 1362096000;  // 2013-03-01 00:00:00 UTC
  size_t hours = 35064;          // four years of hourly tuples
  uint64_t seed = 2013;
};

/// \brief Per-station climatology offsets; the three regions of the
/// paper's experiment are predefined (Gucheng, Wanshouxigong, Wanliu).
struct StationProfile {
  std::string name;
  double no2_base = 45.0;
  double no2_season_amp = 14.0;
  double no2_diurnal_amp = 9.0;
  double temp_offset = 0.0;
  uint64_t seed_offset = 0;
};

/// \brief Profile lookup for the paper's three regions; unknown names get
/// a default profile with a name-derived seed offset.
StationProfile StationProfileFor(const std::string& name);

/// \brief 18-attribute schema: timestamp, station, year, month, day,
/// hour, PM2_5, PM10, SO2, NO2, CO, O3, TEMP, PRES, DEWP, RAIN, WSPM, WD.
SchemaPtr AirQualitySchema();

/// \brief Generates one station's stream.
Result<TupleVector> GenerateAirQuality(const AirQualityOptions& options = {});

/// \brief The three regions of the paper's Experiment 2.
std::vector<std::string> PaperRegions();

/// \brief Generates the streams of all three paper regions with shared
/// non-station options; returned in PaperRegions() order.
Result<std::vector<TupleVector>> GenerateAllRegions(
    const AirQualityOptions& base = {});

/// \brief Extracts an attribute as a double series (NULLs forbidden —
/// impute first).
Result<std::vector<double>> ColumnAsDoubles(const TupleVector& tuples,
                                            const std::string& column);

/// \brief Extracts the timestamp attribute of every tuple.
Result<std::vector<Timestamp>> ColumnAsTimestamps(const TupleVector& tuples);

}  // namespace data
}  // namespace icewafl

#endif  // ICEWAFL_DATA_AIRQUALITY_H_
