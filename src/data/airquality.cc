#include "data/airquality.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace icewafl {
namespace data {

namespace {

constexpr double kHoursPerYear = 8766.0;  // average over leap cycle

const char* const kWindDirections[] = {"N",  "NNE", "NE", "ENE", "E",  "ESE",
                                       "SE", "SSE", "S",  "SSW", "SW", "WSW",
                                       "W",  "WNW", "NW", "NNW"};

}  // namespace

StationProfile StationProfileFor(const std::string& name) {
  if (name == "Gucheng") {
    return {"Gucheng", 52.0, 16.0, 10.0, -0.6, 11};
  }
  if (name == "Wanshouxigong") {
    return {"Wanshouxigong", 48.0, 14.0, 9.0, 0.2, 22};
  }
  if (name == "Wanliu") {
    return {"Wanliu", 44.0, 13.0, 8.5, 0.0, 33};
  }
  StationProfile profile;
  profile.name = name;
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the station name
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  profile.seed_offset = h;
  return profile;
}

SchemaPtr AirQualitySchema() {
  auto schema = Schema::Make(
      {
          {"timestamp", ValueType::kInt64},
          {"station", ValueType::kString},
          {"year", ValueType::kInt64},
          {"month", ValueType::kInt64},
          {"day", ValueType::kInt64},
          {"hour", ValueType::kInt64},
          {"PM2_5", ValueType::kDouble},
          {"PM10", ValueType::kDouble},
          {"SO2", ValueType::kDouble},
          {"NO2", ValueType::kDouble},
          {"CO", ValueType::kDouble},
          {"O3", ValueType::kDouble},
          {"TEMP", ValueType::kDouble},
          {"PRES", ValueType::kDouble},
          {"DEWP", ValueType::kDouble},
          {"RAIN", ValueType::kDouble},
          {"WSPM", ValueType::kDouble},
          {"WD", ValueType::kString},
      },
      "timestamp");
  return schema.ValueOrDie();
}

Result<TupleVector> GenerateAirQuality(const AirQualityOptions& options) {
  if (options.hours == 0) return Status::InvalidArgument("hours must be > 0");
  const StationProfile profile = StationProfileFor(options.station);
  Rng rng(options.seed + profile.seed_offset);

  SchemaPtr schema = AirQualitySchema();
  TupleVector tuples;
  tuples.reserve(options.hours);

  // AR(1) residual states give the series realistic short-term memory.
  double no2_resid = 0.0;
  double temp_resid = 0.0;
  double pm_resid = 0.0;
  double wind_resid = 0.0;

  for (size_t i = 0; i < options.hours; ++i) {
    const Timestamp ts =
        options.start + static_cast<Timestamp>(i) * kSecondsPerHour;
    const CivilTime ct = CivilFromTimestamp(ts);
    const double hours_elapsed = static_cast<double>(i);
    const double annual =
        2.0 * M_PI * hours_elapsed / kHoursPerYear;  // phase 0 = March
    const double hour = static_cast<double>(ct.hour);
    const double diurnal = 2.0 * M_PI * hour / 24.0;

    // Temperature: annual cycle (phase-shifted so July peaks), diurnal
    // cycle peaking mid-afternoon, AR(1) weather noise.
    temp_resid = 0.92 * temp_resid + rng.Gaussian(0.0, 1.1);
    const double temp = 13.0 + profile.temp_offset +
                        14.0 * std::sin(annual - 0.35) +
                        4.0 * std::sin(diurnal - 2.6) + temp_resid;

    // Wind: autocorrelated and strictly positive; strong winds disperse
    // pollutants, which couples NO2 to this covariate.
    wind_resid = 0.85 * wind_resid + rng.Gaussian(0.0, 0.55);
    const double wspm = std::max(0.1, 1.8 + wind_resid);

    // NO2: winter maximum (anti-phase to temperature), morning/evening
    // rush-hour bumps, dispersion by wind, AR(1) residual. Clamped
    // positive. The wind and temperature terms give exogenous-aware
    // forecasters (ARIMAX) real signal to exploit.
    no2_resid = 0.85 * no2_resid + rng.Gaussian(0.0, 3.0);
    const double rush = 6.0 * std::exp(-0.5 * std::pow((hour - 8.0) / 2.0, 2)) +
                        7.0 * std::exp(-0.5 * std::pow((hour - 19.0) / 2.5, 2));
    double no2 = profile.no2_base -
                 profile.no2_season_amp * std::sin(annual - 0.35) + rush +
                 profile.no2_diurnal_amp * std::sin(diurnal - 1.0) -
                 6.5 * (wspm - 1.8) - 0.35 * temp_resid + no2_resid;
    no2 = std::max(2.0, no2);

    // Particulate matter correlates with NO2; PM10 rides on PM2.5.
    pm_resid = 0.9 * pm_resid + rng.Gaussian(0.0, 8.0);
    const double pm25 = std::max(3.0, 0.9 * no2 + 15.0 + pm_resid);
    const double pm10 = pm25 + std::max(0.0, rng.Gaussian(25.0, 10.0));

    const double so2 = std::max(1.0, 12.0 - 6.0 * std::sin(annual - 0.35) +
                                         rng.Gaussian(0.0, 3.0));
    const double co = std::max(100.0, 16.0 * no2 + rng.Gaussian(150.0, 80.0));
    // Ozone is anti-correlated with NO2 and peaks in summer afternoons.
    const double o3 =
        std::max(1.0, 60.0 + 35.0 * std::sin(annual - 0.35) +
                          20.0 * std::sin(diurnal - 2.6) - 0.4 * no2 +
                          rng.Gaussian(0.0, 8.0));
    const double pres =
        1012.0 - 8.0 * std::sin(annual - 0.35) - 0.25 * temp_resid +
        rng.Gaussian(0.0, 2.0);
    const double dewp = temp - std::max(0.5, rng.Gaussian(6.0, 2.5));
    const double rain =
        rng.Bernoulli(0.05) ? std::abs(rng.Gaussian(0.0, 2.5)) : 0.0;
    const std::string wd =
        kWindDirections[rng.UniformInt(0, 15)];

    tuples.emplace_back(
        schema,
        std::vector<Value>{
            Value(ts), Value(profile.name), Value(int64_t{ct.year}),
            Value(int64_t{ct.month}), Value(int64_t{ct.day}),
            Value(int64_t{ct.hour}), Value(pm25), Value(pm10), Value(so2),
            Value(no2), Value(co), Value(o3), Value(temp),
            Value(pres), Value(dewp), Value(rain), Value(wspm), Value(wd)});
  }
  return tuples;
}

Result<std::vector<double>> ColumnAsDoubles(const TupleVector& tuples,
                                            const std::string& column) {
  std::vector<double> out;
  out.reserve(tuples.size());
  if (tuples.empty()) return out;
  ICEWAFL_ASSIGN_OR_RETURN(size_t idx,
                           tuples.front().schema()->IndexOf(column));
  for (const Tuple& t : tuples) {
    const Value& v = t.value(idx);
    if (v.is_null()) {
      return Status::InvalidArgument("NULL in column '" + column +
                                     "' — impute before extraction");
    }
    ICEWAFL_ASSIGN_OR_RETURN(double x, v.ToDouble());
    out.push_back(x);
  }
  return out;
}

Result<std::vector<Timestamp>> ColumnAsTimestamps(const TupleVector& tuples) {
  std::vector<Timestamp> out;
  out.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    ICEWAFL_ASSIGN_OR_RETURN(Timestamp ts, t.GetTimestamp());
    out.push_back(ts);
  }
  return out;
}

}  // namespace data
}  // namespace icewafl
