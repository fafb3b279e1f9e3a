#include "ts/generators.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/logging.h"

namespace dangoron {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Euclidean distance in degrees between two stations (adequate at the
// regional scale of the synthetic network).
double StationDistance(const StationInfo& a, const StationInfo& b) {
  const double dx = a.longitude - b.longitude;
  const double dy = a.latitude - b.latitude;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

Result<ClimateDataset> GenerateClimate(const ClimateSpec& spec) {
  if (spec.num_stations <= 0 || spec.num_hours <= 0) {
    return Status::InvalidArgument("GenerateClimate: empty dataset requested");
  }
  if (spec.missing_fraction < 0.0 || spec.missing_fraction >= 1.0) {
    return Status::InvalidArgument(
        "GenerateClimate: missing_fraction must be in [0, 1)");
  }
  if (spec.weather_persistence < 0.0 || spec.weather_persistence >= 1.0) {
    return Status::InvalidArgument(
        "GenerateClimate: weather_persistence must be in [0, 1)");
  }
  Rng rng(spec.seed);

  ClimateDataset dataset;
  dataset.stations.reserve(static_cast<size_t>(spec.num_stations));
  for (int64_t s = 0; s < spec.num_stations; ++s) {
    StationInfo station;
    station.wbanno = 10000 + s;
    station.longitude = -100.0 + rng.NextUniform(0.0, spec.region_degrees);
    station.latitude = 35.0 + rng.NextUniform(0.0, spec.region_degrees);
    dataset.stations.push_back(station);
  }

  // Weather field: a small set of spatial anchor factors, each an AR(1)
  // process; each station mixes the factors with distance-decaying weights.
  // This yields corr(station_i, station_j) that decays with distance without
  // requiring an N x N Cholesky factorization.
  const int64_t num_factors = std::min<int64_t>(spec.num_stations, 24);
  std::vector<StationInfo> anchors;
  anchors.reserve(static_cast<size_t>(num_factors));
  for (int64_t k = 0; k < num_factors; ++k) {
    StationInfo anchor;
    anchor.longitude = -100.0 + rng.NextUniform(0.0, spec.region_degrees);
    anchor.latitude = 35.0 + rng.NextUniform(0.0, spec.region_degrees);
    anchors.push_back(anchor);
  }

  // Mixing weights, row-normalized so each station's weather component has
  // unit variance before scaling by weather_stddev.
  std::vector<double> weights(
      static_cast<size_t>(spec.num_stations * num_factors));
  for (int64_t s = 0; s < spec.num_stations; ++s) {
    double norm = 0.0;
    for (int64_t k = 0; k < num_factors; ++k) {
      const double distance =
          StationDistance(dataset.stations[static_cast<size_t>(s)],
                          anchors[static_cast<size_t>(k)]);
      const double w =
          std::exp(-distance / spec.correlation_length_degrees);
      weights[static_cast<size_t>(s * num_factors + k)] = w;
      norm += w * w;
    }
    norm = std::sqrt(norm);
    for (int64_t k = 0; k < num_factors; ++k) {
      weights[static_cast<size_t>(s * num_factors + k)] /= norm;
    }
  }

  // Per-station phase offsets: diurnal cycles differ slightly by longitude.
  std::vector<double> diurnal_phase(static_cast<size_t>(spec.num_stations));
  std::vector<double> base_temp(static_cast<size_t>(spec.num_stations));
  for (int64_t s = 0; s < spec.num_stations; ++s) {
    diurnal_phase[static_cast<size_t>(s)] =
        kTwoPi * (dataset.stations[static_cast<size_t>(s)].longitude + 100.0) /
        360.0;
    // Cooler at higher latitude.
    base_temp[static_cast<size_t>(s)] =
        18.0 - 0.6 * (dataset.stations[static_cast<size_t>(s)].latitude - 35.0);
  }

  dataset.data = TimeSeriesMatrix(spec.num_stations, spec.num_hours);
  std::vector<double> factors(static_cast<size_t>(num_factors), 0.0);
  const double innovation_scale =
      std::sqrt(1.0 - spec.weather_persistence * spec.weather_persistence);
  // Burn in the AR(1) factors to their stationary distribution.
  for (int64_t k = 0; k < num_factors; ++k) {
    factors[static_cast<size_t>(k)] = rng.NextGaussian();
  }

  for (int64_t t = 0; t < spec.num_hours; ++t) {
    for (int64_t k = 0; k < num_factors; ++k) {
      factors[static_cast<size_t>(k)] =
          spec.weather_persistence * factors[static_cast<size_t>(k)] +
          innovation_scale * rng.NextGaussian();
    }
    const double hour_of_day = static_cast<double>(t % 24);
    const double day_of_year = static_cast<double>(t) / 24.0;
    const double seasonal =
        std::cos(kTwoPi * (day_of_year - 15.0) / 365.25);
    for (int64_t s = 0; s < spec.num_stations; ++s) {
      double weather = 0.0;
      const double* w = &weights[static_cast<size_t>(s * num_factors)];
      for (int64_t k = 0; k < num_factors; ++k) {
        weather += w[k] * factors[static_cast<size_t>(k)];
      }
      const double diurnal =
          std::cos(kTwoPi * hour_of_day / 24.0 +
                   diurnal_phase[static_cast<size_t>(s)]);
      const double value = base_temp[static_cast<size_t>(s)] -
                           spec.seasonal_amplitude * seasonal +
                           spec.diurnal_amplitude * diurnal +
                           spec.weather_stddev * weather +
                           spec.sensor_noise_stddev * rng.NextGaussian();
      dataset.data.Set(s, t, value);
    }
  }

  if (spec.missing_fraction > 0.0) {
    for (int64_t s = 0; s < spec.num_stations; ++s) {
      std::span<double> row = dataset.data.Row(s);
      for (double& v : row) {
        if (rng.NextBernoulli(spec.missing_fraction)) {
          v = MissingValue();
        }
      }
    }
  }

  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(spec.num_stations));
  for (const StationInfo& station : dataset.stations) {
    names.push_back(std::to_string(station.wbanno));
  }
  RETURN_IF_ERROR(dataset.data.SetSeriesNames(std::move(names)));
  return dataset;
}

void GenerateCorrelatedPair(int64_t length, double rho, Rng* rng,
                            std::vector<double>* x, std::vector<double>* y) {
  CHECK(rho >= -1.0 && rho <= 1.0);
  x->resize(static_cast<size_t>(length));
  y->resize(static_cast<size_t>(length));
  const double ortho = std::sqrt(1.0 - rho * rho);
  for (int64_t t = 0; t < length; ++t) {
    const double a = rng->NextGaussian();
    const double b = rng->NextGaussian();
    (*x)[static_cast<size_t>(t)] = a;
    (*y)[static_cast<size_t>(t)] = rho * a + ortho * b;
  }
}

TimeSeriesMatrix GenerateWhiteNoise(int64_t num_series, int64_t length,
                                    Rng* rng) {
  TimeSeriesMatrix matrix(num_series, length);
  for (int64_t s = 0; s < num_series; ++s) {
    for (double& v : matrix.Row(s)) {
      v = rng->NextGaussian();
    }
  }
  return matrix;
}

}  // namespace dangoron
