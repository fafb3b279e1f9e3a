#ifndef DANGORON_TS_GENERATORS_H_
#define DANGORON_TS_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

// ---------------------------------------------------------------------------
// Climate (USCRN-like) — the offline stand-in for the paper's NOAA dataset.
// ---------------------------------------------------------------------------

/// Location and identity of one synthetic weather station.
struct StationInfo {
  int64_t wbanno = 0;
  double longitude = 0.0;
  double latitude = 0.0;
};

/// Parameters of the synthetic USCRN-style hourly temperature network.
///
/// The generator reproduces the structure Dangoron's pruning exploits on the
/// real data: a shared seasonal + diurnal cycle (which makes most station
/// pairs highly correlated at long windows), spatially correlated weather
/// noise whose correlation decays with distance (so thresholding yields a
/// distance-structured network), and slowly drifting regimes (so window-to-
/// window correlation is stable).
struct ClimateSpec {
  int64_t num_stations = 64;
  int64_t num_hours = 24 * 365;
  /// Stations are scattered uniformly in a box of this many degrees.
  double region_degrees = 25.0;
  /// e-folding distance (degrees) of the weather-noise correlation.
  double correlation_length_degrees = 4.0;
  /// Defaults are calibrated so that at beta = 0.8 and 30-day windows the
  /// network is sparse (a few percent edge density) with substantial mass
  /// near the threshold — the regime the paper's evaluation operates in.
  /// The weather field dominates; the shared seasonal/diurnal cycles only
  /// add a mild correlation floor.
  double seasonal_amplitude = 6.0;   ///< deg C, annual harmonic
  double diurnal_amplitude = 2.0;    ///< deg C, daily harmonic
  double weather_stddev = 5.0;       ///< deg C, correlated noise component
  double sensor_noise_stddev = 1.0;  ///< deg C, per-station independent noise
  /// AR(1) coefficient of the shared weather factors; closer to 1 makes
  /// window-to-window correlations more stable but single-window sample
  /// correlations noisier (fewer effective samples per window).
  double weather_persistence = 0.9;
  /// Fraction of observations replaced by NaN (sensor dropouts).
  double missing_fraction = 0.0;
  uint64_t seed = 42;
};

/// A generated station network: data row `i` belongs to `stations[i]`.
struct ClimateDataset {
  TimeSeriesMatrix data;
  std::vector<StationInfo> stations;
};

/// Generates the synthetic climate network described by `spec`.
Result<ClimateDataset> GenerateClimate(const ClimateSpec& spec);

// ---------------------------------------------------------------------------
// Elementary generators (tests & microbenchmarks).
// ---------------------------------------------------------------------------

/// Pair of series whose population Pearson correlation is `rho`
/// (realized sample correlation converges to rho as length grows).
void GenerateCorrelatedPair(int64_t length, double rho, Rng* rng,
                            std::vector<double>* x, std::vector<double>* y);

/// Matrix of `num_series` i.i.d. standard Gaussian series (null model: all
/// true correlations are 0).
TimeSeriesMatrix GenerateWhiteNoise(int64_t num_series, int64_t length,
                                    Rng* rng);

}  // namespace dangoron

#endif  // DANGORON_TS_GENERATORS_H_
