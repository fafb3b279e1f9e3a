#ifndef DANGORON_TS_RESAMPLE_H_
#define DANGORON_TS_RESAMPLE_H_

#include <cstdint>

#include "common/status.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// Fills NaN gaps in every series in place.
///
/// Interior gaps are linearly interpolated between the nearest observed
/// neighbours; leading/trailing gaps are filled by extending the first/last
/// observation. A series with no observed value at all is an error — the
/// caller must drop it instead. This implements the paper's synchronization
/// prerequisite ("achieved through aggregation and interpolation").
Status InterpolateMissing(TimeSeriesMatrix* matrix);

}  // namespace dangoron

#endif  // DANGORON_TS_RESAMPLE_H_
