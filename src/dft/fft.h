#ifndef DANGORON_DFT_FFT_H_
#define DANGORON_DFT_FFT_H_

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace dangoron {

/// In-place discrete Fourier transform of arbitrary length.
///
/// Forward transform: X_k = sum_t x_t * exp(-2*pi*i*k*t/n)  (unnormalized).
/// Inverse transform: x_t = (1/n) * sum_k X_k * exp(+2*pi*i*k*t/n).
///
/// Power-of-two sizes use the iterative radix-2 algorithm; other sizes use
/// Bluestein's chirp-z reduction to a power-of-two convolution, so every
/// length runs in O(n log n). Length 0 is an error.
Status Fft(std::vector<std::complex<double>>* data, bool inverse);

/// O(n^2) direct evaluation of the same transform; the test oracle for Fft.
std::vector<std::complex<double>> DirectDft(
    std::span<const std::complex<double>> input, bool inverse);

/// Forward DFT of a real series, returning the non-redundant half spectrum:
/// n real values -> floor(n/2) + 1 complex coefficients (X_0 .. X_{n/2}).
/// The discarded upper half is determined by Hermitian symmetry
/// X_{n-k} = conj(X_k).
Result<std::vector<std::complex<double>>> RealDft(
    std::span<const double> input);

/// The paper's real-valued inverse DFT: maps a half spectrum (as produced by
/// RealDft) of an intended length-`n` real series back to the n real values,
/// moving from complex space directly to real space.
///
/// Requirements for an exactly real reconstruction (violations are reported
/// as InvalidArgument): `spectrum.size() == n/2 + 1`, `Im(X_0) == 0`, and for
/// even n, `Im(X_{n/2}) == 0`.
Result<std::vector<double>> InverseRealDft(
    std::span<const std::complex<double>> spectrum, int64_t n);

}  // namespace dangoron

#endif  // DANGORON_DFT_FFT_H_
