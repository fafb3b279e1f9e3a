#include "dft/fft.h"

#include <cmath>
#include <numbers>

#include "common/logging.h"
#include "common/math_utils.h"

namespace dangoron {

namespace {

using Cplx = std::complex<double>;

constexpr double kPi = std::numbers::pi;

// In-place iterative radix-2 Cooley-Tukey; `data` size must be a power of 2.
void FftRadix2(std::vector<Cplx>* data, bool inverse) {
  std::vector<Cplx>& a = *data;
  const size_t n = a.size();
  DCHECK(IsPowerOfTwo(static_cast<int64_t>(n)));

  // Bit-reversal permutation.
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      std::swap(a[i], a[j]);
    }
  }

  for (size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * kPi / static_cast<double>(len);
    const Cplx wlen(std::cos(angle), std::sin(angle));
    for (size_t i = 0; i < n; i += len) {
      Cplx w(1.0, 0.0);
      for (size_t j = 0; j < len / 2; ++j) {
        const Cplx u = a[i + j];
        const Cplx v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

// Bluestein chirp-z: arbitrary-length DFT via one power-of-two convolution.
void FftBluestein(std::vector<Cplx>* data, bool inverse) {
  std::vector<Cplx>& x = *data;
  const int64_t n = static_cast<int64_t>(x.size());
  const double sign = inverse ? 1.0 : -1.0;

  // Chirp factors w_k = exp(sign * i * pi * k^2 / n). Reduce k^2 mod 2n
  // before converting to an angle to keep precision at large n.
  std::vector<Cplx> chirp(static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) {
    const int64_t k2_mod = static_cast<int64_t>(
        (static_cast<unsigned __int128>(k) * static_cast<uint64_t>(k)) %
        static_cast<uint64_t>(2 * n));
    const double angle = sign * kPi * static_cast<double>(k2_mod) /
                         static_cast<double>(n);
    chirp[static_cast<size_t>(k)] = Cplx(std::cos(angle), std::sin(angle));
  }

  const int64_t m = NextPowerOfTwo(2 * n - 1);
  std::vector<Cplx> a(static_cast<size_t>(m), Cplx(0.0, 0.0));
  std::vector<Cplx> b(static_cast<size_t>(m), Cplx(0.0, 0.0));
  for (int64_t k = 0; k < n; ++k) {
    a[static_cast<size_t>(k)] =
        x[static_cast<size_t>(k)] * chirp[static_cast<size_t>(k)];
    b[static_cast<size_t>(k)] = std::conj(chirp[static_cast<size_t>(k)]);
  }
  for (int64_t k = 1; k < n; ++k) {
    b[static_cast<size_t>(m - k)] = b[static_cast<size_t>(k)];
  }

  FftRadix2(&a, /*inverse=*/false);
  FftRadix2(&b, /*inverse=*/false);
  for (int64_t k = 0; k < m; ++k) {
    a[static_cast<size_t>(k)] *= b[static_cast<size_t>(k)];
  }
  FftRadix2(&a, /*inverse=*/true);
  const double scale = 1.0 / static_cast<double>(m);

  for (int64_t k = 0; k < n; ++k) {
    x[static_cast<size_t>(k)] =
        a[static_cast<size_t>(k)] * scale * chirp[static_cast<size_t>(k)];
  }
}

}  // namespace

Status Fft(std::vector<Cplx>* data, bool inverse) {
  if (data == nullptr || data->empty()) {
    return Status::InvalidArgument("Fft: empty input");
  }
  const int64_t n = static_cast<int64_t>(data->size());
  if (IsPowerOfTwo(n)) {
    FftRadix2(data, inverse);
  } else {
    FftBluestein(data, inverse);
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (Cplx& value : *data) {
      value *= scale;
    }
  }
  return Status::Ok();
}

std::vector<Cplx> DirectDft(std::span<const Cplx> input, bool inverse) {
  const int64_t n = static_cast<int64_t>(input.size());
  std::vector<Cplx> output(static_cast<size_t>(n), Cplx(0.0, 0.0));
  const double sign = inverse ? 1.0 : -1.0;
  for (int64_t k = 0; k < n; ++k) {
    Cplx sum(0.0, 0.0);
    for (int64_t t = 0; t < n; ++t) {
      const double angle = sign * 2.0 * kPi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      sum += input[static_cast<size_t>(t)] *
             Cplx(std::cos(angle), std::sin(angle));
    }
    output[static_cast<size_t>(k)] =
        inverse ? sum / static_cast<double>(n) : sum;
  }
  return output;
}

Result<std::vector<Cplx>> RealDft(std::span<const double> input) {
  if (input.empty()) {
    return Status::InvalidArgument("RealDft: empty input");
  }
  const int64_t n = static_cast<int64_t>(input.size());
  std::vector<Cplx> buffer(input.size());
  for (size_t t = 0; t < input.size(); ++t) {
    buffer[t] = Cplx(input[t], 0.0);
  }
  RETURN_IF_ERROR(Fft(&buffer, /*inverse=*/false));
  buffer.resize(static_cast<size_t>(n / 2 + 1));
  return buffer;
}

Result<std::vector<double>> InverseRealDft(std::span<const Cplx> spectrum,
                                           int64_t n) {
  if (n <= 0) {
    return Status::InvalidArgument("InverseRealDft: n must be positive");
  }
  const int64_t expected = n / 2 + 1;
  if (static_cast<int64_t>(spectrum.size()) != expected) {
    return Status::InvalidArgument("InverseRealDft: expected ", expected,
                                   " half-spectrum coefficients for n=", n,
                                   ", got ", spectrum.size());
  }
  constexpr double kImagTolerance = 1e-9;
  if (std::fabs(spectrum[0].imag()) > kImagTolerance) {
    return Status::InvalidArgument(
        "InverseRealDft: DC coefficient must be real");
  }
  if (n % 2 == 0 &&
      std::fabs(spectrum[static_cast<size_t>(n / 2)].imag()) >
          kImagTolerance) {
    return Status::InvalidArgument(
        "InverseRealDft: Nyquist coefficient must be real for even n");
  }

  // Expand to the full Hermitian spectrum and run one inverse FFT. The
  // Hermitian structure guarantees the imaginary parts cancel, so we read
  // back only the real parts — the "complex space to real space" transition
  // of the paper's variant.
  std::vector<Cplx> full(static_cast<size_t>(n));
  for (int64_t k = 0; k < expected; ++k) {
    full[static_cast<size_t>(k)] = spectrum[static_cast<size_t>(k)];
  }
  for (int64_t k = expected; k < n; ++k) {
    full[static_cast<size_t>(k)] =
        std::conj(spectrum[static_cast<size_t>(n - k)]);
  }
  RETURN_IF_ERROR(Fft(&full, /*inverse=*/true));

  std::vector<double> output(static_cast<size_t>(n));
  for (int64_t t = 0; t < n; ++t) {
    output[static_cast<size_t>(t)] = full[static_cast<size_t>(t)].real();
  }
  return output;
}

}  // namespace dangoron
