#include "host_probe.hpp"

#include <unistd.h>

#include <algorithm>
#include <memory>

#include "stats.hpp"

namespace e2e {

namespace {

// Sixteen independent chains per kernel: eight multiply chains and eight
// add chains, each step undone by the next (×m then ×1/m, +s then −s) so
// values neither overflow nor decay into denormals. The factors arrive
// at run time, and the build pins -ffp-contract=off, so every pair stays
// one multiply and one add — the unfused arithmetic the library's
// kernels use. Returns a checksum so the loop cannot be discarded.
#define E2E_PEAK_KERNEL(NAME, TARGET, BYTES)                                \
  __attribute__((target(TARGET))) double NAME(long iters, double m,         \
                                              double minv, double s) {      \
    typedef double vec __attribute__((vector_size(BYTES)));                 \
    constexpr int kLanes = (BYTES) / 8;                                     \
    vec a[8], b[8];                                                         \
    for (int c = 0; c < 8; ++c) {                                           \
      for (int l = 0; l < kLanes; ++l) {                                    \
        a[c][l] = 1.0 + 0.01 * (c + l);                                     \
        b[c][l] = 0.5 + 0.01 * (c + l);                                     \
      }                                                                     \
    }                                                                       \
    for (long i = 0; i < iters; ++i) {                                      \
      for (int c = 0; c < 8; ++c) {                                         \
        a[c] = a[c] * m;                                                    \
        b[c] = b[c] + s;                                                    \
      }                                                                     \
      for (int c = 0; c < 8; ++c) {                                         \
        a[c] = a[c] * minv;                                                 \
        b[c] = b[c] - s;                                                    \
      }                                                                     \
    }                                                                       \
    double sum = 0.0;                                                       \
    for (int c = 0; c < 8; ++c) {                                           \
      for (int l = 0; l < kLanes; ++l) sum += a[c][l] + b[c][l];            \
    }                                                                       \
    return sum;                                                             \
  }

E2E_PEAK_KERNEL(peak_avx512, "avx512f", 64)
E2E_PEAK_KERNEL(peak_avx2, "avx2", 32)
E2E_PEAK_KERNEL(peak_sse2, "sse2", 16)

#undef E2E_PEAK_KERNEL

using PeakFn = double (*)(long, double, double, double);

struct PeakRung {
  PeakFn fn;
  const char* isa;
  int lanes;
};

PeakRung best_rung() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return {peak_avx512, "avx512f", 8};
  if (__builtin_cpu_supports("avx2")) return {peak_avx2, "avx2", 4};
  return {peak_sse2, "sse2", 2};
}

volatile double g_sink = 0.0;

double peak_probe(const PeakRung& rung) {
  // 32 vector ops (16 multiplies, 16 adds) of `lanes` doubles per step.
  const double flops_per_iter = 32.0 * rung.lanes;
  const double m = 1.0000001 + g_sink * 0.0;
  double best = 0.0;
  long iters = 1 << 16;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = now_s();
    g_sink = g_sink + rung.fn(iters, m, 1.0 / m, 1e-3);
    const double dt = now_s() - t0;
    if (dt < 0.05) {  // grow until one repetition takes at least 50 ms
      iters *= 2;
      --rep;
      continue;
    }
    best = std::max(best, flops_per_iter * static_cast<double>(iters) / dt);
  }
  return best * 1e-9;
}

std::size_t last_level_cache_bytes() {
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                         _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return std::size_t{32} << 20;  // unknown: assume a 32 MiB cache
}

double triad_probe(std::size_t n) {
  // Value-initialization and the fill below touch every page, so no
  // timed repetition pays first-touch page faults.
  const std::unique_ptr<double[]> a(new double[n]());
  const std::unique_ptr<double[]> b(new double[n]());
  const std::unique_ptr<double[]> c(new double[n]());
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0;
    c[i] = 2.0;
  }
  const double s = 3.0 + g_sink * 0.0;
  double best = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = now_s() - t0;
    g_sink = g_sink + a[n / 2];
    best = std::max(best, 24.0 * static_cast<double>(n) / dt);
  }
  return best * 1e-9;
}

}  // namespace

HostCeilings measure_host() {
  HostCeilings h;
  const PeakRung rung = best_rung();
  h.peak_isa = rung.isa;
  h.peak_gflops = peak_probe(rung);
  h.llc_bytes = last_level_cache_bytes();
  const std::size_t n = (4 * h.llc_bytes + 23) / 24;  // 3 arrays of 8 bytes
  h.triad_bytes = 24 * n;
  h.triad_gbps = triad_probe(n);
  return h;
}

double roofline_fraction(double gflops, double flop_per_byte,
                         const HostCeilings& host) {
  double bound = host.peak_gflops;
  if (flop_per_byte > 0.0 && host.triad_gbps > 0.0) {
    bound = std::min(bound, flop_per_byte * host.triad_gbps);
  }
  return bound > 0.0 ? gflops / bound : 0.0;
}

}  // namespace e2e
