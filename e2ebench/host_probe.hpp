// Host ceilings measured in the benchmark's own run, so kernel rates can
// be read as a share of what this machine can do rather than what the
// library's build baseline can do.
#pragma once

#include <cstddef>

namespace e2e {

struct HostCeilings {
  /// One core's unfused multiply + add rate, on the widest vector ISA
  /// the CPU reports (not the ISA the library was compiled for).
  double peak_gflops = 0.0;
  const char* peak_isa = "";
  /// One core's STREAM-triad bandwidth (a = b + s·c, 24 bytes/element).
  double triad_gbps = 0.0;
  std::size_t triad_bytes = 0;  ///< total size of the three triad arrays
  std::size_t llc_bytes = 0;    ///< last-level cache the CPU reports
};

/// Runs both probes (about a second, plus first touch of the triad
/// arrays, which are sized at four times the last-level cache).
HostCeilings measure_host();

/// Roofline share: achieved GF/s over min(peak, intensity × bandwidth).
double roofline_fraction(double gflops, double flop_per_byte,
                         const HostCeilings& host);

}  // namespace e2e
