// Arithmetic of the end-to-end benchmark: order statistics with the
// "ten samples beyond" rule, failure accounting, output fingerprints,
// and self time from nested wall-clock spans. Header-only; self_test.cpp
// checks it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "support/binio.hpp"

namespace e2e {

/// Host seconds on the monotonic clock (the span stamps' clock too).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linearly interpolated quantile (the "type 7" rule NumPy uses by
/// default); q in [0, 1]. Returns 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Arithmetic mean; 0 for an empty sample.
inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double d : v) sum += d;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Samples that lie above the `per_mille`/1000 percentile of `n` samples:
/// n − ⌈n·q⌉, in integer arithmetic so 100 samples at p90 give exactly 10.
inline std::size_t samples_beyond(std::size_t n, unsigned per_mille) {
  const std::size_t rank = (n * per_mille + 999) / 1000;
  return n - std::min(n, rank);
}

/// A percentile may be reported only when at least ten samples lie
/// beyond it (p50 needs 20 samples, p90 needs 100, p99 needs 1000).
inline bool percentile_supported(std::size_t n, unsigned per_mille) {
  return samples_beyond(n, per_mille) >= 10;
}

/// Operations attempted and failed. An operation is one solver run, one
/// replay or one sweep; it fails when it throws, misses its target or
/// fails its output check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// FNV-1a over the exact bit patterns of a double vector (host byte
/// order, as the values sit in memory).
inline std::uint64_t fnv1a_doubles(std::span<const double> v) {
  return nadmm::binio::fnv1a(
      {reinterpret_cast<const std::uint8_t*>(v.data()), v.size_bytes()});
}

/// %.17g: the shortest printf form that round-trips every double.
inline std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// An output fingerprint: ordered `key=value` fields joined by ';'.
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

inline std::string to_string(const Fingerprint& fp) {
  std::string out;
  for (const auto& [k, v] : fp) {
    if (!out.empty()) out += ';';
    out += k + '=' + v;
  }
  return out;
}

inline Fingerprint parse_fingerprint(const std::string& s) {
  Fingerprint fp;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find(';', pos);
    if (end == std::string::npos) end = s.size();
    const std::string field = s.substr(pos, end - pos);
    const std::size_t eq = field.find('=');
    if (eq != std::string::npos) {
      fp.emplace_back(field.substr(0, eq), field.substr(eq + 1));
    }
    pos = end + 1;
  }
  return fp;
}

/// Keys whose values differ between a recorded reference and an actual
/// fingerprint, including keys present on one side only. Empty means
/// the output matches the reference exactly.
inline std::vector<std::string> fingerprint_mismatches(
    const std::string& expected, const Fingerprint& actual) {
  std::map<std::string, std::string> want;
  for (const auto& [k, v] : parse_fingerprint(expected)) want[k] = v;
  std::vector<std::string> bad;
  for (const auto& [k, v] : actual) {
    const auto it = want.find(k);
    if (it == want.end() || it->second != v) bad.push_back(k);
    if (it != want.end()) want.erase(it);
  }
  for (const auto& [k, v] : want) bad.push_back(k);
  return bad;
}

/// One wall-clock interval on one host thread. Spans on the same thread
/// nest: a span that starts inside another and ends inside it is its
/// child.
struct Interval {
  std::string name;
  int thread = 0;
  double begin = 0.0;  ///< host seconds
  double end = 0.0;
  double sim = 0.0;    ///< simulated seconds the span covered
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
};

/// Per-name totals over a set of intervals.
struct LayerTime {
  double self_s = 0.0;       ///< duration minus the direct children's
  double inclusive_s = 0.0;  ///< full duration
  double sim_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
};

/// Self time by nesting, per thread: each interval's self time is its
/// duration minus the durations of the intervals directly inside it.
/// Intervals are ordered by (begin ascending, end descending) so a
/// parent precedes the children that share its start.
inline std::map<std::string, LayerTime> self_times(
    std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.end > b.end;
            });
  std::vector<double> child(spans.size(), 0.0);
  std::vector<std::size_t> open;  // indices of enclosing intervals
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() &&
           (spans[open.back()].thread != spans[i].thread ||
            spans[open.back()].end <= spans[i].begin)) {
      open.pop_back();
    }
    if (!open.empty()) child[open.back()] += spans[i].end - spans[i].begin;
    open.push_back(i);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Interval& s = spans[i];
    LayerTime& t = out[s.name];
    const double dur = s.end - s.begin;
    t.inclusive_s += dur;
    t.self_s += std::max(0.0, dur - child[i]);
    t.sim_s += s.sim;
    t.flops += s.flops;
    t.bytes += s.bytes;
    ++t.calls;
  }
  return out;
}

}  // namespace e2e
