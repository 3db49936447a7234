// Self-tests for the benchmark's own arithmetic (stats.hpp):
//   nadmm_e2e --self-test
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1.0 + std::fabs(b)); }

void test_quantiles() {
  using e2e::median;
  using e2e::quantile;
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3.0}) == 3.0, "median of one sample");
  expect(median({5.0, 1.0, 3.0}) == 3.0, "odd median ignores order");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median interpolates");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // Type 7: position 0.9 * 99 = 89.1 → 90 + 0.1 * (91 − 90).
  expect(near(quantile(hundred, 0.9), 90.1), "p90 of 1..100 is 90.1");
  expect(near(quantile(hundred, 0.5), 50.5), "p50 of 1..100 is 50.5");
  expect(near(quantile(hundred, 0.25), 25.75), "p25 of 1..100 is 25.75");
  expect(quantile({1.0, 2.0}, 1.0) == 2.0, "p100 is the maximum");
  expect(quantile({1.0, 2.0}, 0.0) == 1.0, "p0 is the minimum");
  expect(e2e::mean({}) == 0.0 && e2e::mean({1.0, 2.0, 6.0}) == 3.0, "mean");
}

void test_percentile_rule() {
  using e2e::percentile_supported;
  using e2e::samples_beyond;
  expect(samples_beyond(100, 900) == 10, "100 samples: 10 beyond p90");
  expect(samples_beyond(99, 900) == 9, "99 samples: 9 beyond p90");
  expect(percentile_supported(100, 900), "p90 needs 100 samples");
  expect(!percentile_supported(99, 900), "99 samples do not support p90");
  expect(percentile_supported(20, 500), "p50 needs 20 samples");
  expect(!percentile_supported(19, 500), "19 samples do not support p50");
  // The lower quartile mirrors p75: ten samples below it need 40.
  expect(percentile_supported(40, 750), "p25 needs 40 samples");
  expect(!percentile_supported(39, 750), "39 samples do not support p25");
  expect(percentile_supported(1000, 990), "p99 needs 1000 samples");
  expect(!percentile_supported(999, 990), "999 samples do not support p99");
}

void test_tally() {
  e2e::Tally t;
  expect(t.failed_frac() == 0.0, "no operations: failed_frac 0");
  t.record(true);
  t.record(false);
  t.record(true);
  t.record(true);
  expect(t.attempted == 4 && t.failed == 1, "tally counts attempts and failures");
  expect(t.failed_frac() == 0.25, "failed_frac = failed / attempted");
}

void test_fingerprints() {
  const e2e::Fingerprint fp = {{"objective", e2e::fmt17(0.1)},
                               {"x_fnv", e2e::hex64(42)}};
  const std::string recorded = e2e::to_string(fp);
  expect(recorded == "objective=0.10000000000000001;x_fnv=000000000000002a",
         "fingerprint text is %.17g and 16 hex digits");
  expect(e2e::fingerprint_mismatches(recorded, fp).empty(), "identical fingerprints match");
  e2e::Fingerprint changed = fp;
  changed[0].second = e2e::fmt17(std::nextafter(0.1, 1.0));
  const auto bad = e2e::fingerprint_mismatches(recorded, changed);
  expect(bad.size() == 1 && bad[0] == "objective", "a one-ulp change is a mismatch");
  const e2e::Fingerprint shorter = {fp[0]};
  const auto missing = e2e::fingerprint_mismatches(recorded, shorter);
  expect(missing.size() == 1 && missing[0] == "x_fnv", "a missing field is a mismatch");
  const double a[] = {1.0, -0.0};
  const double b[] = {1.0, 0.0};
  expect(e2e::fnv1a_doubles(a) != e2e::fnv1a_doubles(b), "hash sees the sign of zero");
}

void test_self_time() {
  using e2e::Interval;
  // Thread 0: local_step [0,10) holds gemm [1,3) and gemm [4,5);
  // diagnostics [10,14) holds gemm [11,12) — not local_step's child.
  // Thread 1: a span overlapping thread 0's times nests on its own.
  const std::vector<Interval> spans = {
      {"la.gemm", 0, 1.0, 3.0, 0.0, 10, 5},
      {"core.local_step", 0, 0.0, 10.0, 0.0, 0, 0},
      {"la.gemm", 0, 4.0, 5.0, 0.0, 10, 5},
      {"core.diagnostics", 0, 10.0, 14.0, 0.0, 0, 0},
      {"la.gemm", 0, 11.0, 12.0, 0.0, 10, 5},
      {"core.local_step", 1, 2.0, 6.0, 0.0, 0, 0},
  };
  auto t = e2e::self_times(spans);
  expect(near(t["core.local_step"].self_s, 7.0 + 4.0), "local_step self excludes its kernels");
  expect(near(t["core.local_step"].inclusive_s, 14.0), "inclusive sums both threads");
  expect(near(t["core.diagnostics"].self_s, 3.0), "diagnostics' gemm is its own child");
  expect(near(t["la.gemm"].self_s, 4.0) && t["la.gemm"].calls == 3, "leaf self = duration");
  expect(t["la.gemm"].flops == 30, "flops add up");
  // A grandchild is subtracted from its parent only, not the root.
  const std::vector<Interval> deep = {
      {"root", 0, 0.0, 10.0, 0.0, 0, 0},
      {"mid", 0, 1.0, 9.0, 0.0, 0, 0},
      {"leaf", 0, 2.0, 4.0, 0.0, 0, 0},
  };
  auto d = e2e::self_times(deep);
  expect(near(d["root"].self_s, 2.0) && near(d["mid"].self_s, 6.0) &&
             near(d["leaf"].self_s, 2.0),
         "self times partition the root");
  // A child that shares its parent's start still nests under it.
  const std::vector<Interval> tie = {
      {"child", 0, 0.0, 1.0, 0.0, 0, 0},
      {"parent", 0, 0.0, 3.0, 0.0, 0, 0},
  };
  auto s = e2e::self_times(tie);
  expect(near(s["parent"].self_s, 2.0), "equal starts nest the longer span outside");
}

}  // namespace

int run_self_tests() {
  test_quantiles();
  test_percentile_rule();
  test_tally();
  test_fingerprints();
  test_self_time();
  std::printf("self-test: %s (%d failure%s)\n", g_failures ? "FAILED" : "ok",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
