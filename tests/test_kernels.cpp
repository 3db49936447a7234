// Kernel-engine tests: parity of every rewired kernel against the seed
// reference implementations (kernels::reference) and an independent naive
// oracle, across degenerate shapes and the alpha/beta grid; dense-vs-CSR
// dispatch parity; fixed-thread-count bit-determinism of the two-phase
// reductions; the fused softmax forward; and the bytes-moved accounting
// feeding the device roofline.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "la/dense_matrix.hpp"
#include "la/flops.hpp"
#include "la/kernels.hpp"
#include "la/sparse_matrix.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace nadmm::la {
namespace {

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& e : v) e = rng.normal();
  return v;
}

DenseMatrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  DenseMatrix m(r, c);
  for (double& e : m.data()) e = rng.normal();
  return m;
}

CsrMatrix random_csr(std::size_t r, std::size_t c, double density, Rng& rng) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if (rng.bernoulli(density)) t.push_back({i, j, rng.normal()});
    }
  }
  return CsrMatrix(r, c, std::move(t));
}

void expect_matrices_near(const DenseMatrix& got, const DenseMatrix& want,
                          double tol, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const double scale = std::abs(want.at(i, j)) + 1.0;
      EXPECT_NEAR(got.at(i, j), want.at(i, j), tol * scale)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

/// Temporarily pin the OpenMP thread count (no-op without OpenMP).
class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) {
#ifdef _OPENMP
    prev_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    static_cast<void>(threads);
#endif
  }
  ~ThreadGuard() {
#ifdef _OPENMP
    omp_set_num_threads(prev_);
#endif
  }

 private:
  int prev_ = 1;
};

constexpr double kAlphas[] = {0.0, 1.0, 0.75};
constexpr double kBetas[] = {0.0, 1.0, -0.5};

// ---------------------------------------------------------- dense parity

TEST(KernelEngine, GemmNnMatchesReferenceAcrossShapesAndAlphaBeta) {
  Rng rng(11);
  // Row tails (m mod 4), strip tails (n mod 8), 1×N / N×1, tall and wide.
  const std::size_t shapes[][3] = {{1, 1, 1},   {5, 7, 3},   {64, 129, 9},
                                   {1, 300, 1}, {257, 2, 8}, {4, 8, 8},
                                   {6, 5, 16},  {7, 3, 17},  {3, 200, 23},
                                   {100, 1, 9}};
  for (const auto& sh : shapes) {
    const std::size_t m = sh[0], k = sh[1], n = sh[2];
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    const auto c0 = random_matrix(m, n, rng);
    for (double alpha : kAlphas) {
      for (double beta : kBetas) {
        DenseMatrix c = c0, c_ref = c0;
        gemm_nn(alpha, a, b, beta, c);
        kernels::reference::gemm_nn(alpha, a, b, beta, c_ref);
        expect_matrices_near(c, c_ref, 1e-12, "gemm_nn");
      }
    }
  }
}

TEST(KernelEngine, GemmTnMatchesReferenceAcrossShapesAndAlphaBeta) {
  Rng rng(12);
  const std::size_t shapes[][3] = {{1, 1, 1},  {6, 4, 3},   {200, 33, 9},
                                   {1, 5, 2},  {513, 7, 1}, {3, 1, 19},
                                   {50, 64, 8}};
  for (const auto& sh : shapes) {
    const std::size_t k = sh[0], m = sh[1], n = sh[2];
    const auto a = random_matrix(k, m, rng);  // used transposed
    const auto b = random_matrix(k, n, rng);
    const auto c0 = random_matrix(m, n, rng);
    for (double alpha : kAlphas) {
      for (double beta : kBetas) {
        DenseMatrix c = c0, c_ref = c0;
        gemm_tn(alpha, a, b, beta, c);
        kernels::reference::gemm_tn(alpha, a, b, beta, c_ref);
        expect_matrices_near(c, c_ref, 1e-12, "gemm_tn");
      }
    }
  }
}

TEST(KernelEngine, GemvTMatchesReferenceAcrossShapesAndAlphaBeta) {
  Rng rng(13);
  const std::size_t shapes[][2] = {{1, 1}, {7, 5}, {300, 17}, {2, 257}, {129, 3}};
  for (const auto& sh : shapes) {
    const std::size_t k = sh[0], m = sh[1];
    const auto a = random_matrix(k, m, rng);
    const auto x = random_vec(k, rng);
    const auto y0 = random_vec(m, rng);
    for (double alpha : kAlphas) {
      for (double beta : kBetas) {
        auto y = y0, y_ref = y0;
        gemv_t(alpha, a, x, beta, y);
        kernels::reference::gemv_t(alpha, a, x, beta, y_ref);
        for (std::size_t j = 0; j < m; ++j) {
          EXPECT_NEAR(y[j], y_ref[j], 1e-12 * (std::abs(y_ref[j]) + 1.0));
        }
      }
    }
  }
}

TEST(KernelEngine, DegenerateShapesMatchBetaScaling) {
  Rng rng(14);
  // k = 0: C must become beta·C without reading any A/B data.
  const DenseMatrix a0(0, 4), b0(0, 3);
  const auto c0 = random_matrix(4, 3, rng);
  for (double beta : kBetas) {
    DenseMatrix c = c0;
    gemm_tn(0.5, a0, b0, beta, c);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_DOUBLE_EQ(c.at(i, j), beta * c0.at(i, j));
      }
    }
  }
  // m = 0 / n = 0 outputs: must not touch anything (empty buffers).
  DenseMatrix c_empty(0, 5);
  gemm_nn(1.0, DenseMatrix(0, 7), DenseMatrix(7, 5), 0.0, c_empty);
  DenseMatrix c_nocols(5, 0);
  gemm_nn(1.0, DenseMatrix(5, 7), DenseMatrix(7, 0), 1.0, c_nocols);
  // Empty CSR: C = beta·C.
  const CsrMatrix empty(6, 4, {});
  const auto cs0 = random_matrix(4, 2, rng);
  DenseMatrix cs = cs0;
  spmm_tn(2.0, empty, DenseMatrix(6, 2), -0.5, cs);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(cs.at(i, j), -0.5 * cs0.at(i, j));
    }
  }
  // k = 0 gemv_t.
  std::vector<double> y{1.0, 2.0};
  gemv_t(1.0, DenseMatrix(0, 2), std::vector<double>{}, 0.0, y);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
}

// ---------------------------------------------------------- sparse parity

TEST(KernelEngine, SpmmTnMatchesReferenceIncludingSkewedRows) {
  Rng rng(15);
  std::vector<CsrMatrix> mats;
  mats.push_back(random_csr(50, 20, 0.15, rng));
  mats.push_back(random_csr(100, 40, 0.02, rng));  // many empty rows
  // Wide output (cols ≫ nnz/team): exercises the transpose/gather path,
  // including trailing empty columns that only see the beta scaling.
  mats.push_back(random_csr(60, 800, 0.01, rng));
  {
    // Heavily skewed: one dense row dominates the nonzero count, which
    // exercises the nnz-balanced row partition.
    std::vector<Triplet> t;
    for (std::size_t j = 0; j < 30; ++j) t.push_back({0, j, rng.normal()});
    for (std::size_t i = 10; i < 40; ++i) t.push_back({i, i % 30, rng.normal()});
    mats.push_back(CsrMatrix(40, 30, std::move(t)));
  }
  for (const auto& a : mats) {
    const auto b = random_matrix(a.rows(), 5, rng);
    const auto c0 = random_matrix(a.cols(), 5, rng);
    for (double alpha : kAlphas) {
      for (double beta : kBetas) {
        DenseMatrix c = c0, c_ref = c0;
        spmm_tn(alpha, a, b, beta, c);
        kernels::reference::spmm_tn(alpha, a, b, beta, c_ref);
        expect_matrices_near(c, c_ref, 1e-12, "spmm_tn");
      }
    }
  }
}

TEST(KernelEngine, DenseAndCsrDispatchAgree) {
  Rng rng(16);
  const auto sp = random_csr(60, 25, 0.2, rng);
  const auto dn = sp.to_dense();
  std::vector<std::int32_t> labels(60);
  for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(3));
  const auto ds_dense = data::Dataset::dense(dn, labels, 3);
  const auto ds_sparse = data::Dataset::sparse(sp, labels, 3);

  const auto x = random_matrix(25, 2, rng);
  DenseMatrix s_dense(60, 2), s_sparse(60, 2);
  ds_dense.scores(x, s_dense);
  ds_sparse.scores(x, s_sparse);
  expect_matrices_near(s_sparse, s_dense, 1e-11, "scores dispatch");

  const auto w = random_matrix(60, 2, rng);
  DenseMatrix g_dense(25, 2), g_sparse(25, 2);
  ds_dense.accumulate_gradient(1.0, w, 0.0, g_dense);
  ds_sparse.accumulate_gradient(1.0, w, 0.0, g_sparse);
  expect_matrices_near(g_sparse, g_dense, 1e-11, "gradient dispatch");
}

// ---------------------------------------------------------- determinism

TEST(KernelEngine, TwoPhaseReductionsAreBitDeterministicAtFixedThreads) {
  Rng rng(17);
  // Large enough to clear the parallel threshold (2·k·m·n ≥ 2^17).
  const auto a = random_matrix(2000, 64, rng);
  const auto b = random_matrix(2000, 9, rng);
  const auto sp = random_csr(500, 300, 0.05, rng);
  const auto bs = random_matrix(500, 9, rng);
  const auto sp_wide = random_csr(300, 2000, 0.01, rng);  // transpose path
  const auto bw = random_matrix(300, 9, rng);
  const auto x = random_vec(2000, rng);

  for (int threads : {1, 3, 4}) {
    ThreadGuard guard(threads);
    DenseMatrix c1(64, 9), c2(64, 9);
    gemm_tn(1.0, a, b, 0.0, c1);
    gemm_tn(1.0, a, b, 0.0, c2);
    ASSERT_EQ(0, std::memcmp(c1.data().data(), c2.data().data(),
                             c1.size() * sizeof(double)))
        << "gemm_tn not deterministic at " << threads << " threads";

    DenseMatrix s1(300, 9), s2(300, 9);
    spmm_tn(1.0, sp, bs, 0.0, s1);
    spmm_tn(1.0, sp, bs, 0.0, s2);
    ASSERT_EQ(0, std::memcmp(s1.data().data(), s2.data().data(),
                             s1.size() * sizeof(double)))
        << "spmm_tn not deterministic at " << threads << " threads";

    DenseMatrix w1(2000, 9), w2(2000, 9);
    spmm_tn(1.0, sp_wide, bw, 0.0, w1);
    spmm_tn(1.0, sp_wide, bw, 0.0, w2);
    ASSERT_EQ(0, std::memcmp(w1.data().data(), w2.data().data(),
                             w1.size() * sizeof(double)))
        << "spmm_tn (transpose path) not deterministic at " << threads
        << " threads";

    std::vector<double> y1(64, 0.0), y2(64, 0.0);
    gemv_t(1.0, a, x, 0.0, y1);
    gemv_t(1.0, a, x, 0.0, y2);
    ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(), y1.size() * sizeof(double)))
        << "gemv_t not deterministic at " << threads << " threads";
  }
}

// ---------------------------------------------------------- softmax

/// Independent high-precision oracle for one softmax row.
void softmax_row_oracle(std::span<const double> s, std::vector<double>& p,
                        double& lse) {
  long double m = 0.0L;
  for (double v : s) m = std::max(m, static_cast<long double>(v));
  long double alpha = std::exp(-m);
  p.assign(s.size(), 0.0);
  for (std::size_t j = 0; j < s.size(); ++j) {
    const long double e = std::exp(static_cast<long double>(s[j]) - m);
    p[j] = static_cast<double>(e);
    alpha += e;
  }
  for (std::size_t j = 0; j < s.size(); ++j) {
    p[j] = static_cast<double>(p[j] / static_cast<double>(alpha));
  }
  lse = static_cast<double>(m + std::log(alpha));
}

TEST(KernelEngine, FusedSoftmaxForwardMatchesOracleAndReference) {
  const std::size_t c = 9;
  // Rows engineered to stress the online max: ascending (max updates every
  // step), descending (one update), all-negative (implicit class wins),
  // huge magnitudes (stabilization), plus random rows.
  std::vector<std::vector<double>> rows;
  rows.push_back({1, 2, 3, 4, 5, 6, 7, 8, 9});
  rows.push_back({9, 8, 7, 6, 5, 4, 3, 2, 1});
  rows.push_back({-5, -4, -3, -2, -1, -9, -8, -7, -6});
  rows.push_back({400, -400, 0, 1, -1, 200, -200, 0.5, -0.5});
  Rng rng(18);
  for (int i = 0; i < 40; ++i) {
    std::vector<double> r(c);
    for (double& v : r) v = 10.0 * rng.normal();
    rows.push_back(std::move(r));
  }

  const std::size_t n = rows.size();
  DenseMatrix scores(n, c);
  std::vector<std::int32_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), scores.row(i).begin());
    // Cycle through all labels including the implicit class c.
    labels[i] = static_cast<std::int32_t>(i % (c + 1));
  }

  DenseMatrix probs(n, c), probs_ref(n, c);
  std::vector<double> lse(n), lse_ref(n);
  const double loss = kernels::softmax_forward(scores, labels, probs, lse);
  const double loss_ref =
      kernels::reference::softmax_forward(scores, labels, probs_ref, lse_ref);

  double loss_oracle = 0.0;
  std::vector<double> p_oracle;
  for (std::size_t i = 0; i < n; ++i) {
    double lse_o = 0.0;
    softmax_row_oracle(scores.row(i), p_oracle, lse_o);
    EXPECT_NEAR(lse[i], lse_o, 1e-11 * (std::abs(lse_o) + 1.0)) << "row " << i;
    for (std::size_t j = 0; j < c; ++j) {
      EXPECT_NEAR(probs.at(i, j), p_oracle[j], 1e-12) << i << "," << j;
    }
    const auto y = static_cast<std::size_t>(labels[i]);
    loss_oracle += lse_o - (y < c ? scores.at(i, y) : 0.0);
  }
  EXPECT_NEAR(loss, loss_oracle, 1e-9 * (std::abs(loss_oracle) + 1.0));
  EXPECT_NEAR(loss, loss_ref, 1e-9 * (std::abs(loss_ref) + 1.0));
  expect_matrices_near(probs, probs_ref, 1e-11, "softmax probs");
}

TEST(KernelEngine, FusedSoftmaxForwardIsDeterministicAtFixedThreads) {
  Rng rng(19);
  const std::size_t n = 4000, c = 9;  // above the parallel-row threshold
  const auto scores = random_matrix(n, c, rng);
  std::vector<std::int32_t> labels(n);
  for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(c + 1));
  for (int threads : {1, 4}) {
    ThreadGuard guard(threads);
    DenseMatrix p1(n, c), p2(n, c);
    std::vector<double> l1(n), l2(n);
    const double loss1 = kernels::softmax_forward(scores, labels, p1, l1);
    const double loss2 = kernels::softmax_forward(scores, labels, p2, l2);
    EXPECT_EQ(std::memcmp(&loss1, &loss2, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(p1.data().data(), p2.data().data(),
                          p1.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(l1.data(), l2.data(), n * sizeof(double)), 0);
  }
}

// ---------------------------------------------------------- bytes/roofline

TEST(KernelEngine, KernelsCreditBytesMoved) {
  flops::reset();
  DenseMatrix a(4, 5), b(5, 6), c(4, 6);
  gemm_nn(1.0, a, b, 0.0, c);
  // Compulsory traffic: A + B read once, C written once (beta = 0).
  EXPECT_EQ(flops::read_bytes(), 8u * (4 * 5 + 5 * 6 + 4 * 6));
  flops::reset();
  gemm_nn(1.0, a, b, 1.0, c);  // beta != 0: C is read and written
  EXPECT_EQ(flops::read_bytes(), 8u * (4 * 5 + 5 * 6 + 2 * 4 * 6));
  flops::reset();
  const CsrMatrix sp(2, 3, {{0, 1, 1.0}, {1, 2, 2.0}});
  DenseMatrix bs(2, 4), cs(3, 4);
  spmm_tn(1.0, sp, bs, 0.0, cs);
  EXPECT_EQ(flops::read_bytes(), 16u * 2 + 8u * 3 + 8u * (2 * 4 + 3 * 4));
  EXPECT_GT(flops::read(), 0u);
}

TEST(KernelEngine, SparseProductsKeepTheirFlopAndByteLedger) {
  // Simulated time is charged from these counters, so the sparse
  // wrappers must credit exactly 2·nnz·n flops and the compulsory
  // traffic: CSR (16 B per nonzero + row pointers), the dense operand
  // once, the output once (twice when beta != 0).
  Rng rng(71);
  const auto full = random_csr(40, 30, 0.2, rng);
  const CsrView view = full.view(7, 33);
  const std::uint64_t nnz = view.nnz(), rows = 26, cols = 30, n = 5;
  ASSERT_GT(nnz, 0u);
  const auto x = random_matrix(cols, n, rng);
  const auto w = random_matrix(rows, n, rng);
  for (const double beta : {0.0, 0.5}) {
    const std::uint64_t passes = beta != 0.0 ? 2 : 1;
    const std::uint64_t csr = 16 * nnz + 8 * (rows + 1);
    DenseMatrix s(rows, n);
    flops::reset();
    spmm_nn(1.0, view, x, beta, s);
    EXPECT_EQ(flops::read(), 2 * nnz * n);
    EXPECT_EQ(flops::read_bytes(), csr + 8 * (cols * n + passes * rows * n));
    DenseMatrix g(cols, n);
    flops::reset();
    spmm_tn(1.0, view, w, beta, g);
    EXPECT_EQ(flops::read(), 2 * nnz * n);
    EXPECT_EQ(flops::read_bytes(), csr + 8 * (rows * n + passes * cols * n));
  }
  flops::reset();
}

TEST(KernelEngine, FlopsScopeTracksBytes) {
  flops::reset();
  flops::Scope scope;
  flops::add_bytes(123);
  flops::add(7);
  EXPECT_EQ(scope.elapsed_bytes(), 123u);
  EXPECT_EQ(scope.elapsed(), 7u);
  flops::reset();
  EXPECT_EQ(flops::read_bytes(), 0u);
}

// --------------------------------------------------- row-range shard views
//
// The shard-native data plane runs every rank on a zero-copy row-range
// view of the parent matrix. These tests pin the contract the solvers
// rely on: a view's products are BIT-identical to running on a copied
// shard, at every thread count the engine supports.

TEST(ShardViews, DenseViewProductsMatchCopiedShardBitwise) {
  Rng rng(41);
  const std::size_t k = 300, m = 17, n = 5;  // samples × features × classes
  const auto full = random_matrix(k, m, rng);
  const auto b = random_matrix(k, n, rng);
  const auto bx = random_matrix(m, n, rng);
  const auto x = random_vec(k, rng);
  // An interior shard with awkward boundaries.
  const std::size_t lo = 37, hi = 221;
  DenseMatrix copy(hi - lo, m);
  for (std::size_t r = lo; r < hi; ++r) {
    const auto row = full.row(r);
    std::copy(row.begin(), row.end(), copy.row(r - lo).begin());
  }
  DenseMatrix b_sub(hi - lo, n);
  for (std::size_t r = lo; r < hi; ++r) {
    const auto row = b.row(r);
    std::copy(row.begin(), row.end(), b_sub.row(r - lo).begin());
  }
  const std::vector<double> x_sub(x.begin() + lo, x.begin() + hi);

  for (const int threads : {1, 2, 3, 4, 8}) {
    ThreadGuard guard(threads);
    // gemm_tn: view of A against the same panel as the copy.
    DenseMatrix g_view(m, n), g_copy(m, n);
    kernels::gemm_tn(1.0, full.view(lo, hi), b_sub, 0.0, g_view);
    kernels::gemm_tn(1.0, copy, b_sub, 0.0, g_copy);
    for (std::size_t e = 0; e < g_view.size(); ++e) {
      ASSERT_EQ(g_view.data()[e], g_copy.data()[e]) << "gemm_tn t=" << threads;
    }
    // gemm_nn (scores shape).
    DenseMatrix s_view(hi - lo, n), s_copy(hi - lo, n);
    kernels::gemm_nn(1.0, full.view(lo, hi), bx, 0.0, s_view);
    kernels::gemm_nn(1.0, copy, bx, 0.0, s_copy);
    for (std::size_t e = 0; e < s_view.size(); ++e) {
      ASSERT_EQ(s_view.data()[e], s_copy.data()[e]) << "gemm_nn t=" << threads;
    }
    // gemv_t.
    std::vector<double> y_view(m, 0.0), y_copy(m, 0.0);
    kernels::gemv_t(1.0, full.view(lo, hi), x_sub, 0.0, y_view);
    kernels::gemv_t(1.0, copy, x_sub, 0.0, y_copy);
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(y_view[j], y_copy[j]) << "gemv_t t=" << threads;
    }
  }
}

TEST(ShardViews, CsrViewProductsMatchCopiedShardBitwise) {
  Rng rng(43);
  // Narrow regime (two-phase reduction) and wide regime (CSC gather).
  const struct {
    std::size_t rows, cols, n;
    double density;
  } cases[] = {{240, 12, 4, 0.3}, {120, 600, 9, 0.02}};
  for (const auto& tc : cases) {
    const auto full = random_csr(tc.rows, tc.cols, tc.density, rng);
    const auto b = random_matrix(tc.rows, tc.n, rng);
    const std::size_t lo = tc.rows / 5, hi = (4 * tc.rows) / 5 + 1;
    const auto copy = full.row_slice(lo, hi);
    DenseMatrix b_sub(hi - lo, tc.n);
    for (std::size_t r = lo; r < hi; ++r) {
      const auto row = b.row(r);
      std::copy(row.begin(), row.end(), b_sub.row(r - lo).begin());
    }
    const auto xb = random_matrix(tc.cols, tc.n, rng);
    for (const int threads : {1, 2, 4, 8}) {
      ThreadGuard guard(threads);
      DenseMatrix g_view(tc.cols, tc.n), g_copy(tc.cols, tc.n);
      kernels::spmm_tn(1.0, full.view(lo, hi), b_sub, 0.0, g_view);
      kernels::spmm_tn(1.0, copy, b_sub, 0.0, g_copy);
      for (std::size_t e = 0; e < g_view.size(); ++e) {
        ASSERT_EQ(g_view.data()[e], g_copy.data()[e])
            << "spmm_tn rows=" << tc.rows << " t=" << threads;
      }
      DenseMatrix s_view(hi - lo, tc.n), s_copy(hi - lo, tc.n);
      spmm_nn(1.0, full.view(lo, hi), xb, 0.0, s_view);
      spmm_nn(1.0, copy, xb, 0.0, s_copy);
      for (std::size_t e = 0; e < s_view.size(); ++e) {
        ASSERT_EQ(s_view.data()[e], s_copy.data()[e])
            << "spmm_nn rows=" << tc.rows << " t=" << threads;
      }
    }
  }
}

TEST(ShardViews, CsrWideGatherIsThreadCountInvariantOnViews) {
  Rng rng(47);
  // Wide output forces the CSC gather; a shard view must give the same
  // bits at EVERY thread count (the full-matrix guarantee extends to
  // views via the per-column subrange restriction).
  const auto full = random_csr(90, 800, 0.015, rng);
  const auto b = random_matrix(40, 7, rng);
  DenseMatrix base(800, 7);
  {
    ThreadGuard guard(1);
    kernels::spmm_tn(1.0, full.view(25, 65), b, 0.0, base);
  }
  for (const int threads : {2, 3, 8}) {
    ThreadGuard guard(threads);
    DenseMatrix c(800, 7);
    kernels::spmm_tn(1.0, full.view(25, 65), b, 0.0, c);
    for (std::size_t e = 0; e < c.size(); ++e) {
      ASSERT_EQ(c.data()[e], base.data()[e]) << "t=" << threads;
    }
  }
}

TEST(ShardViews, CsrWideScatterAtOneThreadMatchesGatherBitwise) {
  // Wide outputs run the row scatter when the team is one thread and the
  // CSC gather otherwise; both must give the same bits for every alpha
  // and beta. Every product here clears the parallel threshold
  // (2·nnz·n ≥ 2^17) and stays wide at one thread (cols·n > nnz), so
  // 1 thread scatters and 2/4/8 threads gather. n = 37 spans two
  // register tiles on every rung.
  Rng rng(59);
  const auto full = random_csr(1200, 3000, 0.01, rng);
  for (const CsrView view : {CsrView(full), full.view(200, 1000)}) {
    for (const std::size_t n : {std::size_t{19}, std::size_t{37}}) {
      ASSERT_GE(2 * view.nnz() * n, kernels::kParallelFlops);
      ASSERT_GT(full.cols() * n, view.nnz());
      const auto b = random_matrix(view.rows(), n, rng);
      const auto c0 = random_matrix(full.cols(), n, rng);
      for (const double alpha : {1.0, 0.75, -2.0}) {
        for (const double beta : {0.0, 1.0, -0.5}) {
          DenseMatrix base = c0;
          {
            ThreadGuard guard(1);
            kernels::spmm_tn(alpha, view, b, beta, base);
          }
          for (const int threads : {2, 4, 8}) {
            ThreadGuard guard(threads);
            DenseMatrix c = c0;
            kernels::spmm_tn(alpha, view, b, beta, c);
            ASSERT_EQ(0, std::memcmp(c.data().data(), base.data().data(),
                                     c.size() * sizeof(double)))
                << "rows=" << view.rows() << " n=" << n << " alpha=" << alpha
                << " beta=" << beta << " t=" << threads;
          }
        }
      }
    }
  }
}

TEST(ShardViews, DefaultConstructedMatricesStayWellDefinedNoOps) {
  // A default CsrMatrix carries the canonical one-element row_ptr {0},
  // so its implicit CsrView (and every product on it) is a well-defined
  // no-op — pinned here because the view conversion now sits on every
  // kernel call path.
  const CsrMatrix empty;
  const CsrView view(empty);
  EXPECT_EQ(view.rows(), 0u);
  EXPECT_EQ(view.nnz(), 0u);
  EXPECT_TRUE(view.covers_parent());
  DenseMatrix b(0, 3), c(0, 3);
  EXPECT_NO_THROW(spmm_nn(1.0, empty, b, 0.0, c));
  DenseMatrix ct(0, 3);
  EXPECT_NO_THROW(kernels::spmm_tn(1.0, empty, b, 0.0, ct));
  const CsrView unbound;  // no parent at all
  EXPECT_EQ(unbound.rows(), 0u);
  EXPECT_EQ(unbound.nnz(), 0u);
  EXPECT_FALSE(unbound.covers_parent());
}

TEST(ShardViews, EmptyAndFullRangeViewsBehave) {
  Rng rng(53);
  const auto full = random_csr(30, 20, 0.2, rng);
  EXPECT_EQ(full.view(0, 30).nnz(), full.nnz());
  EXPECT_TRUE(full.view(0, 30).covers_parent());
  EXPECT_EQ(full.view(10, 10).nnz(), 0u);
  EXPECT_EQ(full.view(10, 10).rows(), 0u);
  const auto dense = random_matrix(8, 3, rng);
  EXPECT_EQ(dense.view(8, 8).rows(), 0u);
  EXPECT_EQ(dense.view(0, 8).data().size(), dense.size());
  EXPECT_THROW(static_cast<void>(dense.view(3, 2)), InvalidArgument);
  EXPECT_THROW(static_cast<void>(full.view(0, 31)), InvalidArgument);
}

// ------------------------------------------------------ ISA dispatch parity
//
// The engine's lane contract (la/engine.hpp): lanes only span independent
// output elements and nothing fuses a multiply-add, so every rung —
// avx512, avx2, stdsimd, scalar — must be BIT-identical to the scalar
// oracle kernels::scalar at every thread count. Every rung is compiled
// into this one binary, so each parity test runs every rung this host
// supports.

std::vector<kernels::Rung> host_rungs() {
  return kernels::supported_rungs(kernels::host_cpu());
}

std::string select_error(std::string_view request, kernels::CpuFeatures cpu) {
  try {
    static_cast<void>(kernels::select_rung(request, cpu));
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(IsaDispatch, ActiveRungIsTheWidestTheHostRunsUnlessOverridden) {
  const std::string isa = kernels::active_isa();
  const char* env = std::getenv("NADMM_ISA");
  if (env != nullptr && *env != '\0') {
    EXPECT_EQ(isa, env);
  } else {
    EXPECT_EQ(isa, host_rungs().front().isa());
  }
  EXPECT_EQ(std::string(host_rungs().back().isa()), "scalar");
}

TEST(IsaDispatch, EmptyRequestPicksTheWidestRungTheCpuRuns) {
  for (const kernels::CpuFeatures cpu :
       {kernels::CpuFeatures{}, kernels::CpuFeatures{true, false},
        kernels::CpuFeatures{true, true}}) {
    const auto rungs = kernels::supported_rungs(cpu);
    ASSERT_FALSE(rungs.empty());
    EXPECT_STREQ(kernels::select_rung("", cpu).isa(), rungs.front().isa());
    for (const auto& rung : rungs) {
      EXPECT_STREQ(kernels::select_rung(rung.isa(), cpu).isa(), rung.isa());
    }
  }
  // A CPU without AVX2 never gets an x86 vector rung.
  const std::string narrow = kernels::select_rung("", {}).isa();
  EXPECT_TRUE(narrow == "stdsimd" || narrow == "scalar") << narrow;
  // The ladder runs widest first.
  const auto all = kernels::supported_rungs({true, true});
  const std::vector<std::string> ladder = {"avx512", "avx2", "stdsimd",
                                           "scalar"};
  auto next = ladder.begin();
  for (const auto& rung : all) {
    next = std::find(next, ladder.end(), rung.isa());
    ASSERT_NE(next, ladder.end()) << rung.isa() << " out of ladder order";
  }
}

TEST(IsaDispatch, UnknownRungIsANamedError) {
  for (const char* bad : {"avx9", "AVX2", "sse2", " avx2"}) {
    const std::string err = select_error(bad, kernels::host_cpu());
    EXPECT_NE(err.find(std::string("NADMM_ISA=") + bad), std::string::npos)
        << err;
    EXPECT_NE(err.find("unknown ISA rung"), std::string::npos) << err;
  }
}

TEST(IsaDispatch, RungTheCpuLacksIsANamedErrorNotAFault) {
  // Whether or not this build compiled the x86 rungs, asking for one on a
  // CPU without the feature must throw before any rung code runs.
  const kernels::CpuFeatures none{};
  const kernels::CpuFeatures avx2_only{true, false};
  for (const auto& [request, cpu] :
       {std::pair{"avx2", none}, std::pair{"avx512", none},
        std::pair{"avx512", avx2_only}}) {
    const std::string err = select_error(request, cpu);
    EXPECT_NE(err.find(std::string("NADMM_ISA=") + request),
              std::string::npos)
        << err;
    EXPECT_TRUE(err.find("this CPU lacks") != std::string::npos ||
                err.find("this build has no") != std::string::npos)
        << err;
  }
}

TEST(IsaDispatch, GemmNnEveryRungMatchesScalarBitwise) {
  Rng rng(61);
  const std::size_t shapes[][3] = {{1, 1, 1},   {5, 7, 3},   {64, 129, 9},
                                   {1, 300, 1}, {257, 2, 8}, {4, 8, 8},
                                   {6, 5, 16},  {7, 3, 17},  {3, 200, 23},
                                   {100, 1, 9}};
  for (const auto& rung : host_rungs()) {
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      for (const auto& sh : shapes) {
        const std::size_t m = sh[0], k = sh[1], n = sh[2];
        const auto a = random_matrix(m, k, rng);
        const auto b = random_matrix(k, n, rng);
        const auto c0 = random_matrix(m, n, rng);
        for (double alpha : kAlphas) {
          for (double beta : kBetas) {
            DenseMatrix c = c0, c_sc = c0;
            rung.gemm_nn(alpha, a, b, beta, c);
            kernels::scalar::gemm_nn(alpha, a, b, beta, c_sc);
            for (std::size_t e = 0; e < c.size(); ++e) {
              ASSERT_EQ(c.data()[e], c_sc.data()[e])
                  << rung.isa() << " m=" << m << " k=" << k << " n=" << n
                  << " t=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(IsaDispatch, GemmTnAndGemvTEveryRungMatchesScalarBitwise) {
  Rng rng(62);
  const std::size_t shapes[][3] = {{1, 1, 1},  {6, 4, 3},   {200, 33, 9},
                                   {1, 5, 2},  {513, 7, 1}, {3, 1, 19},
                                   {50, 64, 8}, {0, 5, 3}};
  for (const auto& rung : host_rungs()) {
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      for (const auto& sh : shapes) {
        const std::size_t k = sh[0], m = sh[1], n = sh[2];
        const auto a = random_matrix(k, m, rng);
        const auto b = random_matrix(k, n, rng);
        const auto c0 = random_matrix(m, n, rng);
        const auto x = random_vec(k, rng);
        const auto y0 = random_vec(m, rng);
        for (double alpha : kAlphas) {
          for (double beta : kBetas) {
            DenseMatrix c = c0, c_sc = c0;
            rung.gemm_tn(alpha, a, b, beta, c);
            kernels::scalar::gemm_tn(alpha, a, b, beta, c_sc);
            for (std::size_t e = 0; e < c.size(); ++e) {
              ASSERT_EQ(c.data()[e], c_sc.data()[e])
                  << rung.isa() << " gemm_tn t=" << threads;
            }
            auto y = y0, y_sc = y0;
            rung.gemv_t(alpha, a, x, beta, y);
            kernels::scalar::gemv_t(alpha, a, x, beta, y_sc);
            for (std::size_t j = 0; j < m; ++j) {
              ASSERT_EQ(y[j], y_sc[j]) << rung.isa() << " gemv_t t=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(IsaDispatch, SpmmTnEveryRungMatchesScalarBitwiseBothStrategies) {
  Rng rng(63);
  // Narrow output (two-phase dense reduction) and wide output (CSC
  // gather with software prefetch) — both strategies must be clean, on
  // whole matrices and on shard views.
  std::vector<CsrMatrix> mats;
  mats.push_back(random_csr(50, 20, 0.15, rng));
  mats.push_back(random_csr(500, 300, 0.05, rng));
  mats.push_back(random_csr(60, 800, 0.01, rng));   // wide, gather path
  mats.push_back(random_csr(300, 2000, 0.01, rng)); // wide, many columns
  for (const auto& rung : host_rungs()) {
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      for (const auto& sp : mats) {
        for (const CsrView view : {CsrView(sp), sp.view(sp.rows() / 3,
                                                        sp.rows() - 5)}) {
          const auto b = random_matrix(view.rows(), 5, rng);
          const auto c0 = random_matrix(sp.cols(), 5, rng);
          for (double alpha : kAlphas) {
            for (double beta : kBetas) {
              DenseMatrix c = c0, c_sc = c0;
              rung.spmm_tn(alpha, view, b, beta, c);
              kernels::scalar::spmm_tn(alpha, view, b, beta, c_sc);
              for (std::size_t e = 0; e < c.size(); ++e) {
                ASSERT_EQ(c.data()[e], c_sc.data()[e])
                    << rung.isa() << " " << view.rows() << "x" << sp.cols()
                    << " t=" << threads;
              }
            }
          }
        }
      }
    }
  }
}

TEST(IsaDispatch, SpmmNnEveryRungMatchesScalarAndReferenceBitwise) {
  Rng rng(65);
  std::vector<CsrMatrix> mats;
  mats.push_back(random_csr(50, 20, 0.15, rng));
  mats.push_back(random_csr(100, 40, 0.02, rng));  // many empty rows
  mats.push_back(random_csr(500, 300, 0.05, rng)); // parallel at n ≥ 2
  {
    // Leading and trailing empty rows around a block large enough to run
    // in parallel: the nnz-balanced partition must still cover (and
    // beta-scale) every row.
    std::vector<Triplet> t;
    for (std::size_t i = 20; i < 320; ++i) {
      for (std::size_t j = 0; j < 200; ++j) {
        if (rng.bernoulli(0.1)) t.push_back({i, j, rng.normal()});
      }
    }
    mats.push_back(CsrMatrix(420, 200, std::move(t)));
  }
  const std::size_t widths[] = {1, 3, 8, 19, 33, 37};
  for (const auto& rung : host_rungs()) {
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      for (const auto& sp : mats) {
        for (const CsrView view :
             {CsrView(sp), sp.view(sp.rows() / 3, sp.rows() - 5),
              sp.view(sp.rows() - 5, sp.rows())}) {
          for (const std::size_t n : widths) {
            const auto b = random_matrix(sp.cols(), n, rng);
            const auto c0 = random_matrix(view.rows(), n, rng);
            for (const double alpha : {1.0, 1.5}) {
              for (const double beta : {0.0, 1.0, 0.5}) {
                DenseMatrix c = c0, c_sc = c0, c_ref = c0;
                rung.spmm_nn(alpha, view, b, beta, c);
                kernels::scalar::spmm_nn(alpha, view, b, beta, c_sc);
                kernels::reference::spmm_nn(alpha, view, b, beta, c_ref);
                ASSERT_EQ(0, std::memcmp(c.data().data(), c_sc.data().data(),
                                         c.size() * sizeof(double)))
                    << rung.isa() << " vs scalar: " << view.rows() << "x"
                    << sp.cols() << " n=" << n << " t=" << threads;
                ASSERT_EQ(0, std::memcmp(c.data().data(), c_ref.data().data(),
                                         c.size() * sizeof(double)))
                    << rung.isa() << " vs reference: " << view.rows() << "x"
                    << sp.cols() << " n=" << n << " t=" << threads;
              }
            }
          }
        }
      }
    }
  }
}

TEST(IsaDispatch, SoftmaxForwardEveryRungMatchesScalarBitwise) {
  Rng rng(64);
  for (const auto& rung : host_rungs()) {
    for (const int threads : {1, 2, 3, 8}) {
      ThreadGuard guard(threads);
      for (const std::size_t n : {std::size_t{1}, std::size_t{37},
                                  std::size_t{4000}}) {
        for (const std::size_t c : {std::size_t{9}, std::size_t{20}}) {
          auto scores = random_matrix(n, c, rng);
          // Large spread exercises the rescale branch (running max updates).
          for (double& v : scores.data()) v *= 30.0;
          std::vector<std::int32_t> labels(n);
          for (auto& l : labels) {
            l = static_cast<std::int32_t>(rng.uniform_index(c + 1));
          }
          DenseMatrix p1(n, c), p2(n, c);
          std::vector<double> l1(n), l2(n);
          const double loss1 = rung.softmax_forward(scores, labels, p1, l1);
          const double loss2 =
              kernels::scalar::softmax_forward(scores, labels, p2, l2);
          ASSERT_EQ(loss1, loss2) << rung.isa() << " t=" << threads;
          for (std::size_t e = 0; e < p1.size(); ++e) {
            ASSERT_EQ(p1.data()[e], p2.data()[e]) << rung.isa();
          }
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(l1[i], l2[i]) << rung.isa();
          }
        }
      }
    }
  }
}

TEST(IsaDispatch, EveryRungValidatesShapes) {
  const DenseMatrix a(3, 4), b(5, 2);
  DenseMatrix c(3, 2);
  for (const auto& rung : host_rungs()) {
    EXPECT_THROW(rung.gemm_nn(1.0, a, b, 0.0, c), InvalidArgument)
        << rung.isa();
    EXPECT_THROW(rung.gemm_tn(1.0, a, b, 0.0, c), InvalidArgument)
        << rung.isa();
    const CsrMatrix sp(3, 4, {{0, 1, 1.0}});
    EXPECT_THROW(rung.spmm_nn(1.0, sp, b, 0.0, c), InvalidArgument)
        << rung.isa();
    EXPECT_THROW(rung.spmm_tn(1.0, sp, b, 0.0, c), InvalidArgument)
        << rung.isa();
  }
}

TEST(IsaDispatch, MulAddProbeCountsItsFlops) {
  // 2 flops per lane per chain step, twelve chains; scalar has one lane.
  EXPECT_EQ(kernels::select_rung("scalar", {}).mul_add_probe(10), 240.0);
  for (const auto& rung : host_rungs()) {
    EXPECT_EQ(rung.mul_add_probe(20), 2.0 * rung.mul_add_probe(10))
        << rung.isa();
  }
}

}  // namespace
}  // namespace nadmm::la
