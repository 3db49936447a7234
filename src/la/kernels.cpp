// Baseline-ISA half of the kernel engine: the stdsimd and scalar rungs,
// run-time rung selection, the public kernels (shape checks, then one
// indirect call into the selected rung's table), the per-thread
// workspaces every rung shares, and the seed reference kernels. The
// engine itself is la/engine.hpp; the avx2 and avx512 rungs are
// la/kernels_avx2.cpp and la/kernels_avx512.cpp.
#include "la/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#if defined(__has_include)
#if __has_include(<experimental/simd>)
#include <experimental/simd>
#define NADMM_HAVE_STDSIMD 1
#endif
#endif

#include "la/engine.hpp"
#include "la/vector_ops.hpp"
#include "support/check.hpp"

namespace nadmm::la::kernels {

namespace engine {

namespace {

/// Grow-only, 64-byte-aligned, *uninitialized* per-thread buffer backing
/// the packed panels and reduction workspaces. The kernels run every CG
/// iteration, so steady-state calls must never touch the allocator; the
/// allocation deliberately leaves pages untouched, which is the NUMA
/// first-touch half of the contract: each team thread zero-fills only
/// its own partial slice inside the parallel region, so on multi-socket
/// hosts a partial's pages land on the node of the thread that folds
/// them rather than wherever the calling thread happened to run.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  ~AlignedBuffer() { release(); }

  double* ensure(std::size_t elems) {
    if (cap_ < elems) {
      release();
      data_ = static_cast<double*>(
          ::operator new(elems * sizeof(double), std::align_val_t{64}));
      cap_ = elems;
    }
    return data_;
  }

 private:
  void release() {
    if (data_ != nullptr) ::operator delete(data_, std::align_val_t{64});
    data_ = nullptr;
    cap_ = 0;
  }

  double* data_ = nullptr;
  std::size_t cap_ = 0;
};

#if defined(NADMM_HAVE_STDSIMD)
/// Portable lane-parallel rung on std::experimental::simd. On a
/// baseline x86-64 build this is 2 SSE2 lanes; on AArch64 it picks up
/// NEON without any code here changing.
struct StdSimd {
  using vec = std::experimental::native_simd<double>;
  static constexpr std::size_t width = vec::size();
  vec v;
  static StdSimd load(const double* p) {
    return {vec(p, std::experimental::element_aligned)};
  }
  void store(double* p) const {
    v.copy_to(p, std::experimental::element_aligned);
  }
  static StdSimd load_n(const double* p, std::size_t count) {
    double lanes[width] = {};
    for (std::size_t i = 0; i < count; ++i) lanes[i] = p[i];
    return load(lanes);
  }
  void store_n(double* p, std::size_t count) const {
    double lanes[width];
    store(lanes);
    for (std::size_t i = 0; i < count; ++i) p[i] = lanes[i];
  }
  static StdSimd broadcast(double x) { return {vec(x)}; }
  static StdSimd zero() { return {vec(0.0)}; }
  friend StdSimd operator+(StdSimd a, StdSimd b) { return {a.v + b.v}; }
  friend StdSimd operator*(StdSimd a, StdSimd b) { return {a.v * b.v}; }
};

constinit const Table kStdSimdTable = make_table<StdSimd>("stdsimd");
#endif

constinit const Table kScalarTable = make_table<Scalar>("scalar");

}  // namespace

// One packed-panel and one partials buffer per calling thread, so a
// gemm_nn panel and a reduction's partials never alias.
double* panel_buffer(std::size_t elems) {
  static thread_local AlignedBuffer panel;
  return panel.ensure(elems);
}

double* reduction_buffer(std::size_t elems) {
  static thread_local AlignedBuffer ws;
  return ws.ensure(elems);
}

Csc csc_of(const CsrMatrix& parent) {
  const CsrTransposed& t = parent.transposed();
  return {t.col_ptr.data(), t.row_idx.data(), t.values.data(),
          t.values.size()};
}

}  // namespace engine

// ===========================================================================
// Rung selection.
// ===========================================================================

namespace {

struct LadderStep {
  std::string_view isa;
  const engine::Table* table;       // nullptr: not compiled into this build
  bool CpuFeatures::*feature;       // the CPU flag it needs, if any
  const char* feature_name;
};

constexpr LadderStep kLadder[] = {
#if defined(NADMM_RUNG_AVX512)
    {"avx512", &engine::avx512::kTable, &CpuFeatures::avx512f, "avx512f"},
#else
    {"avx512", nullptr, &CpuFeatures::avx512f, "avx512f"},
#endif
#if defined(NADMM_RUNG_AVX2)
    {"avx2", &engine::avx2::kTable, &CpuFeatures::avx2, "avx2"},
#else
    {"avx2", nullptr, &CpuFeatures::avx2, "avx2"},
#endif
#if defined(NADMM_HAVE_STDSIMD)
    {"stdsimd", &engine::kStdSimdTable, nullptr, nullptr},
#else
    {"stdsimd", nullptr, nullptr, nullptr},
#endif
    {"scalar", &engine::kScalarTable, nullptr, nullptr},
};

bool runs_on(const LadderStep& step, CpuFeatures cpu) {
  return step.table != nullptr &&
         (step.feature == nullptr || cpu.*step.feature);
}

engine::Dense in(DenseView a) { return {a.data().data(), a.rows(), a.cols()}; }

engine::DenseOut out(DenseMatrix& c) {
  return {c.data().data(), c.rows(), c.cols()};
}

engine::Csr in(const CsrView& a) {
  return {a.row_ptr().data(), a.col_idx().data(), a.values().data(),
          a.rows(),           a.cols(),           a.nnz(),
          a.row_begin(),      a.covers_parent(),  a.parent()};
}

}  // namespace

CpuFeatures host_cpu() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return {__builtin_cpu_supports("avx2") != 0,
          __builtin_cpu_supports("avx512f") != 0};
#else
  return {};
#endif
}

Rung select_rung(std::string_view request, CpuFeatures cpu) {
  for (const LadderStep& step : kLadder) {
    if (request.empty()) {
      if (runs_on(step, cpu)) return Rung(*step.table);
      continue;
    }
    if (request != step.isa) continue;
    const std::string what = "NADMM_ISA=" + std::string(request) + ": ";
    if (step.table == nullptr) {
      throw InvalidArgument(what + "this build has no " +
                            std::string(step.isa) + " rung");
    }
    if (!runs_on(step, cpu)) {
      throw InvalidArgument(what + "this CPU lacks " + step.feature_name);
    }
    return Rung(*step.table);
  }
  throw InvalidArgument("NADMM_ISA=" + std::string(request) +
                        ": unknown ISA rung (expected avx512, avx2, stdsimd "
                        "or scalar)");
}

std::vector<Rung> supported_rungs(CpuFeatures cpu) {
  std::vector<Rung> rungs;
  for (const LadderStep& step : kLadder) {
    if (runs_on(step, cpu)) rungs.emplace_back(*step.table);
  }
  return rungs;
}

// A function-local static rather than std::call_once: initialization is
// equally once-only and thread-safe, and a throwing select_rung (a bad
// NADMM_ISA) leaves it uninitialized, so the next call retries and throws
// the same named error again.
Rung active_rung() {
  static const Rung rung = [] {
    const char* env = std::getenv("NADMM_ISA");
    return select_rung(env != nullptr ? env : "", host_cpu());
  }();
  return rung;
}

const char* active_isa() { return active_rung().isa(); }

// ===========================================================================
// Rung kernels: validate shapes, then run the rung's instantiation.
// ===========================================================================

const char* Rung::isa() const { return table_->isa; }

void Rung::gemm_nn(double alpha, DenseView a, const DenseMatrix& b,
                   double beta, DenseMatrix& c) const {
  NADMM_CHECK(a.cols() == b.rows(), "gemm_nn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "gemm_nn: output shape mismatch");
  table_->gemm_nn(alpha, in(a), in(b), beta, out(c));
}

void Rung::gemm_tn(double alpha, DenseView a, const DenseMatrix& b,
                   double beta, DenseMatrix& c) const {
  NADMM_CHECK(a.rows() == b.rows(), "gemm_tn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
              "gemm_tn: output shape mismatch");
  table_->gemm_tn(alpha, in(a), in(b), beta, out(c));
}

void Rung::gemv_t(double alpha, DenseView a, std::span<const double> x,
                  double beta, std::span<double> y) const {
  NADMM_CHECK(a.rows() == x.size(), "gemv_t: x size mismatch");
  NADMM_CHECK(a.cols() == y.size(), "gemv_t: y size mismatch");
  table_->gemv_t(alpha, in(a), x.data(), beta, y.data());
}

void Rung::spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
                   double beta, DenseMatrix& c) const {
  NADMM_CHECK(a.cols() == b.rows(), "spmm_nn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "spmm_nn: output shape mismatch");
  table_->spmm_nn(alpha, in(a), in(b), beta, out(c));
}

void Rung::spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
                   double beta, DenseMatrix& c) const {
  NADMM_CHECK(a.rows() == b.rows(), "spmm_tn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
              "spmm_tn: output shape mismatch");
  table_->spmm_tn(alpha, in(a), in(b), beta, out(c));
}

double Rung::softmax_forward(const DenseMatrix& scores,
                             std::span<const std::int32_t> labels,
                             DenseMatrix& probs, std::span<double> lse) const {
  NADMM_CHECK(probs.rows() == scores.rows() && probs.cols() == scores.cols(),
              "softmax_forward: probs shape mismatch");
  NADMM_CHECK(labels.size() == scores.rows() && lse.size() == scores.rows(),
              "softmax_forward: labels/lse size mismatch");
  return table_->softmax_forward(in(scores), labels.data(), out(probs),
                                 lse.data());
}

double Rung::mul_add_probe(std::size_t steps) const {
  return table_->mul_add_probe(steps);
}

// ===========================================================================
// Public engine: the active rung.
// ===========================================================================

void gemm_nn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  active_rung().gemm_nn(alpha, a, b, beta, c);
}

void gemm_tn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  active_rung().gemm_tn(alpha, a, b, beta, c);
}

void gemv_t(double alpha, DenseView a, std::span<const double> x,
            double beta, std::span<double> y) {
  active_rung().gemv_t(alpha, a, x, beta, y);
}

void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  active_rung().spmm_nn(alpha, a, b, beta, c);
}

void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  active_rung().spmm_tn(alpha, a, b, beta, c);
}

double softmax_forward(const DenseMatrix& scores,
                       std::span<const std::int32_t> labels,
                       DenseMatrix& probs, std::span<double> lse) {
  return active_rung().softmax_forward(scores, labels, probs, lse);
}

// The scalar rung: the ISA parity oracle.

namespace scalar {

namespace {
constinit const Rung kRung(engine::kScalarTable);
}  // namespace

void gemm_nn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  kRung.gemm_nn(alpha, a, b, beta, c);
}

void gemm_tn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  kRung.gemm_tn(alpha, a, b, beta, c);
}

void gemv_t(double alpha, DenseView a, std::span<const double> x,
            double beta, std::span<double> y) {
  kRung.gemv_t(alpha, a, x, beta, y);
}

void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  kRung.spmm_nn(alpha, a, b, beta, c);
}

void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  kRung.spmm_tn(alpha, a, b, beta, c);
}

double softmax_forward(const DenseMatrix& scores,
                       std::span<const std::int32_t> labels,
                       DenseMatrix& probs, std::span<double> lse) {
  return kRung.softmax_forward(scores, labels, probs, lse);
}

}  // namespace scalar

// ===========================================================================
// Seed reference kernels (verbatim pre-engine implementations, minus the
// flop accounting which the public wrappers own).
// ===========================================================================

namespace reference {

void gemm_nn(double alpha, const DenseMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  NADMM_CHECK(a.cols() == b.rows(), "gemm_nn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "gemm_nn: output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* pc = c.data().data();
  constexpr std::size_t kBlockK = 256;

  const std::ptrdiff_t mm = static_cast<std::ptrdiff_t>(m);
  [[maybe_unused]] const bool parallel = 2 * m * k * n >= kParallelFlops;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t i = 0; i < mm; ++i) {
    double* crow = pc + static_cast<std::size_t>(i) * n;
    if (beta == 0.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const double* arow = pa + static_cast<std::size_t>(i) * k;
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::size_t k1 = std::min(k, k0 + kBlockK);
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double av = alpha * arow[kk];
        if (av == 0.0) continue;
        const double* brow = pb + kk * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void gemm_tn(double alpha, const DenseMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  NADMM_CHECK(a.rows() == b.rows(), "gemm_tn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
              "gemm_tn: output shape mismatch");
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* pc = c.data().data();

  if (beta == 0.0) {
    std::fill(c.data().begin(), c.data().end(), 0.0);
  } else if (beta != 1.0) {
    scal(beta, c.data());
  }

  [[maybe_unused]] const bool parallel = 2 * k * m * n >= kParallelFlops;
#pragma omp parallel if (parallel)
  {
    std::vector<double> local(m * n, 0.0);
#pragma omp for schedule(static)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i) {
      const double* arow = pa + static_cast<std::size_t>(i) * m;
      const double* brow = pb + static_cast<std::size_t>(i) * n;
      for (std::size_t j = 0; j < m; ++j) {
        const double av = arow[j];
        if (av == 0.0) continue;
        double* lrow = local.data() + j * n;
        for (std::size_t t = 0; t < n; ++t) lrow[t] += av * brow[t];
      }
    }
#pragma omp critical(nadmm_ref_gemm_tn_reduce)
    {
      for (std::size_t e = 0; e < local.size(); ++e) pc[e] += alpha * local[e];
    }
  }
}

void gemv_t(double alpha, const DenseMatrix& a, std::span<const double> x,
            double beta, std::span<double> y) {
  NADMM_CHECK(a.rows() == x.size(), "gemv_t: x size mismatch");
  NADMM_CHECK(a.cols() == y.size(), "gemv_t: y size mismatch");
  const std::size_t k = a.rows(), m = a.cols();
  const double* pa = a.data().data();
  if (beta == 0.0) {
    std::fill(y.begin(), y.end(), 0.0);
  } else if (beta != 1.0) {
    scal(beta, y);
  }
  [[maybe_unused]] const bool parallel = 2 * m * k >= kParallelFlops;
#pragma omp parallel if (parallel)
  {
    std::vector<double> local(m, 0.0);
#pragma omp for schedule(static)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(k); ++i) {
      const double xv = x[i];
      if (xv == 0.0) continue;
      const double* arow = pa + static_cast<std::size_t>(i) * m;
      for (std::size_t j = 0; j < m; ++j) local[j] += xv * arow[j];
    }
#pragma omp critical(nadmm_ref_gemv_t_reduce)
    {
      for (std::size_t j = 0; j < m; ++j) y[j] += alpha * local[j];
    }
  }
}

void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  NADMM_CHECK(a.cols() == b.rows(), "spmm_nn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "spmm_nn: output shape mismatch");
  const std::size_t n = b.cols();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  const double* pb = b.data().data();
  double* pc = c.data().data();
  [[maybe_unused]] const bool parallel = 2 * a.nnz() * n >= kParallelFlops;
#pragma omp parallel for schedule(dynamic, 64) if (parallel)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(a.rows()); ++i) {
    double* crow = pc + static_cast<std::size_t>(i) * n;
    if (beta == 0.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    for (std::int64_t e = rp[i]; e < rp[i + 1]; ++e) {
      const double av = alpha * va[e];
      const double* brow = pb + static_cast<std::size_t>(ci[e]) * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void spmm_tn(double alpha, const CsrMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c) {
  NADMM_CHECK(a.rows() == b.rows(), "spmm_tn: inner dimension mismatch");
  NADMM_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
              "spmm_tn: output shape mismatch");
  const std::size_t n = b.cols();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  const double* pb = b.data().data();
  double* pc = c.data().data();
  if (beta == 0.0) {
    std::fill(c.data().begin(), c.data().end(), 0.0);
  } else if (beta != 1.0) {
    scal(beta, c.data());
  }
  [[maybe_unused]] const bool parallel = 2 * a.nnz() * n >= kParallelFlops;
#pragma omp parallel if (parallel)
  {
    std::vector<double> local(c.size(), 0.0);
#pragma omp for schedule(dynamic, 64)
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(a.rows()); ++i) {
      const double* brow = pb + static_cast<std::size_t>(i) * n;
      for (std::int64_t e = rp[i]; e < rp[i + 1]; ++e) {
        double* lrow = local.data() + static_cast<std::size_t>(ci[e]) * n;
        const double av = va[e];
        for (std::size_t j = 0; j < n; ++j) lrow[j] += av * brow[j];
      }
    }
#pragma omp critical(nadmm_ref_spmm_tn_reduce)
    {
      for (std::size_t e = 0; e < local.size(); ++e) pc[e] += alpha * local[e];
    }
  }
}

double softmax_forward(const DenseMatrix& scores,
                       std::span<const std::int32_t> labels,
                       DenseMatrix& probs, std::span<double> lse) {
  const std::size_t n = scores.rows();
  const std::size_t c = scores.cols();
  NADMM_CHECK(probs.rows() == n && probs.cols() == c,
              "softmax_forward: probs shape mismatch");
  NADMM_CHECK(labels.size() == n && lse.size() == n,
              "softmax_forward: labels/lse size mismatch");
  double loss = 0.0;
  [[maybe_unused]] const bool parallel = n * c >= kParallelRows;
#pragma omp parallel for schedule(static) reduction(+ : loss) if (parallel)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    const auto s = scores.row(static_cast<std::size_t>(i));
    auto prob = probs.row(static_cast<std::size_t>(i));
    double m = 0.0;  // implicit class score
    for (double v : s) m = std::max(m, v);
    double alpha = std::exp(-m);  // implicit class contribution
    for (std::size_t cc = 0; cc < c; ++cc) {
      prob[cc] = std::exp(s[cc] - m);
      alpha += prob[cc];
    }
    const double inv_alpha = 1.0 / alpha;
    for (std::size_t cc = 0; cc < c; ++cc) prob[cc] *= inv_alpha;
    const double l = m + std::log(alpha);
    lse[static_cast<std::size_t>(i)] = l;
    const auto y = static_cast<std::size_t>(labels[static_cast<std::size_t>(i)]);
    loss += l - (y < c ? s[y] : 0.0);
  }
  return loss;
}

}  // namespace reference

}  // namespace nadmm::la::kernels
