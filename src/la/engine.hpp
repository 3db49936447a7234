// Internal header of the kernel engine: the lane types, the engine
// templates, and the function table through which la/kernels.cpp reaches
// one instantiation of the engine per ISA rung.
//
// Included by exactly three translation units: la/kernels.cpp (baseline
// ISA; instantiates the stdsimd and scalar rungs and owns the public API)
// and la/kernels_avx2.cpp / la/kernels_avx512.cpp, which the build
// compiles with -mavx2 / -mavx512f. kernels.cpp picks a rung at run time
// by CPU feature (la::kernels::active_rung).
//
// The contract every rung obeys: a lane is an *independent output
// element*. Kernels vectorize only across independent outputs (the
// column/class dimension), never across a reduction, and no rung ever
// fuses a multiply-add — `mul` then `add` are separate rounding steps,
// exactly like the scalar engine (the build pins -ffp-contract=off and
// neither rung flag implies -mfma). Together those two rules make every
// rung bit-identical to the scalar one per element, which keeps the
// committed sweep/figure artifacts byte-stable whichever rung runs.
//
// Symbol hygiene. A rung object holds code that may only run after the
// CPU check has passed, so it must not define a symbol the linker could
// pick for the whole program: an inline function, template instantiation,
// vtable or typeinfo with external linkage is a weak definition, and the
// linker keeps an arbitrary copy — an AVX-512 copy of, say, an exception
// destructor would SIGILL on an AVX2-only host. Hence:
//   * everything below the ABI block lives in an anonymous namespace, so
//     each including TU gets private (internal-linkage) copies;
//   * the engine reaches its operands only through the plain views of the
//     ABI block — no DenseMatrix/CsrView/std::span member calls, no std
//     algorithms or containers, no exceptions;
//   * whatever can fail or allocate (shape checks, workspaces, the CSC
//     build) lives in kernels.cpp, behind the non-inline functions below.
// A rung object's only external symbol is its table,
// nadmm::la::kernels::engine::<rung>::kTable; the test_rung_symbols
// ctest checks that with nm.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "la/kernels.hpp"

namespace nadmm::la::kernels::engine {

// ------------------------------------------------------------------ ABI

/// Row-major dense operand: rows × cols doubles.
struct Dense {
  const double* data;
  std::size_t rows;
  std::size_t cols;
};

/// Row-major dense output.
struct DenseOut {
  double* data;
  std::size_t rows;
  std::size_t cols;
};

/// CSR row range of a parent matrix (see la::CsrView): `row_ptr` holds
/// rows + 1 *absolute* offsets into the parent's col_idx / values.
struct Csr {
  const std::int64_t* row_ptr;
  const std::int64_t* col_idx;
  const double* values;
  std::size_t rows;
  std::size_t cols;
  std::size_t nnz;
  std::size_t row_begin;
  bool covers_parent;
  const CsrMatrix* parent;
};

/// The parent matrix's cached transposed (CSC) arrays.
struct Csc {
  const std::int64_t* col_ptr;
  const std::int32_t* row_idx;
  const double* values;
  std::size_t entries;
};

// Defined in kernels.cpp, compiled for the baseline ISA.

/// Grow-only, 64-byte-aligned, *uninitialized* buffers, one per calling
/// thread, shared by every rung: the packed B panel of gemm_nn and the
/// per-thread partials of the two-phase reductions.
double* panel_buffer(std::size_t elems);
double* reduction_buffer(std::size_t elems);

/// The CSC view of `parent`, built on first use (CsrMatrix::transposed).
Csc csc_of(const CsrMatrix& parent);

/// One rung's instantiation of the engine. Shapes are validated by the
/// caller (kernels::Rung); the entries only compute.
struct Table {
  const char* isa;
  void (*gemm_nn)(double alpha, Dense a, Dense b, double beta, DenseOut c);
  void (*gemm_tn)(double alpha, Dense a, Dense b, double beta, DenseOut c);
  void (*gemv_t)(double alpha, Dense a, const double* x, double beta,
                 double* y);
  void (*spmm_nn)(double alpha, const Csr& a, Dense b, double beta,
                  DenseOut c);
  void (*spmm_tn)(double alpha, const Csr& a, Dense b, double beta,
                  DenseOut c);
  double (*softmax_forward)(Dense scores, const std::int32_t* labels,
                            DenseOut probs, double* lse);
  double (*mul_add_probe)(std::size_t steps);
};

namespace avx2 {
extern const Table kTable;  // la/kernels_avx2.cpp
}
namespace avx512 {
extern const Table kTable;  // la/kernels_avx512.cpp
}

namespace {

// ----------------------------------------------------------- lane types

// Every lane type offers partial-width `load_n` / `store_n` for the
// first `count` lanes (1 <= count <= width): load_n zeroes the lanes it
// does not read, store_n leaves memory past `count` untouched, and
// neither touches an address past p + count, so a row's tail needs no
// scalar loop.

/// 1 lane: the reference semantics every other rung reproduces bitwise.
struct Scalar {
  static constexpr std::size_t width = 1;
  double v;
  static Scalar load(const double* p) { return {*p}; }
  void store(double* p) const { *p = v; }
  static Scalar load_n(const double* p, std::size_t) { return {*p}; }
  void store_n(double* p, std::size_t) const { *p = v; }
  static Scalar broadcast(double x) { return {x}; }
  static Scalar zero() { return {0.0}; }
  friend Scalar operator+(Scalar a, Scalar b) { return {a.v + b.v}; }
  friend Scalar operator*(Scalar a, Scalar b) { return {a.v * b.v}; }
};

#if defined(__AVX2__)
struct Avx2 {
  static constexpr std::size_t width = 4;
  __m256d v;
  static Avx2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static __m256i mask(std::size_t count) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(count)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static Avx2 load_n(const double* p, std::size_t count) {
    return {_mm256_maskload_pd(p, mask(count))};
  }
  void store_n(double* p, std::size_t count) const {
    _mm256_maskstore_pd(p, mask(count), v);
  }
  static Avx2 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Avx2 zero() { return {_mm256_setzero_pd()}; }
  friend Avx2 operator+(Avx2 a, Avx2 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Avx2 operator*(Avx2 a, Avx2 b) { return {_mm256_mul_pd(a.v, b.v)}; }
};
#endif

#if defined(__AVX512F__)
struct Avx512 {
  static constexpr std::size_t width = 8;
  __m512d v;
  static Avx512 load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static __mmask8 mask(std::size_t count) {
    return static_cast<__mmask8>((1u << count) - 1u);
  }
  static Avx512 load_n(const double* p, std::size_t count) {
    return {_mm512_maskz_loadu_pd(mask(count), p)};
  }
  void store_n(double* p, std::size_t count) const {
    _mm512_mask_storeu_pd(p, mask(count), v);
  }
  static Avx512 broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static Avx512 zero() { return {_mm512_setzero_pd()}; }
  friend Avx512 operator+(Avx512 a, Avx512 b) {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend Avx512 operator*(Avx512 a, Avx512 b) {
    return {_mm512_mul_pd(a.v, b.v)};
  }
};
#endif

// --------------------------------------------------------------- basics

// Microkernel tile: MR rows of A against an NR-wide packed strip of B.
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 8;

// How many CSC entries ahead of the gather cursor to prefetch the B row
// for. The gather's access pattern (row_idx-indexed rows of B) is the one
// the hardware prefetcher cannot predict; 8 entries ≈ one column's worth
// on the E18 shapes, far enough to cover a memory latency at the gather's
// per-entry cost.
constexpr std::int64_t kPrefetchAhead = 8;

std::size_t min_size(std::size_t a, std::size_t b) { return a < b ? a : b; }

void fill_zero(double* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = 0.0;
}

/// Index of the first element of the sorted range [p, p + n) that is not
/// less than `value` (std::lower_bound, kept local for symbol hygiene).
template <class T>
std::size_t lower_bound_index(const T* p, std::size_t n, T value) {
  std::size_t lo = 0;
  while (n > 0) {
    const std::size_t half = n / 2;
    if (p[lo + half] < value) {
      lo += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return lo;
}

int max_team(bool parallel) {
#ifdef _OPENMP
  const int t = omp_get_max_threads();
  return parallel && t > 1 ? t : 1;
#else
  static_cast<void>(parallel);
  return 1;
#endif
}

int team_size() {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

struct Range {
  std::size_t lo;
  std::size_t hi;
};

/// Static slice t of `count` elements among `team` threads. Depends only
/// on (count, t, team) — this is what makes both reduction phases
/// deterministic for a fixed thread count.
Range slice(std::size_t count, int t, int team) {
  const auto tt = static_cast<std::size_t>(t);
  const auto tm = static_cast<std::size_t>(team);
  return {count * tt / tm, count * (tt + 1) / tm};
}

/// Hint the cache that `p` will be read soon (default locality: gathered
/// rows are reused across classes).
void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  static_cast<void>(p);
#endif
}

// ---------------------------------------------------------------------------
// Shared elementwise loops. Each runs the vector body over full lanes and a
// scalar tail; both use the same per-element expression tree, so the result
// is bit-identical to a pure scalar loop for every V.

/// p[i] *= s
template <class V>
void scale(double s, double* p, std::size_t n) {
  const V sv = V::broadcast(s);
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    (V::load(p + i) * sv).store(p + i);
  }
  for (; i < n; ++i) p[i] *= s;
}

/// acc[i] += src[i]
template <class V>
void add_inplace(double* acc, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    (V::load(acc + i) + V::load(src + i)).store(acc + i);
  }
  for (; i < n; ++i) acc[i] += src[i];
}

/// y[i] += a * x[i]
template <class V>
void axpy(double a, const double* x, double* y, std::size_t n) {
  const V av = V::broadcast(a);
  std::size_t i = 0;
  for (; i + V::width <= n; i += V::width) {
    (V::load(y + i) + av * V::load(x + i)).store(y + i);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

/// The engine's epilogue: out = beta * out + alpha * acc, with the same
/// beta == 0 / beta == 1 special cases (and expression trees) the scalar
/// fold has always used.
template <class V>
void combine(double alpha, double beta, double* out, const double* acc,
             std::size_t n) {
  const V av = V::broadcast(alpha);
  std::size_t i = 0;
  if (beta == 0.0) {
    for (; i + V::width <= n; i += V::width) {
      (av * V::load(acc + i)).store(out + i);
    }
    for (; i < n; ++i) out[i] = alpha * acc[i];
  } else if (beta == 1.0) {
    for (; i + V::width <= n; i += V::width) {
      (V::load(out + i) + av * V::load(acc + i)).store(out + i);
    }
    for (; i < n; ++i) out[i] += alpha * acc[i];
  } else {
    const V bv = V::broadcast(beta);
    for (; i + V::width <= n; i += V::width) {
      (bv * V::load(out + i) + av * V::load(acc + i)).store(out + i);
    }
    for (; i < n; ++i) out[i] = beta * out[i] + alpha * acc[i];
  }
}

/// out[i] = beta * out[i] for the rows an empty product leaves untouched
/// by accumulation (beta == 0 writes zeros, beta == 1 is a no-op).
template <class V>
void scale_output(double beta, double* out, std::size_t n) {
  if (beta == 0.0) {
    fill_zero(out, n);
  } else if (beta != 1.0) {
    scale<V>(beta, out, n);
  }
}

/// Fold phase 2 of a two-phase reduction: partials 1..team−1 are added
/// into partial 0 (fixed thread order), then the slice [lo, hi) of the
/// output is combined as C = beta·C + alpha·acc. Every element of the
/// output is written by exactly one thread.
template <class V>
void fold_partials(double alpha, double beta, double* out, double* ws,
                   std::size_t stride, int team, std::size_t lo,
                   std::size_t hi) {
  double* acc = ws;
  for (int r = 1; r < team; ++r) {
    const double* src = ws + static_cast<std::size_t>(r) * stride;
    add_inplace<V>(acc + lo, src + lo, hi - lo);
  }
  combine<V>(alpha, beta, out + lo, acc + lo, hi - lo);
}

// ------------------------------------------------------------- gemm_nn

/// Pack B (k×n row-major) into zero-padded kNR-wide strips: the
/// microkernel then reads one contiguous cache line per k step regardless
/// of n, and never needs a column-tail branch in its inner loop. Only the
/// tail strip's padding columns are zeroed, full strips are fully
/// overwritten. Strips start 64-byte aligned (k·kNR doubles apart from
/// an aligned base).
const double* pack_b(const double* pb, std::size_t k, std::size_t n,
                     std::size_t nstrips) {
  double* bp = panel_buffer(nstrips * k * kNR);
  for (std::size_t s = 0; s < nstrips; ++s) {
    const std::size_t j0 = s * kNR;
    const std::size_t w = min_size(kNR, n - j0);
    double* dst = bp + s * k * kNR;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double* src = pb + kk * n + j0;
      for (std::size_t jj = 0; jj < w; ++jj) dst[kk * kNR + jj] = src[jj];
      for (std::size_t jj = w; jj < kNR; ++jj) dst[kk * kNR + jj] = 0.0;
    }
  }
  return bp;
}

/// MR×W register tile against a packed strip: MR·W accumulators live in
/// registers across the whole k loop (compile-time bounds, __restrict so
/// nothing is spilled for aliasing), C is touched exactly once per tile,
/// and tail strips instantiate their true width — no padded flops and no
/// per-element zero branch. This scalar form handles tail strips on every
/// rung (same per-element accumulation order as the vector form).
template <std::size_t MR, std::size_t W>
void micro_nn(const double* __restrict pa, std::size_t lda,
              const double* __restrict bp, std::size_t k, double alpha,
              double beta, double* __restrict pc, std::size_t ldc) {
  double acc[MR][W] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* __restrict b = bp + kk * kNR;
    for (std::size_t r = 0; r < MR; ++r) {
      const double v = pa[r * lda + kk];
      for (std::size_t j = 0; j < W; ++j) acc[r][j] += v * b[j];
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    double* __restrict crow = pc + r * ldc;
    if (beta == 0.0) {
      for (std::size_t j = 0; j < W; ++j) crow[j] = alpha * acc[r][j];
    } else if (beta == 1.0) {
      for (std::size_t j = 0; j < W; ++j) crow[j] += alpha * acc[r][j];
    } else {
      for (std::size_t j = 0; j < W; ++j) {
        crow[j] = beta * crow[j] + alpha * acc[r][j];
      }
    }
  }
}

template <std::size_t MR>
void micro_nn_w(std::size_t w, const double* pa, std::size_t lda,
                const double* bp, std::size_t k, double alpha, double beta,
                double* pc, std::size_t ldc) {
  switch (w) {
    case 1: micro_nn<MR, 1>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 2: micro_nn<MR, 2>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 3: micro_nn<MR, 3>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 4: micro_nn<MR, 4>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 5: micro_nn<MR, 5>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 6: micro_nn<MR, 6>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 7: micro_nn<MR, 7>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    default: micro_nn<MR, 8>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
  }
}

void micro_nn_dispatch(std::size_t mr, std::size_t w, const double* pa,
                       std::size_t lda, const double* bp, std::size_t k,
                       double alpha, double beta, double* pc,
                       std::size_t ldc) {
  switch (mr) {
    case 1: micro_nn_w<1>(w, pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 2: micro_nn_w<2>(w, pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 3: micro_nn_w<3>(w, pa, lda, bp, k, alpha, beta, pc, ldc); break;
    default: micro_nn_w<4>(w, pa, lda, bp, k, alpha, beta, pc, ldc); break;
  }
}

/// Full-width strip microkernel on the rung's lanes: the kNR columns are
/// kNR / V::width vector accumulators of independent chains per row, so
/// each C element accumulates in exactly the same order as the scalar
/// micro_nn<MR, kNR> — the rungs differ only in how many independent
/// chains advance per instruction. Epilogue uses the same beta 0/1/other
/// expression trees. Register budget at kMR = 4: AVX-512 holds 4 acc +
/// B + broadcast in 6 of 32 zmm; AVX2 8 + 2 + 1 of 16 ymm.
template <class V, std::size_t MR>
void micro_nn_full(const double* __restrict pa, std::size_t lda,
                   const double* __restrict bp, std::size_t k, double alpha,
                   double beta, double* __restrict pc, std::size_t ldc) {
  static_assert(kNR % V::width == 0, "strip width must be a lane multiple");
  constexpr std::size_t NV = kNR / V::width;
  V acc[MR][NV];
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t j = 0; j < NV; ++j) acc[r][j] = V::zero();
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* __restrict b = bp + kk * kNR;
    V bv[NV];
    for (std::size_t j = 0; j < NV; ++j) bv[j] = V::load(b + j * V::width);
    for (std::size_t r = 0; r < MR; ++r) {
      const V av = V::broadcast(pa[r * lda + kk]);
      for (std::size_t j = 0; j < NV; ++j) {
        acc[r][j] = acc[r][j] + av * bv[j];
      }
    }
  }
  const V alphav = V::broadcast(alpha);
  for (std::size_t r = 0; r < MR; ++r) {
    double* __restrict crow = pc + r * ldc;
    if (beta == 0.0) {
      for (std::size_t j = 0; j < NV; ++j) {
        (alphav * acc[r][j]).store(crow + j * V::width);
      }
    } else if (beta == 1.0) {
      for (std::size_t j = 0; j < NV; ++j) {
        (V::load(crow + j * V::width) + alphav * acc[r][j])
            .store(crow + j * V::width);
      }
    } else {
      const V betav = V::broadcast(beta);
      for (std::size_t j = 0; j < NV; ++j) {
        (betav * V::load(crow + j * V::width) + alphav * acc[r][j])
            .store(crow + j * V::width);
      }
    }
  }
}

template <class V>
void micro_nn_full_mr(std::size_t mr, const double* pa, std::size_t lda,
                      const double* bp, std::size_t k, double alpha,
                      double beta, double* pc, std::size_t ldc) {
  switch (mr) {
    case 1: micro_nn_full<V, 1>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 2: micro_nn_full<V, 2>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    case 3: micro_nn_full<V, 3>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
    default: micro_nn_full<V, 4>(pa, lda, bp, k, alpha, beta, pc, ldc); break;
  }
}

// ------------------------------------------------------------- gemm_tn

/// Phase-1 block: fold U samples starting at row `i` into the local m×n
/// partial in one pass over the panel — U× less accumulator traffic than
/// the seed's one-sample loop, contiguous streaming loads of A and B,
/// and no per-element zero branch. U is a compile-time constant so the
/// inner sums fully unroll; the class dimension advances V::width
/// independent output elements per step (the per-element sum over u is
/// the same tree on every rung).
template <class V, std::size_t U>
void tn_block(const double* __restrict pa, const double* __restrict pb,
              std::size_t m, std::size_t n, std::size_t i,
              double* __restrict local) {
  const double* a[U];
  const double* b[U];
  for (std::size_t u = 0; u < U; ++u) {
    a[u] = pa + (i + u) * m;
    b[u] = pb + (i + u) * n;
  }
  for (std::size_t j = 0; j < m; ++j) {
    double x[U];
    for (std::size_t u = 0; u < U; ++u) x[u] = a[u][j];
    V xv[U];
    for (std::size_t u = 0; u < U; ++u) xv[u] = V::broadcast(x[u]);
    double* __restrict lrow = local + j * n;
    std::size_t t = 0;
    for (; t + V::width <= n; t += V::width) {
      V s = V::zero();
      for (std::size_t u = 0; u < U; ++u) s = s + xv[u] * V::load(b[u] + t);
      (V::load(lrow + t) + s).store(lrow + t);
    }
    for (; t < n; ++t) {
      double s = 0.0;
      for (std::size_t u = 0; u < U; ++u) s += x[u] * b[u][t];
      lrow[t] += s;
    }
  }
}

/// Phase-1 core: accumulate Aᵀ·B for the sample range [i0, i1) into
/// `local` (m×n, pre-zeroed), 8 samples per pass with 4/2/1 tails.
template <class V>
void accumulate_tn(const double* pa, const double* pb, std::size_t m,
                   std::size_t n, std::size_t i0, std::size_t i1,
                   double* local) {
  std::size_t i = i0;
  for (; i + 8 <= i1; i += 8) tn_block<V, 8>(pa, pb, m, n, i, local);
  for (; i + 4 <= i1; i += 4) tn_block<V, 4>(pa, pb, m, n, i, local);
  for (; i + 2 <= i1; i += 2) tn_block<V, 2>(pa, pb, m, n, i, local);
  for (; i < i1; ++i) tn_block<V, 1>(pa, pb, m, n, i, local);
}

/// Phase-1 core for gemv_t: y-panel is a single column.
template <class V>
void accumulate_tv(const double* __restrict pa, const double* __restrict x,
                   std::size_t m, std::size_t i0, std::size_t i1,
                   double* __restrict local) {
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const double* a0 = pa + i * m;
    const double* a1 = a0 + m;
    const double* a2 = a1 + m;
    const double* a3 = a2 + m;
    const double x0 = x[i];
    const double x1 = x[i + 1];
    const double x2 = x[i + 2];
    const double x3 = x[i + 3];
    const V x0v = V::broadcast(x0);
    const V x1v = V::broadcast(x1);
    const V x2v = V::broadcast(x2);
    const V x3v = V::broadcast(x3);
    std::size_t j = 0;
    for (; j + V::width <= m; j += V::width) {
      V s = x0v * V::load(a0 + j) + x1v * V::load(a1 + j);
      s = s + x2v * V::load(a2 + j);
      s = s + x3v * V::load(a3 + j);
      (V::load(local + j) + s).store(local + j);
    }
    for (; j < m; ++j) {
      local[j] += x0 * a0[j] + x1 * a1[j] + x2 * a2[j] + x3 * a3[j];
    }
  }
  for (; i < i1; ++i) {
    axpy<V>(x[i], pa + i * m, local, m);
  }
}

/// Row boundary for thread t when partitioning CSR rows by nonzero count:
/// the first row whose prefix nnz reaches t/team of the total. Depends
/// only on (rp, t, team) — deterministic and balanced for skewed shards
/// where equal row counts would not be. `rp` (`len` entries) may carry a
/// shard view's absolute offsets (rp[0] != 0); the target is relative to
/// that base, so a view and a copied shard partition identically.
std::size_t nnz_boundary(const std::int64_t* rp, std::size_t len,
                         std::int64_t nnz, int t, int team) {
  const std::int64_t target =
      rp[0] +
      nnz * static_cast<std::int64_t>(t) / static_cast<std::int64_t>(team);
  return lower_bound_index(rp, len, target);
}

/// Thread t's rows (or CSC columns) of `rp`, balanced by nonzero count
/// with nnz_boundary; the last thread also takes the trailing empty rows,
/// so the team's ranges tile [0, len − 1) exactly.
Range nnz_range(const std::int64_t* rp, std::size_t len, std::int64_t nnz,
                int t, int team) {
  return {nnz_boundary(rp, len, nnz, t, team),
          t + 1 == team ? len - 1 : nnz_boundary(rp, len, nnz, t + 1, team)};
}

// ------------------------------------------------------ sparse row tiles
//
// Both sparse products are sums of scaled dense rows: spmm_nn and the
// CSC gather build one output row from many rows of B, the one-thread
// spmm_tn adds one row of B into many output rows. A register tile holds
// up to kRowVecs lane vectors of the row that stays put (the output row
// of a gather, the B row of a scatter) across all the nonzeros that use
// it, so that row is loaded and stored once per tile instead of once per
// nonzero. The last vector of a tile may be partial (load_n / store_n),
// so a row of any width needs no scalar tail. Four vectors cover the
// E18 class panel (19 columns) in one tile on AVX-512.

constexpr std::size_t kRowVecs = 4;

/// Lane vector j of an NV-vector tile at p; the last one holds `tail`
/// (1..V::width) lanes.
template <class V, std::size_t NV>
V tile_load(const double* p, std::size_t j, std::size_t tail) {
  const double* q = p + j * V::width;
  return j + 1 < NV || tail == V::width ? V::load(q) : V::load_n(q, tail);
}

template <class V, std::size_t NV>
void tile_store(V x, double* p, std::size_t j, std::size_t tail) {
  double* q = p + j * V::width;
  if (j + 1 < NV || tail == V::width) {
    x.store(q);
  } else {
    x.store_n(q, tail);
  }
}

/// Calls f.template operator()<NV>(c0, tail) for each register tile of
/// an n-column row: columns [c0, c0 + (NV − 1)·width + tail).
template <class V, class F>
void for_each_tile(std::size_t n, F&& f) {
  static_assert(kRowVecs == 4, "the switch below covers 1..4 vectors");
  constexpr std::size_t kTile = kRowVecs * V::width;
  for (std::size_t c0 = 0; c0 < n; c0 += kTile) {
    const std::size_t w = min_size(kTile, n - c0);
    const std::size_t nv = (w + V::width - 1) / V::width;
    const std::size_t tail = w - (nv - 1) * V::width;
    switch (nv) {
      case 1: f.template operator()<1>(c0, tail); break;
      case 2: f.template operator()<2>(c0, tail); break;
      case 3: f.template operator()<3>(c0, tail); break;
      default: f.template operator()<4>(c0, tail); break;
    }
  }
}

/// One output row of a gather: out = beta·out + Σ_e (alpha·vals[e])·B_r,
/// r = idx[e] − base, over e ∈ [e0, e1) in ascending order. The tile
/// starts from the same beta == 0 / beta == 1 / other expressions as
/// scale_output and adds each term like axpy, so every element sees the
/// same rounded operations in the same order as "scale the row, then one
/// axpy per nonzero". B rows up to kPrefetchAhead entries ahead are
/// prefetched while e + kPrefetchAhead < pf_end (pf_end = 0: never).
template <class V, class Idx>
void gather_row(double alpha, double beta, const Idx* idx, Idx base,
                const double* vals, std::int64_t e0, std::int64_t e1,
                std::int64_t pf_end, const double* pb, std::size_t n,
                double* out) {
  for_each_tile<V>(n, [&]<std::size_t NV>(std::size_t c0, std::size_t tail) {
    V acc[NV];
    if (beta == 0.0) {
      for (std::size_t j = 0; j < NV; ++j) acc[j] = V::zero();
    } else if (beta == 1.0) {
      for (std::size_t j = 0; j < NV; ++j) {
        acc[j] = tile_load<V, NV>(out + c0, j, tail);
      }
    } else {
      const V bv = V::broadcast(beta);
      for (std::size_t j = 0; j < NV; ++j) {
        acc[j] = tile_load<V, NV>(out + c0, j, tail) * bv;
      }
    }
    for (std::int64_t e = e0; e < e1; ++e) {
      if (e + kPrefetchAhead < pf_end) {
        prefetch(pb + static_cast<std::size_t>(idx[e + kPrefetchAhead] - base) *
                          n);
      }
      const V av = V::broadcast(alpha * vals[e]);
      const double* brow =
          pb + static_cast<std::size_t>(idx[e] - base) * n + c0;
      for (std::size_t j = 0; j < NV; ++j) {
        acc[j] = acc[j] + av * tile_load<V, NV>(brow, j, tail);
      }
    }
    for (std::size_t j = 0; j < NV; ++j) {
      tile_store<V, NV>(acc[j], out + c0, j, tail);
    }
  });
}

/// Wide-output spmm_tn on a team of more than one thread: gather over the
/// parent matrix's cached transposed (CSC) view — every output row is
/// computed independently from its column's entries in ascending sample
/// order. No per-thread dense partials at all, so reduction work scales
/// with nnz instead of team × cols × n, and the summation order per
/// output element is fixed — the result is bit-identical for ANY thread
/// count. The CSC view is built once per parent matrix
/// (CsrMatrix::transposed()) and is shared by every shard view of it, so
/// the build amortizes across all ranks' CG iterations. On a whole
/// matrix the entry loop prefetches B rows kPrefetchAhead entries ahead,
/// across column boundaries: row_idx-indexed loads are the one pattern
/// the hardware prefetcher cannot cover.
template <class V>
void spmm_tn_gather(double alpha, const Csr& a, Dense b, double beta,
                    DenseOut c) {
  const std::size_t m = a.cols, n = b.cols;
  const Csc tv = csc_of(*a.parent);
  const std::int64_t* colptr = tv.col_ptr;
  const std::int32_t* trows = tv.row_idx;
  const double* tvals = tv.values;
  const double* pb = b.data;
  double* pc = c.data;

  if (a.covers_parent) {
    const auto nnz = static_cast<std::int64_t>(a.nnz);
    const auto elim = static_cast<std::int64_t>(tv.entries);
#pragma omp parallel
    {
      // Independent per-output-row gathers, balanced by entry count; the
      // ranges depend only on (col_ptr, team), so the tiling is
      // deterministic.
      const Range jr = nnz_range(colptr, m + 1, nnz, thread_id(), team_size());
      for (std::size_t j = jr.lo; j < jr.hi; ++j) {
        gather_row<V>(alpha, beta, trows, std::int32_t{0}, tvals, colptr[j],
                      colptr[j + 1], elim, pb, n, pc + j * n);
      }
    }
    return;
  }

  // Shard view: restrict every column of the shared CSC to the view's
  // parent-row range. Rows ascend within a column, so the range is one
  // binary-searched subrange per column — the gather then visits exactly
  // the shard's entries in the same ascending order a copied shard's own
  // CSC would, so the result is bit-identical to the copy (and to any
  // thread count; columns are statically sliced, every output row is
  // written by exactly one thread). No prefetch: the entries past a
  // column's subrange belong to other shards' rows.
  const auto lo_row = static_cast<std::int32_t>(a.row_begin);
  const auto hi_row = static_cast<std::int32_t>(a.row_begin + a.rows);
#pragma omp parallel
  {
    const Range jr = slice(m, thread_id(), team_size());
    for (std::size_t j = jr.lo; j < jr.hi; ++j) {
      const std::int32_t* cb = trows + colptr[j];
      const auto len = static_cast<std::size_t>(colptr[j + 1] - colptr[j]);
      const auto e0 = colptr[j] + static_cast<std::int64_t>(
                                      lower_bound_index(cb, len, lo_row));
      const auto e1 = colptr[j] + static_cast<std::int64_t>(
                                      lower_bound_index(cb, len, hi_row));
      gather_row<V>(alpha, beta, trows, lo_row, tvals, e0, e1, /*pf_end=*/0,
                    pb, n, pc + j * n);
    }
  }
}

/// Wide-output spmm_tn on one thread: scatter the CSR rows straight into
/// C — no CSC, no binary search, no partials. C is beta-scaled first
/// (scale_output), then each nonzero a_e of sample row i adds
/// (alpha·a_e)·B_i into C row col(e), with B_i's tile in registers across
/// the row's nonzeros. Output element (j, t) therefore receives its terms
/// in ascending sample order as the same rounded operations the gather
/// performs — the result is bit-identical to spmm_tn_gather at any team
/// size, for every alpha and beta.
template <class V>
void spmm_tn_scatter(double alpha, const Csr& a, Dense b, double beta,
                     DenseOut c) {
  const std::size_t n = b.cols;
  const std::int64_t* rp = a.row_ptr;
  const std::int64_t* ci = a.col_idx;
  const double* va = a.values;
  double* pc = c.data;
  scale_output<V>(beta, pc, c.rows * n);
  for (std::size_t i = 0; i < a.rows; ++i) {
    const std::int64_t e0 = rp[i], e1 = rp[i + 1];
    if (e0 == e1) continue;
    const double* brow = b.data + i * n;
    for_each_tile<V>(n, [&]<std::size_t NV>(std::size_t c0, std::size_t tail) {
      V bv[NV];
      for (std::size_t j = 0; j < NV; ++j) {
        bv[j] = tile_load<V, NV>(brow + c0, j, tail);
      }
      for (std::int64_t e = e0; e < e1; ++e) {
        const V av = V::broadcast(alpha * va[e]);
        double* crow = pc + static_cast<std::size_t>(ci[e]) * n + c0;
        for (std::size_t j = 0; j < NV; ++j) {
          tile_store<V, NV>(tile_load<V, NV>(crow, j, tail) + av * bv[j], crow,
                            j, tail);
        }
      }
    });
  }
}

// ------------------------------------------------------------- softmax

/// One fused sweep over a score row: running max and running exp-sum are
/// maintained together (stored exponentials are rescaled on the rare max
/// update), so each score is exponentiated exactly once; a second short
/// sweep normalizes. The implicit class contributes score 0 (m starts at
/// 0, alpha at e⁰ = 1), matching the paper's eq. (9)-(10) stabilization.
/// The running sweep is a true recurrence and stays scalar; the rescale
/// and normalize sweeps scale independent elements and use the lanes.
template <class V>
double softmax_row(const double* s, double* p, std::size_t c,
                   std::int32_t label, double& lse_out) {
  double m = 0.0;
  double alpha = 1.0;
  for (std::size_t j = 0; j < c; ++j) {
    const double v = s[j];
    if (v <= m) {
      const double e = std::exp(v - m);
      p[j] = e;
      alpha += e;
    } else {
      const double rescale = std::exp(m - v);
      scale<V>(rescale, p, j);
      alpha = alpha * rescale + 1.0;
      p[j] = 1.0;
      m = v;
    }
  }
  const double inv_alpha = 1.0 / alpha;
  scale<V>(inv_alpha, p, c);
  lse_out = m + std::log(alpha);
  const auto y = static_cast<std::size_t>(label);
  return lse_out - (y < c ? s[y] : 0.0);
}

// ===========================================================================
// Engine kernels, templated on the lane type. Identical blocking,
// partitioning and fold order on every rung — only the number of
// independent chains per instruction differs. Shapes are validated by
// kernels::Rung before any of these run.
// ===========================================================================

template <class V>
void engine_gemm_nn(double alpha, Dense a, Dense b, double beta, DenseOut c) {
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  if (m == 0 || n == 0) return;
  const double* pa = a.data;
  double* pc = c.data;

  const std::size_t nstrips = (n + kNR - 1) / kNR;
  const double* bp = pack_b(b.data, k, n, nstrips);

  const std::size_t ntiles = (m + kMR - 1) / kMR;
  [[maybe_unused]] const bool parallel = 2 * m * k * n >= kParallelFlops;
#pragma omp parallel for schedule(static) if (parallel)
  for (std::ptrdiff_t it = 0; it < static_cast<std::ptrdiff_t>(ntiles); ++it) {
    const std::size_t i = static_cast<std::size_t>(it) * kMR;
    const std::size_t mr = min_size(kMR, m - i);
    for (std::size_t s = 0; s < nstrips; ++s) {
      const std::size_t j0 = s * kNR;
      const std::size_t w = min_size(kNR, n - j0);
      if (w == kNR) {
        micro_nn_full_mr<V>(mr, pa + i * k, k, bp + s * k * kNR, k, alpha,
                            beta, pc + i * n + j0, n);
      } else {
        micro_nn_dispatch(mr, w, pa + i * k, k, bp + s * k * kNR, k, alpha,
                          beta, pc + i * n + j0, n);
      }
    }
  }
}

template <class V>
void engine_gemm_tn(double alpha, Dense a, Dense b, double beta, DenseOut c) {
  const std::size_t k = a.rows;  // samples
  const std::size_t m = a.cols;  // features
  const std::size_t n = b.cols;  // classes
  const std::size_t mn = m * n;
  if (mn == 0) return;
  if (k == 0) {
    scale_output<Scalar>(beta, c.data, mn);
    return;
  }
  const double* pa = a.data;
  const double* pb = b.data;
  double* pc = c.data;

  const bool parallel = 2 * k * m * n >= kParallelFlops;
  const int tmax = max_team(parallel);
  // Per-thread k-block partials; phase 2 folds them in thread order.
  double* ws = reduction_buffer(static_cast<std::size_t>(tmax) * mn);
#pragma omp parallel if (parallel)
  {
    const int team = team_size();
    const int t = thread_id();
    double* local = ws + static_cast<std::size_t>(t) * mn;
    fill_zero(local, mn);
    const Range kr = slice(k, t, team);
    accumulate_tn<V>(pa, pb, m, n, kr.lo, kr.hi, local);
#pragma omp barrier
    const Range er = slice(mn, t, team);
    fold_partials<V>(alpha, beta, pc, ws, mn, team, er.lo, er.hi);
  }
}

template <class V>
void engine_gemv_t(double alpha, Dense a, const double* x, double beta,
                   double* y) {
  const std::size_t k = a.rows, m = a.cols;
  if (m == 0) return;
  if (k == 0) {
    scale_output<Scalar>(beta, y, m);
    return;
  }
  const double* pa = a.data;

  const bool parallel = 2 * m * k >= kParallelFlops;
  const int tmax = max_team(parallel);
  double* ws = reduction_buffer(static_cast<std::size_t>(tmax) * m);
#pragma omp parallel if (parallel)
  {
    const int team = team_size();
    const int t = thread_id();
    double* local = ws + static_cast<std::size_t>(t) * m;
    fill_zero(local, m);
    const Range kr = slice(k, t, team);
    accumulate_tv<V>(pa, x, m, kr.lo, kr.hi, local);
#pragma omp barrier
    const Range er = slice(m, t, team);
    fold_partials<V>(alpha, beta, y, ws, m, team, er.lo, er.hi);
  }
}

template <class V>
void engine_spmm_nn(double alpha, const Csr& a, Dense b, double beta,
                    DenseOut c) {
  const std::size_t m = a.rows, n = b.cols;
  if (m == 0 || n == 0) return;
  const std::int64_t* rp = a.row_ptr;
  const auto nnz = static_cast<std::int64_t>(a.nnz);
  [[maybe_unused]] const bool parallel = 2 * a.nnz * n >= kParallelFlops;
  // Every output row is one independent gather, so any partition gives
  // the same bits; balancing by nonzero count keeps skewed shards even.
#pragma omp parallel if (parallel)
  {
    const Range rr = nnz_range(rp, m + 1, nnz, thread_id(), team_size());
    for (std::size_t i = rr.lo; i < rr.hi; ++i) {
      gather_row<V>(alpha, beta, a.col_idx, std::int64_t{0}, a.values, rp[i],
                    rp[i + 1], /*pf_end=*/0, b.data, n, c.data + i * n);
    }
  }
}

template <class V>
void engine_spmm_tn(double alpha, const Csr& a, Dense b, double beta,
                    DenseOut c) {
  const std::size_t n = b.cols;
  const std::size_t mn = c.rows * c.cols;
  if (mn == 0) return;
  if (a.nnz == 0) {
    scale_output<Scalar>(beta, c.data, mn);
    return;
  }
  const bool parallel = 2 * a.nnz * n >= kParallelFlops;
  const int tmax = max_team(parallel);

  // Wide outputs (team × output panel larger than the nonzero count):
  // dense per-thread partials would cost more traffic than the matrix
  // itself — one thread scatters rows straight into C, a larger team
  // gathers over the transposed view (the two agree bit for bit). Narrow
  // outputs keep the two-phase dense reduction below.
  if (static_cast<std::size_t>(tmax) * mn > a.nnz) {
    if (tmax == 1) {
      spmm_tn_scatter<V>(alpha, a, b, beta, c);
    } else {
      spmm_tn_gather<V>(alpha, a, b, beta, c);
    }
    return;
  }

  const std::int64_t* rp = a.row_ptr;
  const std::int64_t* ci = a.col_idx;
  const double* va = a.values;
  const double* pb = b.data;
  double* pc = c.data;

  double* ws = reduction_buffer(static_cast<std::size_t>(tmax) * mn);
  const auto nnz = static_cast<std::int64_t>(a.nnz);
#pragma omp parallel if (parallel)
  {
    const int team = team_size();
    const int t = thread_id();
    double* local = ws + static_cast<std::size_t>(t) * mn;
    fill_zero(local, mn);
    const std::size_t r0 = nnz_boundary(rp, a.rows + 1, nnz, t, team);
    const std::size_t r1 = nnz_boundary(rp, a.rows + 1, nnz, t + 1, team);
    for (std::size_t i = r0; i < r1; ++i) {
      const double* brow = pb + i * n;
      for (std::int64_t e = rp[i]; e < rp[i + 1]; ++e) {
        double* lrow = local + static_cast<std::size_t>(ci[e]) * n;
        axpy<V>(va[e], brow, lrow, n);
      }
    }
#pragma omp barrier
    const Range er = slice(mn, t, team);
    fold_partials<V>(alpha, beta, pc, ws, mn, team, er.lo, er.hi);
  }
}

template <class V>
double engine_softmax_forward(Dense scores, const std::int32_t* labels,
                              DenseOut probs, double* lse) {
  const std::size_t n = scores.rows;
  const std::size_t c = scores.cols;
  if (n == 0) return 0.0;
  const double* ps = scores.data;
  double* pp = probs.data;

  const bool parallel = n * c >= kParallelRows;
  const auto tmax = static_cast<std::size_t>(max_team(parallel));
  double* partial = reduction_buffer(tmax);
  fill_zero(partial, tmax);
#pragma omp parallel if (parallel)
  {
    const int team = team_size();
    const int t = thread_id();
    const Range rr = slice(n, t, team);
    double loss = 0.0;
    for (std::size_t i = rr.lo; i < rr.hi; ++i) {
      loss += softmax_row<V>(ps + i * c, pp + i * c, c, labels[i], lse[i]);
    }
    partial[static_cast<std::size_t>(t)] = loss;
  }
  // Fold loss partials in fixed thread order (deterministic for a given
  // thread count; unused slots stay exactly 0.0).
  double total = 0.0;
  for (std::size_t t = 0; t < tmax; ++t) total += partial[t];
  return total;
}

/// Host-peak probe: `steps` rounds of unfused v = v·m + a over twelve
/// independent chains of V — the arithmetic the engine itself is allowed
/// (no FMA), so its rate is the compute roof of this rung. Twelve chains
/// outrun the mul→add latency of two FP pipes yet, with the two
/// constants, still fit the 16 registers of SSE2/AVX2. Returns the flops
/// performed.
template <class V>
double mul_add_probe(std::size_t steps) {
  constexpr std::size_t kChains = 12;
  double seed_vals[V::width];
  for (std::size_t l = 0; l < V::width; ++l) {
    seed_vals[l] = 1.0 + 1e-9 * static_cast<double>(l);
  }
  const V m = V::broadcast(1.0 + 1e-12);
  const V add = V::broadcast(1e-12);
  V acc[kChains];
  for (auto& v : acc) v = V::load(seed_vals);
  for (std::size_t s = 0; s < steps; ++s) {
    for (auto& v : acc) v = v * m + add;
  }
  double sum = 0.0;
  for (auto& v : acc) {
    v.store(seed_vals);
    for (std::size_t l = 0; l < V::width; ++l) sum += seed_vals[l];
  }
  volatile double sink = sum;  // keeps every chain live
  static_cast<void>(sink);
  return 2.0 * static_cast<double>(V::width * kChains * steps);
}

/// The rung table for lane type V.
template <class V>
constexpr Table make_table(const char* isa) {
  return {isa,
          &engine_gemm_nn<V>,
          &engine_gemm_tn<V>,
          &engine_gemv_t<V>,
          &engine_spmm_nn<V>,
          &engine_spmm_tn<V>,
          &engine_softmax_forward<V>,
          &mul_add_probe<V>};
}

}  // namespace
}  // namespace nadmm::la::kernels::engine
