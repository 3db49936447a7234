// Lock-free blocked kernel engine for the Newton-ADMM hot path.
//
// Every second-order step runs three product shapes per CG iteration on
// every rank: scores S = A·X (gemm_nn / spmm_nn), gradient and
// Hessian-vector accumulation G = Aᵀ·W (gemm_tn / spmm_tn), and the
// softmax forward sweep over the score panel. The seed kernels serialized
// the transposed products through `#pragma omp critical` reduces; the
// engine replaces them with deterministic two-phase reductions:
//
//   phase 1  each thread accumulates a private partial over a statically
//            partitioned block of the k (sample) dimension;
//   phase 2  the output range is statically partitioned across the same
//            team, and each thread folds the partials for its slice in
//            fixed thread order 0..T−1.
//
// Both phases are static, so for a given thread count the result is
// bit-identical run to run (the sweep scheduler relies on this). The
// dense gemm_nn is a register-blocked microkernel (packed B panel, 4×8
// tiles, no per-element zero branch), and the softmax forward is a fused
// single-sweep (online max / exp / sum with a trailing normalize).
//
// The seed implementations are preserved under kernels::reference — they
// are the parity oracle for tests and the "vs seed" side of
// bench_kernels, which is what BENCH_kernels.json and the CI perf-smoke
// gate measure against.
//
// The engine is compiled once per rung of an ISA ladder (avx512 / avx2
// / std::experimental::simd / scalar; la/engine.hpp) and the public
// kernels run at the rung chosen at first use: the widest one this CPU
// supports, or the one NADMM_ISA names. Vector lanes only ever span
// independent output elements and no path fuses a multiply-add, so
// every rung is bit-identical to the scalar engine — kernels::scalar
// exports the scalar rung as the oracle the ISA parity tests compare
// against.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "la/dense_matrix.hpp"
#include "la/sparse_matrix.hpp"

namespace nadmm::la::kernels {

/// Shared parallelism threshold: below this many flops an OpenMP region
/// costs more than it saves (SGD minibatches, SVRG inner steps stay
/// serial). Every la kernel — engine, gemv, spmm — gates on this one
/// constant.
inline constexpr std::size_t kParallelFlops = 1 << 17;

/// Row-count analogue of kParallelFlops for cheap per-sample panel
/// sweeps (softmax forward/gradient/Hessian loops).
inline constexpr std::size_t kParallelRows = 1 << 14;

/// The A operand of every engine product is a non-owning row-range view
/// (la::DenseView / la::CsrView); whole matrices convert implicitly, and
/// a rank's shard runs in place on the parent's storage. For a contiguous
/// shard view the engine is bit-identical to running on a copied shard at
/// the same thread count (the CSR gather path is bit-identical for any
/// thread count) — the shard-native data plane and its tests rely on
/// both.

/// C = alpha·A·B + beta·C (A: m×k, B: k×n, C: m×n). Register-blocked
/// microkernel over a packed B panel; deterministic for any thread count
/// (each C row is produced by exactly one thread in fixed k order).
void gemm_nn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c);

/// C = alpha·Aᵀ·B + beta·C (A: k×m, B: k×n, C: m×n). Two-phase lock-free
/// reduction; deterministic for a fixed thread count.
void gemm_tn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c);

/// y = alpha·Aᵀ·x + beta·y (A: k×m). Two-phase lock-free reduction.
void gemv_t(double alpha, DenseView a, std::span<const double> x,
            double beta, std::span<double> y);

/// C = alpha·A·B + beta·C (A: m×k CSR). Each output row is one
/// independent gather held in registers across the row's nonzeros; rows
/// are partitioned by nonzero count. Bit-identical for any thread count.
void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);

/// C = alpha·Aᵀ·B + beta·C (A: k×m CSR). Hybrid lock-free strategy:
/// narrow outputs use the two-phase reduction with CSR rows partitioned
/// by nonzero count (boundaries depend only on (row_ptr, T)). Wide
/// outputs — T·m·n larger than nnz, the E18 regime — have no dense
/// partials at all: one thread scatters the CSR rows straight into C,
/// a larger team gathers over the parent matrix's cached transposed
/// (CSC) view (restricted to the view's row range by per-column binary
/// search for shard views). Both give every output element its terms in
/// ascending sample order, so the wide regime is bit-identical for any
/// thread count.
void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);

/// Fused softmax forward over a score panel (n × (C−1), class C implicit
/// with score 0): one online sweep per row computes the stabilizing max,
/// the exponentials and their sum together; a second short sweep
/// normalizes. Writes P (probabilities) and per-row LSE, and returns the
/// summed cross-entropy loss Σ_i [lse_i − s_{i,y_i}] (0 for the implicit
/// class). Loss partials are folded in fixed thread order.
double softmax_forward(const DenseMatrix& scores,
                       std::span<const std::int32_t> labels,
                       DenseMatrix& probs, std::span<double> lse);

namespace engine {
struct Table;
}

/// One rung of the ISA dispatch ladder: the engine instantiated for one
/// vector width. The kernels validate shapes like the free functions
/// above (InvalidArgument) and are bit-identical on every rung.
class Rung {
 public:
  constexpr explicit Rung(const engine::Table& table) : table_(&table) {}

  /// "avx512" | "avx2" | "stdsimd" | "scalar".
  [[nodiscard]] const char* isa() const;

  void gemm_nn(double alpha, DenseView a, const DenseMatrix& b, double beta,
               DenseMatrix& c) const;
  void gemm_tn(double alpha, DenseView a, const DenseMatrix& b, double beta,
               DenseMatrix& c) const;
  void gemv_t(double alpha, DenseView a, std::span<const double> x,
              double beta, std::span<double> y) const;
  void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
               double beta, DenseMatrix& c) const;
  void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
               double beta, DenseMatrix& c) const;
  double softmax_forward(const DenseMatrix& scores,
                         std::span<const std::int32_t> labels,
                         DenseMatrix& probs, std::span<double> lse) const;

  /// Host-peak probe on this rung's vectors: `steps` rounds of unfused
  /// mul + add over twelve independent chains, the engine's own
  /// arithmetic. Returns the flops performed.
  double mul_add_probe(std::size_t steps) const;

 private:
  const engine::Table* table_;
};

/// The CPU features the x86 rungs need.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
};

/// What this CPU reports (__builtin_cpu_supports; none off x86).
CpuFeatures host_cpu();

/// The rung a NADMM_ISA value selects on `cpu`: "avx512", "avx2",
/// "stdsimd" or "scalar", or the widest rung `cpu` runs when `request`
/// is empty. Throws InvalidArgument, naming the request, for an unknown
/// rung, one this build did not compile, or one `cpu` lacks the
/// feature for — never a rung that would fault on this CPU.
Rung select_rung(std::string_view request, CpuFeatures cpu);

/// Every rung this build compiled and `cpu` runs, widest first; the
/// last is always "scalar".
std::vector<Rung> supported_rungs(CpuFeatures cpu);

/// The rung the free kernels above run at: select_rung(NADMM_ISA,
/// host_cpu()), chosen once, at first use. With a bad NADMM_ISA every
/// call throws select_rung's named error.
Rung active_rung();

/// active_rung().isa(). Recorded into bench JSON context and useful when
/// reading parity-test failures.
const char* active_isa();

/// The scalar rung (same blocking, same two-phase reductions, 1 lane).
/// This is the parity oracle for the ISA dispatch ladder: every vector
/// rung must produce output bit-identical to these at every thread
/// count. Not a seed copy — for that, see kernels::reference below.
namespace scalar {

void gemm_nn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
void gemm_tn(double alpha, DenseView a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
void gemv_t(double alpha, DenseView a, std::span<const double> x,
            double beta, std::span<double> y);
void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
double softmax_forward(const DenseMatrix& scores,
                       std::span<const std::int32_t> labels,
                       DenseMatrix& probs, std::span<double> lse);

}  // namespace scalar

/// Seed (pre-engine) kernels, kept verbatim as the parity oracle and the
/// baseline side of bench_kernels. Not used on any hot path.
namespace reference {

void gemm_nn(double alpha, const DenseMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
void gemm_tn(double alpha, const DenseMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
void gemv_t(double alpha, const DenseMatrix& a, std::span<const double> x,
            double beta, std::span<double> y);
void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
void spmm_tn(double alpha, const CsrMatrix& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);
double softmax_forward(const DenseMatrix& scores,
                       std::span<const std::int32_t> labels,
                       DenseMatrix& probs, std::span<double> lse);

}  // namespace reference

}  // namespace nadmm::la::kernels
