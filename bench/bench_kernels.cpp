// Kernel-engine benchmarks: every rewired hot-path kernel (register-
// blocked gemm_nn, two-phase gemm_tn / gemv_t / spmm_tn, register-row
// spmm_nn, fused softmax forward) against the seed critical-section implementations preserved in
// la::kernels::reference, at 1/4/8 OpenMP threads, over dense MNIST-like
// / CIFAR-like and sparse E18-like shapes.
//
// The JSON output feeds tools/perf_smoke.py: the committed
// BENCH_kernels.json baseline records the engine-vs-seed speedup per
// (kernel, threads), and the CI perf-smoke job fails when any measured
// speedup regresses more than 25% below it. Speedups are same-run,
// same-machine ratios, so the gate is robust to runner hardware.
//
// Every kernel also reports absolute throughput (items_per_second is
// GFLOP/s-style work items, bytes_per_second is memory traffic), and two
// host-peak probes — a STREAM-style triad for bandwidth and an unfused
// mul+add chain for compute — record what this machine can actually do.
// tools/perf_smoke.py divides the two to gate "fraction of host peak",
// which is machine-normalized the same way the speedup ratios are.
#include <benchmark/benchmark.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <unistd.h>

#include <cstdint>
#include <vector>

#include "data/generators.hpp"
#include "la/dense_matrix.hpp"
#include "la/kernels.hpp"
#include "la/sparse_matrix.hpp"
#include "model/softmax.hpp"
#include "support/rng.hpp"

namespace {

using namespace nadmm;

void set_threads(std::int64_t threads) {
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(threads));
#else
  static_cast<void>(threads);
#endif
}

la::DenseMatrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  la::DenseMatrix m(r, c);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

// ------------------------------------------------- gemm_nn (scores A·X)

template <bool kEngine>
void BM_GemmNN_Mnist(benchmark::State& state) {
  set_threads(state.range(0));
  const std::size_t n = 2000, p = 784, c = 9;
  const auto a = random_matrix(n, p, 1);
  const auto x = random_matrix(p, c, 2);
  la::DenseMatrix s(n, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_nn(1.0, a, x, 0.0, s);
    } else {
      la::kernels::reference::gemm_nn(1.0, a, x, 0.0, s);
    }
    benchmark::DoNotOptimize(s.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + p * c + n * c)));
}

template <bool kEngine>
void BM_GemmNN_Cifar(benchmark::State& state) {
  set_threads(state.range(0));
  const std::size_t n = 600, p = 3072, c = 9;
  const auto a = random_matrix(n, p, 3);
  const auto x = random_matrix(p, c, 4);
  la::DenseMatrix s(n, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_nn(1.0, a, x, 0.0, s);
    } else {
      la::kernels::reference::gemm_nn(1.0, a, x, 0.0, s);
    }
    benchmark::DoNotOptimize(s.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + p * c + n * c)));
}

// ------------------------------------------- gemm_tn (gradient Aᵀ·W)

template <bool kEngine>
void BM_GemmTN_Mnist(benchmark::State& state) {
  set_threads(state.range(0));
  const std::size_t n = 2000, p = 784, c = 9;
  const auto a = random_matrix(n, p, 5);
  const auto w = random_matrix(n, c, 6);
  la::DenseMatrix g(p, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_tn(1.0, a, w, 0.0, g);
    } else {
      la::kernels::reference::gemm_tn(1.0, a, w, 0.0, g);
    }
    benchmark::DoNotOptimize(g.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + n * c + p * c)));
}

template <bool kEngine>
void BM_GemmTN_MnistShard(benchmark::State& state) {
  set_threads(state.range(0));
  // Per-rank gradient shard in a 16-worker weak-scaling run with a 10%
  // subsampled Hessian panel: few samples against the full parameter
  // panel, so the seed's serialized reduce is a large fraction of the
  // per-thread compute.
  const std::size_t n = 250, p = 784, c = 9;
  const auto a = random_matrix(n, p, 15);
  const auto w = random_matrix(n, c, 16);
  la::DenseMatrix g(p, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_tn(1.0, a, w, 0.0, g);
    } else {
      la::kernels::reference::gemm_tn(1.0, a, w, 0.0, g);
    }
    benchmark::DoNotOptimize(g.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + n * c + p * c)));
}

template <bool kEngine>
void BM_GemmTN_Cifar(benchmark::State& state) {
  set_threads(state.range(0));
  // Weak-scaling CIFAR shard: wider feature dimension, so the seed's
  // serialized reduce covers a 3072×9 panel per thread.
  const std::size_t n = 600, p = 3072, c = 9;
  const auto a = random_matrix(n, p, 13);
  const auto w = random_matrix(n, c, 14);
  la::DenseMatrix g(p, c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemm_tn(1.0, a, w, 0.0, g);
    } else {
      la::kernels::reference::gemm_tn(1.0, a, w, 0.0, g);
    }
    benchmark::DoNotOptimize(g.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + n * c + p * c)));
}

// --------------------------------------------------- gemv_t (CG vector)

template <bool kEngine>
void BM_GemvT_Mnist(benchmark::State& state) {
  set_threads(state.range(0));
  const std::size_t n = 2000, p = 784;
  const auto a = random_matrix(n, p, 7);
  Rng rng(8);
  std::vector<double> x(n), y(p);
  for (double& v : x) v = rng.normal();
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::gemv_t(1.0, a, x, 0.0, y);
    } else {
      la::kernels::reference::gemv_t(1.0, a, x, 0.0, y);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * p));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (n * p + n + p)));
}

// -------------------------------------- spmm_tn (sparse gradient Aᵀ·W)

template <bool kEngine>
void BM_SpmmTN_E18(benchmark::State& state) {
  set_threads(state.range(0));
  // Paper-scale E18 shard: p = 27,998 genes with a weak-scaling per-rank
  // sample count. The output panel is p×19, so this is the regime where
  // the seed's critical-section reduce serializes a 4.3 MB panel per
  // thread while the per-thread compute shrinks with the thread count.
  const auto tt = data::make_e18_like(400, 10, 27998, 9);
  const auto& a = tt.train.sparse_features();
  const std::size_t c = 19;
  const auto w = random_matrix(a.rows(), c, 10);
  la::DenseMatrix g(a.cols(), c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::spmm_tn(1.0, a, w, 0.0, g);
    } else {
      la::kernels::reference::spmm_tn(1.0, a, w, 0.0, g);
    }
    benchmark::DoNotOptimize(g.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * a.nnz() * c));
  // CSR storage (values + col_idx + row_ptr) plus the dense W read and
  // the G panel write; the cached-CSC path touches the transpose instead
  // but the byte count is the same.
  const std::size_t csr_bytes =
      a.nnz() * (sizeof(double) + sizeof(std::int64_t)) +
      (a.rows() + 1) * sizeof(std::int64_t);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(csr_bytes +
                                8 * (a.rows() * c + a.cols() * c)));
}

// ------------------------------------ spmm_nn (sparse scores A·X, shard)

template <bool kEngine>
void BM_SpmmNN_E18(benchmark::State& state) {
  set_threads(state.range(0));
  // One rank's scores product in a paper-scale E18 run: a 400-row shard
  // view into the middle of the parent matrix (p = 27,998 genes) against
  // the full p×19 parameter panel, the CG's forward half.
  const auto tt = data::make_e18_like(800, 10, 27998, 9);
  const auto& parent = tt.train.sparse_features();
  const la::CsrView a = parent.view(200, 600);
  const std::size_t c = 19;
  const auto x = random_matrix(a.cols(), c, 17);
  la::DenseMatrix s(a.rows(), c);
  for (auto _ : state) {
    if constexpr (kEngine) {
      la::spmm_nn(1.0, a, x, 0.0, s);
    } else {
      la::kernels::reference::spmm_nn(1.0, a, x, 0.0, s);
    }
    benchmark::DoNotOptimize(s.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * a.nnz() * c));
  // The ledger's compulsory traffic: CSR storage, X read once, S written
  // once.
  const std::size_t csr_bytes =
      a.nnz() * (sizeof(double) + sizeof(std::int64_t)) +
      (a.rows() + 1) * sizeof(std::int64_t);
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(csr_bytes +
                                8 * (a.cols() * c + a.rows() * c)));
}

// ------------------------------------------------ fused softmax forward

template <bool kEngine>
void BM_SoftmaxForward(benchmark::State& state) {
  set_threads(state.range(0));
  const std::size_t n = 4000, c = 9;
  const auto scores = random_matrix(n, c, 11);
  Rng rng(12);
  std::vector<std::int32_t> labels(n);
  for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(c + 1));
  la::DenseMatrix probs(n, c);
  std::vector<double> lse(n);
  for (auto _ : state) {
    double loss;
    if constexpr (kEngine) {
      loss = la::kernels::softmax_forward(scores, labels, probs, lse);
    } else {
      loss = la::kernels::reference::softmax_forward(scores, labels, probs, lse);
    }
    benchmark::DoNotOptimize(loss);
    benchmark::DoNotOptimize(probs.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * c));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * (2 * n * c + n)));
}

// ------------------------------------------- CSC materialization (E18)

template <bool kEngine>
void BM_CscBuildE18(benchmark::State& state) {
  set_threads(state.range(0));
  // Same E18-like shard as the spmm bench: the CSC transpose this build
  // produces is exactly what the cached wide-shard gather consumes.
  const auto tt = data::make_e18_like(400, 10, 27998, 9);
  const auto& a = tt.train.sparse_features();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  for (auto _ : state) {
    auto t = la::detail::build_transposed(a.rows(), a.cols(), rp, ci, va,
                                          /*parallel=*/kEngine);
    benchmark::DoNotOptimize(t.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
  // Read the CSR triple, write the CSC triple (counting pass rereads
  // col_idx but that is bookkeeping, not the bound).
  const std::size_t triple_bytes =
      a.nnz() * (sizeof(double) + sizeof(std::int64_t)) +
      (a.rows() + a.cols() + 2) * sizeof(std::int64_t);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * triple_bytes));
}

// ------------------------------------------------------ host peak probes
//
// Not Engine/Seed pairs on purpose: these two record what THIS machine
// can do, so perf_smoke.py can express kernel throughput as a fraction
// of host peak instead of an absolute number that only means something
// on one runner.

/// Size of the last-level data cache (sysconf), 32 MiB when unknown.
std::size_t last_level_cache_bytes() {
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                         _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return std::size_t{32} << 20;
}

// STREAM-style triad a[i] = b[i] + s*c[i]: sustainable bandwidth. The
// three streams together span 4× the last-level cache, so the roof is
// DRAM's, not the cache's, whatever the host.
void BM_HostPeak_Triad(benchmark::State& state) {
  const std::size_t n = (4 * last_level_cache_bytes() + 23) / 24;
  std::vector<double> a(n, 0.0), b(n, 1.5), c(n, 2.5);
  for (auto _ : state) {
    const double s = 3.0;
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  // 24 B/element: read b and c, write a (write-allocate traffic ignored,
  // matching the classic STREAM accounting).
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(24 * n));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}

// Unfused mul+add chains on the rung the engine selected at run time:
// the compute peak an engine kernel could reach under the bit-identity
// contract (the engine never emits FMA, so neither does the probe). The
// probe is compiled into each rung, so its roof is the hardware's, not
// the baseline build's.
void BM_HostPeak_Fma(benchmark::State& state) {
  constexpr std::size_t kSteps = 4096;
  const la::kernels::Rung rung = la::kernels::active_rung();
  double flops = 0.0;
  for (auto _ : state) {
    flops += rung.mul_add_probe(kSteps);
    benchmark::DoNotOptimize(flops);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flops));
}

// clang-format off
BENCHMARK_TEMPLATE(BM_GemmNN_Mnist, true)->Name("BM_GemmNN_Mnist_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmNN_Mnist, false)->Name("BM_GemmNN_Mnist_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmNN_Cifar, true)->Name("BM_GemmNN_Cifar_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmNN_Cifar, false)->Name("BM_GemmNN_Cifar_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_Mnist, true)->Name("BM_GemmTN_Mnist_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_Mnist, false)->Name("BM_GemmTN_Mnist_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_MnistShard, true)->Name("BM_GemmTN_MnistShard_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_MnistShard, false)->Name("BM_GemmTN_MnistShard_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_Cifar, true)->Name("BM_GemmTN_Cifar_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemmTN_Cifar, false)->Name("BM_GemmTN_Cifar_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemvT_Mnist, true)->Name("BM_GemvT_Mnist_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_GemvT_Mnist, false)->Name("BM_GemvT_Mnist_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmTN_E18, true)->Name("BM_SpmmTN_E18_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmTN_E18, false)->Name("BM_SpmmTN_E18_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmNN_E18, true)->Name("BM_SpmmNN_E18_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SpmmNN_E18, false)->Name("BM_SpmmNN_E18_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SoftmaxForward, true)->Name("BM_SoftmaxForward_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SoftmaxForward, false)->Name("BM_SoftmaxForward_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_CscBuildE18, true)->Name("BM_CscBuildE18_Engine")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_CscBuildE18, false)->Name("BM_CscBuildE18_Seed")->Arg(1)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HostPeak_Triad)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HostPeak_Fma)->Unit(benchmark::kMicrosecond);
// clang-format on

}  // namespace

// Custom main so every bench JSON records which dispatch rung it ran on —
// perf_smoke baselines from different ISAs should not be compared blindly.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("nadmm_isa", nadmm::la::kernels::active_isa());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
