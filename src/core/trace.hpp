// Per-iteration trace types shared by Newton-ADMM and all baselines, so
// the experiment harness can plot every solver in the same coordinates
// the paper's figures use (objective / accuracy vs. time).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nadmm::core {

/// One outer iteration ("epoch") of any distributed solver.
struct IterationStats {
  int iteration = 0;
  double objective = 0.0;        ///< F(x) on the full training set
  double test_accuracy = -1.0;   ///< fraction in [0,1]; −1 if no test set
  double sim_seconds = 0.0;      ///< cumulative simulated time (max over ranks)
  double wall_seconds = 0.0;     ///< cumulative wall-clock time
  double epoch_sim_seconds = 0.0;///< this iteration's simulated time
  double comm_sim_seconds = 0.0; ///< cumulative simulated communication time
  // ADMM-specific (0 for other solvers):
  double primal_residual = 0.0;  ///< √Σ‖x_i − z‖²
  double dual_residual = 0.0;    ///< √Σ‖ρ_i(z^{k+1} − z^k)‖²
  double rho_mean = 0.0;         ///< mean per-node penalty
};

/// Final result of a distributed solver run.
struct RunResult {
  std::string solver;
  std::vector<double> x;              ///< final consensus / global iterate
  std::vector<IterationStats> trace;
  int iterations = 0;
  double final_objective = 0.0;
  double final_test_accuracy = -1.0;
  double total_sim_seconds = 0.0;
  double total_wall_seconds = 0.0;
  double avg_epoch_sim_seconds = 0.0;

  /// Simulated idle seconds per rank: barrier skew for synchronous
  /// solvers, mailbox/staleness-gate waits for asynchronous ones. Empty
  /// for solvers that do not report it (single-node, SGD baselines).
  std::vector<double> rank_wait_seconds;
  /// staleness_hist[s] counts consensus updates applied while their
  /// worker was `s` rounds ahead of the slowest worker (asynchronous
  /// solvers only; empty otherwise). The bounded-staleness gate
  /// guarantees the top non-zero bucket is <= the --staleness bound.
  std::vector<std::uint64_t> staleness_hist;

  /// Generic run metrics (sorted, sparse: only non-zero values are
  /// stored so journal round-trips are byte-exact). Async engine
  /// solvers populate the wire/fault-tolerance counters: "retransmits"
  /// (data frames re-sent, all ranks), "gaps_detected" (out-of-order
  /// holds), "messages_dropped" (sends never delivered), "checkpoints"
  /// (coordinator snapshots), "restores" (kill-and-rejoin recoveries).
  /// New subsystems add keys without touching this struct; sweep
  /// CSV/JSON/journal carry the map generically.
  std::map<std::string, std::uint64_t> metrics;

  /// Land one epoch: append its trace row and make it the run's final
  /// state. The only way a solver writes trace rows.
  void add_epoch(const IterationStats& s) {
    trace.push_back(s);
    iterations = s.iteration;
    final_objective = s.objective;
    final_test_accuracy = s.test_accuracy;
    total_sim_seconds = s.sim_seconds;
    total_wall_seconds = s.wall_seconds;
    if (iterations > 0) avg_epoch_sim_seconds = total_sim_seconds / iterations;
  }

  /// Value of a metric, 0 when absent.
  [[nodiscard]] std::uint64_t metric(const std::string& name) const {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0 : it->second;
  }

  /// Add to a metric, keeping the map sparse (no zero entries).
  void add_metric(const std::string& name, std::uint64_t delta) {
    if (delta != 0) metrics[name] += delta;
  }

  [[nodiscard]] double max_wait_seconds() const {
    double w = 0.0;
    for (const double v : rank_wait_seconds) w = v > w ? v : w;
    return w;
  }

  /// Earliest cumulative simulated time at which the trace objective is
  /// ≤ threshold; −1 if never reached.
  [[nodiscard]] double sim_time_to_objective(double threshold) const {
    for (const auto& it : trace) {
      if (it.objective <= threshold) return it.sim_seconds;
    }
    return -1.0;
  }

  /// Earliest iteration index reaching the threshold; −1 if never.
  [[nodiscard]] int iterations_to_objective(double threshold) const {
    for (const auto& it : trace) {
      if (it.objective <= threshold) return it.iteration;
    }
    return -1;
  }
};

}  // namespace nadmm::core
