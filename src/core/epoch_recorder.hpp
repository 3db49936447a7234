// Per-epoch diagnostics shared by every synchronous distributed solver
// (Newton-ADMM, GIANT, DANE/AIDE, DiSCO, sync-SGD).
//
// Runs on a paused simulated clock so that trace timings measure only the
// algorithm's own compute + communication.
#pragma once

#include <memory>
#include <span>

#include "comm/cluster.hpp"
#include "core/trace.hpp"
#include "data/partition.hpp"
#include "model/softmax.hpp"
#include "support/timer.hpp"

namespace nadmm::core {

class AdmmWorker;

/// Per-rank diagnostics state for one solver run.
class EpochRecorder {
 public:
  /// `local_loss` is the very object the solver steps with, so F_i(w)
  /// fills the softmax forward cache the next step would (a second
  /// instance would change the flop ledger, and so simulated time).
  /// Accuracy is recorded when `evaluate_accuracy` and `data` has a test
  /// split; a rank with an empty test shard joins with zero hits.
  EpochRecorder(comm::RankCtx& ctx, model::SoftmaxObjective& local_loss,
                double lambda, const data::ShardedDataset& data,
                bool evaluate_accuracy, RunResult& result);

  /// Record epoch k (1-based) at global iterate `w`. Collective: every
  /// rank gets the same row back; rank 0 also lands it in the result.
  /// ADMM solvers pass their worker for the residuals and mean ρ.
  IterationStats record(int k, std::span<const double> w,
                        const AdmmWorker* admm = nullptr);

 private:
  comm::RankCtx* ctx_;
  model::SoftmaxObjective* local_loss_;
  double lambda_;
  double test_total_ = 0.0;  ///< global test rows; 0: no accuracy
  std::unique_ptr<model::SoftmaxObjective> test_eval_;  ///< null: no rows
  double test_rows_ = 0.0;
  RunResult* result_;
  WallTimer wall_;
  double prev_sim_time_ = 0.0;
};

}  // namespace nadmm::core
