#include "core/epoch_recorder.hpp"

#include <array>
#include <cmath>

#include "core/admm_worker.hpp"
#include "la/vector_ops.hpp"

namespace nadmm::core {

EpochRecorder::EpochRecorder(comm::RankCtx& ctx,
                             model::SoftmaxObjective& local_loss,
                             double lambda, const data::ShardedDataset& data,
                             bool evaluate_accuracy, RunResult& result)
    : ctx_(&ctx), local_loss_(&local_loss), lambda_(lambda), result_(&result) {
  if (!evaluate_accuracy || data.test_samples == 0) return;
  test_total_ = static_cast<double>(data.test_samples);
  const data::Dataset& shard =
      data.ranks[static_cast<std::size_t>(ctx.rank())].test;
  if (shard.empty()) return;
  test_eval_ = std::make_unique<model::SoftmaxObjective>(shard, 0.0);
  test_rows_ = static_cast<double>(shard.num_samples());
}

IterationStats EpochRecorder::record(int k, std::span<const double> w,
                                     const AdmmWorker* admm) {
  ctx_->clock().pause();
  IterationStats s;
  s.iteration = k;
  s.sim_seconds = ctx_->allreduce_max(ctx_->clock().total_seconds());

  // This rank's shares, summed in one allreduce: F_i(w), test hits and,
  // for ADMM, ‖x_i − z‖², ‖ρ_i(z − z_prev)‖² and ρ_i.
  std::array<double, 5> sums{};
  sums[0] = local_loss_->value(w);
  if (test_eval_ != nullptr) sums[1] = test_eval_->accuracy(w) * test_rows_;
  if (admm != nullptr) {
    const double d = la::dist2(admm->x(), w);
    sums[2] = d * d;
    const double rho = admm->round_rho();
    const double dz = la::dist2(w, admm->z_prev());
    sums[3] = rho * rho * dz * dz;
    sums[4] = admm->rho();
  }
  ctx_->allreduce_sum(std::span<double>(sums.data(), admm != nullptr ? 5 : 2));

  s.objective = sums[0];
  if (lambda_ > 0.0) s.objective += 0.5 * lambda_ * la::nrm2_sq(w);
  if (test_total_ > 0.0) s.test_accuracy = sums[1] / test_total_;
  if (admm != nullptr) {
    s.primal_residual = std::sqrt(sums[2]);
    s.dual_residual = std::sqrt(sums[3]);
    s.rho_mean = sums[4] / ctx_->size();
  }
  s.wall_seconds = wall_.seconds();
  s.epoch_sim_seconds = s.sim_seconds - prev_sim_time_;
  s.comm_sim_seconds = ctx_->clock().comm_seconds();
  if (ctx_->is_root()) result_->add_epoch(s);
  prev_sim_time_ = s.sim_seconds;
  ctx_->clock().resume();
  return s;
}

}  // namespace nadmm::core
