#include "model/least_squares.hpp"

#include <algorithm>

#include "la/flops.hpp"
#include "la/vector_ops.hpp"
#include "support/check.hpp"

namespace nadmm::model {

LeastSquaresObjective::LeastSquaresObjective(const data::Dataset& shard,
                                             la::DenseMatrix targets,
                                             double l2_lambda)
    : shard_(&shard),
      lambda_(l2_lambda),
      p_(shard.num_features()),
      m_(targets.cols()),
      dim_(p_ * targets.cols()),
      targets_(std::move(targets)),
      panel_(shard.num_samples(), m_),
      xm_(p_, m_),
      gm_(p_, m_) {
  NADMM_CHECK(l2_lambda >= 0.0, "l2 lambda must be nonnegative");
  NADMM_CHECK(targets_.rows() == shard.num_samples(),
              "least squares: target row count mismatch");
  NADMM_CHECK(m_ >= 1, "least squares: need at least one output column");
}

LeastSquaresObjective LeastSquaresObjective::one_hot(const data::Dataset& shard,
                                                     double l2_lambda) {
  la::DenseMatrix targets(shard.num_samples(),
                          static_cast<std::size_t>(shard.num_classes()));
  const auto labels = shard.labels();
  for (std::size_t i = 0; i < shard.num_samples(); ++i) {
    targets.at(i, static_cast<std::size_t>(labels[i])) = 1.0;
  }
  return {shard, std::move(targets), l2_lambda};
}

double LeastSquaresObjective::forward(std::span<const double> x) {
  NADMM_CHECK(x.size() == dim_, "least squares: parameter size mismatch");
  std::copy(x.begin(), x.end(), xm_.data().begin());
  shard_->scores(xm_, panel_);
  la::axpy(-1.0, targets_.data(), panel_.data());
  return 0.5 * la::nrm2_sq(panel_.data());
}

double LeastSquaresObjective::value(std::span<const double> x) {
  double f = forward(x);
  if (lambda_ > 0.0) f += 0.5 * lambda_ * la::nrm2_sq(x);
  return f;
}

void LeastSquaresObjective::gradient(std::span<const double> x,
                                     std::span<double> g) {
  NADMM_CHECK(g.size() == dim_, "least squares: gradient size mismatch");
  (void)forward(x);
  shard_->accumulate_gradient(1.0, panel_, 0.0, gm_);
  std::copy(gm_.data().begin(), gm_.data().end(), g.begin());
  if (lambda_ > 0.0) la::axpy(lambda_, x, g);
}

double LeastSquaresObjective::value_and_gradient(std::span<const double> x,
                                                 std::span<double> g) {
  NADMM_CHECK(g.size() == dim_, "least squares: gradient size mismatch");
  const double resid = forward(x);
  shard_->accumulate_gradient(1.0, panel_, 0.0, gm_);
  std::copy(gm_.data().begin(), gm_.data().end(), g.begin());
  double f = resid;
  if (lambda_ > 0.0) {
    f += 0.5 * lambda_ * la::nrm2_sq(x);
    la::axpy(lambda_, x, g);
  }
  return f;
}

void LeastSquaresObjective::hessian_vec(std::span<const double> x,
                                        std::span<const double> v,
                                        std::span<double> hv) {
  NADMM_CHECK(v.size() == dim_ && hv.size() == dim_,
              "least squares: hessian_vec size mismatch");
  (void)x;  // constant Hessian: (AᵀA + λI) ⊗ I_m
  // V is staged in gm_ (same p × m shape), which accumulate_gradient
  // overwrites below.
  std::copy(v.begin(), v.end(), gm_.data().begin());
  shard_->scores(gm_, panel_);  // panel_ = A·V
  shard_->accumulate_gradient(1.0, panel_, 0.0, gm_);
  std::copy(gm_.data().begin(), gm_.data().end(), hv.begin());
  if (lambda_ > 0.0) la::axpy(lambda_, v, hv);
}

}  // namespace nadmm::model
