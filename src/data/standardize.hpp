// Feature scaling.
//
// Dense data: per-feature z-scoring (mean 0, std 1), fit on the training
// split only. Sparse data: per-feature max-abs scaling, which preserves
// sparsity (zero stays zero) — the standard choice for count features.
#pragma once

#include <vector>

#include "data/dataset.hpp"

namespace nadmm::data {

class Standardizer {
 public:
  /// Learn scaling parameters from `train`.
  void fit(const Dataset& train);

  /// Return a scaled copy. The dataset must have the same feature count
  /// and storage kind as the one `fit` saw.
  [[nodiscard]] Dataset transform(const Dataset& ds) const;

  [[nodiscard]] bool fitted() const { return fitted_; }
  [[nodiscard]] const std::vector<double>& scale() const { return scale_; }

 private:
  bool fitted_ = false;
  bool sparse_mode_ = false;
  std::vector<double> shift_;  // dense: column mean; sparse: 0
  std::vector<double> scale_;  // dense: 1/std; sparse: 1/max-abs
};

}  // namespace nadmm::data
