// Compressed sparse row (CSR) matrix.
//
// The E18 dataset the paper evaluates is single-cell RNA count data:
// extremely high-dimensional (p ≈ 28k) and very sparse. The dense path
// cannot hold such shards, so the softmax objective also runs over CSR
// features with SpMM / SpMM^T kernels mirroring the dense GEMMs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "la/dense_matrix.hpp"

namespace nadmm::la {

/// One nonzero entry, used when building a CSR matrix from triplets.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Column-major (CSC) view of a CsrMatrix: entries of column j live at
/// [col_ptr[j], col_ptr[j+1]) in ascending row order. Built lazily by
/// CsrMatrix::transposed() for the wide-output Aᵀ·B gather kernel.
struct CsrTransposed {
  std::vector<std::int64_t> col_ptr;  // cols + 1
  std::vector<std::int32_t> row_idx;  // nnz sample indices
  std::vector<double> values;         // nnz values
};

class CsrView;

namespace detail {

/// Build the CSC view of a CSR matrix given its raw arrays. With
/// `parallel` set (and OpenMP compiled in) this is the two-pass parallel
/// build: per-thread column histograms over nnz-balanced row blocks →
/// one exclusive scan turning the histograms into per-thread per-column
/// write cursors → parallel scatter. Thread blocks cover ascending row
/// ranges and the scan orders cursors by thread id, so each column's
/// entries land in ascending row order — the output is byte-identical
/// to the sequential build for every thread count. Exposed so tests and
/// benches can pit the two builds against each other directly.
CsrTransposed build_transposed(std::size_t rows, std::size_t cols,
                               std::span<const std::int64_t> row_ptr,
                               std::span<const std::int64_t> col_idx,
                               std::span<const double> values, bool parallel);

}  // namespace detail

/// CSR matrix of doubles. The sparsity structure (row_ptr / col_idx) is
/// immutable after construction; stored values may be updated in place
/// through values_mut(), which invalidates this matrix's cached CSC view.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from triplets (duplicates are summed). Triplets may be in any
  /// order. Throws if any index is out of range.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> triplets);

  /// Build directly from CSR arrays. `row_ptr` has rows+1 entries.
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::int64_t> row_ptr, std::vector<std::int64_t> col_idx,
            std::vector<double> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// Fraction of entries that are stored (nnz / (rows*cols)).
  [[nodiscard]] double density() const;

  [[nodiscard]] std::span<const std::int64_t> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const std::int64_t> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }

  /// Mutable view of the stored values (the column structure stays
  /// fixed). Calling this invalidates THIS matrix's cached transposed
  /// (CSC) view — it is rebuilt from the current values on the next
  /// transposed() call, never served stale. Copies taken before the
  /// mutation keep the cache they shared (consistent with their own
  /// deep-copied values). Not thread-safe against concurrent kernels on
  /// the same matrix — but neither is mutating values_ while a kernel
  /// reads them.
  [[nodiscard]] std::span<double> values_mut();

  /// Extract a contiguous row range [begin, end) as a new CSR matrix with
  /// the same column dimension. Used by the data partitioner.
  [[nodiscard]] CsrMatrix row_slice(std::size_t begin, std::size_t end) const;

  /// Non-owning view of the contiguous row range [begin, end) — O(1)
  /// metadata sharing this matrix's arrays (and its cached transposed
  /// view). The matrix must outlive the view.
  [[nodiscard]] CsrView view(std::size_t begin, std::size_t end) const;

  /// Densify (tests and small problems only).
  [[nodiscard]] DenseMatrix to_dense() const;

  /// Approximate resident bytes: the CSR arrays plus the transposed
  /// (CSC) view that the wide-output Aᵀ·B kernel builds lazily. The view
  /// is counted up front so byte budgets (DatasetProvider's LRU) hold at
  /// peak, not just before the first gradient step.
  [[nodiscard]] std::size_t approx_bytes() const {
    return row_ptr_.size() * sizeof(std::int64_t) +
           col_idx_.size() * sizeof(std::int64_t) +
           values_.size() * sizeof(double) +
           (cols_ + 1) * sizeof(std::int64_t) +
           values_.size() * (sizeof(std::int32_t) + sizeof(double));
  }

  /// Lazy transposed (CSC) view, built deterministically on first use
  /// (detail::build_transposed — parallel above a nnz threshold, output
  /// bytes independent of thread count) and shared between copies of
  /// this matrix. values_mut() invalidates it, so the view never goes
  /// stale. Thread-safe: concurrent first calls — e.g. sweep scenarios
  /// sharing a cached dataset — build exactly once. The ADMM
  /// gradient/Hessian path hits this every CG iteration on wide shards,
  /// so the build cost amortizes to zero.
  [[nodiscard]] const CsrTransposed& transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_{0};
  std::vector<std::int64_t> col_idx_;
  std::vector<double> values_;

  // Shared (not deep-copied) lazy transpose state; see transposed().
  mutable std::shared_ptr<std::once_flag> transpose_once_ =
      std::make_shared<std::once_flag>();
  mutable std::shared_ptr<CsrTransposed> transpose_ =
      std::make_shared<CsrTransposed>();
};

/// Non-owning, read-only row-range view of a CsrMatrix. A whole matrix
/// converts implicitly, so the product kernels below accept either; a
/// rank's CSR shard is O(1) metadata instead of copied index/value
/// arrays. `row_ptr()` keeps the parent's *absolute* offsets (entries of
/// view row r live at [row_ptr()[r], row_ptr()[r+1]) in the shared
/// col_idx()/values() arrays) — exactly the indexing every CSR kernel
/// already uses, so row_ptr()[0] is generally nonzero here. The parent
/// matrix must outlive the view.
class CsrView {
 public:
  CsrView() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): deliberate adapter.
  CsrView(const CsrMatrix& m) : parent_(&m), row_begin_(0), rows_(m.rows()) {}
  CsrView(const CsrMatrix& m, std::size_t begin, std::size_t end);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return parent_ ? parent_->cols() : 0; }
  [[nodiscard]] std::size_t nnz() const {
    const auto rp = row_ptr();
    return rp.empty() ? 0
                      : static_cast<std::size_t>(rp[rows_] - rp[0]);
  }

  /// Absolute row offsets (rows()+1 entries) into the shared arrays.
  [[nodiscard]] std::span<const std::int64_t> row_ptr() const {
    return parent_ == nullptr
               ? std::span<const std::int64_t>{}
               : parent_->row_ptr().subspan(row_begin_, rows_ + 1);
  }
  [[nodiscard]] std::span<const std::int64_t> col_idx() const {
    return parent_ ? parent_->col_idx() : std::span<const std::int64_t>{};
  }
  [[nodiscard]] std::span<const double> values() const {
    return parent_ ? parent_->values() : std::span<const double>{};
  }

  /// First parent row covered by this view (offset into the parent's
  /// cached transposed view, used by the wide-output gather kernel).
  [[nodiscard]] std::size_t row_begin() const { return row_begin_; }
  [[nodiscard]] bool covers_parent() const {
    return parent_ != nullptr && row_begin_ == 0 && rows_ == parent_->rows();
  }
  [[nodiscard]] const CsrMatrix* parent() const { return parent_; }

 private:
  const CsrMatrix* parent_ = nullptr;
  std::size_t row_begin_ = 0;
  std::size_t rows_ = 0;
};

/// C = alpha * A * B + beta * C.  A: m×k CSR, B: k×n dense, C: m×n dense.
void spmm_nn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);

/// C = alpha * A^T * B + beta * C.  A: k×m CSR, B: k×n dense, C: m×n dense.
void spmm_tn(double alpha, const CsrView& a, const DenseMatrix& b,
             double beta, DenseMatrix& c);

}  // namespace nadmm::la
