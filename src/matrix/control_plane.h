// The server's live control matrix: one matrix in one representation, chosen
// at construction. Commits fold into it once per broadcast cycle and every
// cycle snapshots it; the owner (ServerTxnManager) never asks which
// representation it holds, except to compact a sparse matrix or to report
// the sparse-only footprint metrics.

#ifndef BCC_MATRIX_CONTROL_PLANE_H_
#define BCC_MATRIX_CONTROL_PLANE_H_

#include <span>

#include "matrix/control_matrix.h"
#include "matrix/f_matrix.h"
#include "matrix/sparse_f_matrix.h"

namespace bcc {

class ControlPlane {
 public:
  /// `num_objects` == 0 keeps no matrix (algorithms that broadcast none).
  ControlPlane(MatrixMode mode, uint32_t num_objects);

  /// The live matrix.
  const ControlMatrix& matrix() const;

  /// Folds one broadcast cycle's commits, bit-identical to applying them one
  /// by one (Theorem 2). A dense matrix partitions its column stores across
  /// `num_shards` shards through `runner` when one is given.
  void ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle,
                        const ShardRunner& runner, uint32_t num_shards);

  /// The matrix as broadcast this cycle, sharing every column unchanged
  /// since the previous Snapshot; empty when there is no matrix.
  ControlSnapshot Snapshot() const;

  /// The dense matrix; size 0 in sparse mode.
  const FMatrix& dense() const { return dense_; }
  /// The sparse matrix; size 0 in dense mode.
  const SparseFMatrix& sparse() const { return sparse_; }
  SparseFMatrix& sparse() { return sparse_; }

 private:
  MatrixMode mode_;
  FMatrix dense_;
  SparseFMatrix sparse_;
};

}  // namespace bcc

#endif  // BCC_MATRIX_CONTROL_PLANE_H_
