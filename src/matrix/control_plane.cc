#include "matrix/control_plane.h"

namespace bcc {

ControlPlane::ControlPlane(MatrixMode mode, uint32_t num_objects)
    : mode_(mode),
      dense_(mode == MatrixMode::kDense ? num_objects : 0),
      sparse_(mode == MatrixMode::kSparse ? num_objects : 0) {}

const ControlMatrix& ControlPlane::matrix() const {
  if (mode_ == MatrixMode::kSparse) return sparse_;
  return dense_;
}

void ControlPlane::ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle,
                                    const ShardRunner& runner, uint32_t num_shards) {
  if (mode_ == MatrixMode::kSparse) {
    sparse_.ApplyCommitBatch(commits, commit_cycle);
  } else {
    dense_.ApplyCommitBatch(commits, commit_cycle, runner, num_shards);
  }
}

ControlSnapshot ControlPlane::Snapshot() const {
  if (matrix().num_objects() == 0) return {};
  if (mode_ == MatrixMode::kSparse) return sparse_;  // O(n) shared-pointer copies
  return dense_.Snapshot();
}

}  // namespace bcc
