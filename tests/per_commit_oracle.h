// The per-commit maintenance oracle for the cycle-fused control matrix: a
// server that applies every commit's Theorem 2 update to its F-Matrix the
// moment it commits (FMatrix::ApplyCommit), where ServerTxnManager queues a
// cycle's commits and folds them in one ApplyCommitBatch. Store, MC vector
// and commit count come from a manager that keeps no control matrix.

#ifndef BCC_TESTS_PER_COMMIT_ORACLE_H_
#define BCC_TESTS_PER_COMMIT_ORACLE_H_

#include "matrix/f_matrix.h"
#include "server/txn_manager.h"

namespace bcc {

class PerCommitOracle {
 public:
  explicit PerCommitOracle(uint32_t num_objects)
      : manager_(num_objects, {.maintain_f_matrix = false}), f_matrix_(num_objects) {}

  void ExecuteAndCommit(const ServerTxn& txn, Cycle cycle) {
    manager_.ExecuteAndCommit(txn, cycle);
    f_matrix_.ApplyCommit(txn.read_set, txn.write_set, cycle);
  }

  const FMatrix& f_matrix() const { return f_matrix_; }
  const McVector& mc_vector() const { return manager_.mc_vector(); }
  const VersionedStore& store() const { return manager_.store(); }
  size_t num_committed() const { return manager_.num_committed(); }

 private:
  ServerTxnManager manager_;
  FMatrix f_matrix_;
};

}  // namespace bcc

#endif  // BCC_TESTS_PER_COMMIT_ORACLE_H_
