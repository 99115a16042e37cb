// The server's update-transaction manager (Section 3.2.1, server
// functions 2 and 3).
//
// Update transactions — whether originated at the server or submitted by
// clients over the uplink — are executed and committed serially, which is
// the paper's "simple case where the entries are updated as per a
// serialization order". Each commit atomically:
//   - installs the transaction's writes into the two-version store,
//   - applies the Theorem 2 incremental update to the control matrix
//     (queued, and folded once per broadcast cycle),
//   - advances the reduced MC vector, and
//   - (optionally) appends the operations to a recorded history so tests
//     can replay the run through the APPROX/legality oracles.

#ifndef BCC_SERVER_TXN_MANAGER_H_
#define BCC_SERVER_TXN_MANAGER_H_

#include <unordered_map>
#include <vector>

#include "history/history.h"
#include "history/object_id.h"
#include "matrix/control_plane.h"
#include "matrix/mc_vector.h"
#include "server/store.h"

namespace bcc {

/// An update transaction to run at the server: reads first, then writes
/// (Appendix A form). Sets must be duplicate-free.
struct ServerTxn {
  TxnId id = kNoTxn;
  std::vector<ObjectId> read_set;
  std::vector<ObjectId> write_set;
};

/// Options controlling which structures the manager maintains. Simulations
/// disable what their algorithm does not need.
struct TxnManagerOptions {
  /// Maintain the control matrix, in `matrix_mode`'s representation.
  bool maintain_f_matrix = true;
  bool maintain_mc_vector = true;
  bool record_history = false;
  /// Representation of the control matrix: dense, or compressed sparse
  /// columns (value-identical, O(nnz) per commit).
  MatrixMode matrix_mode = MatrixMode::kDense;
};

/// Serial update-transaction executor.
class ServerTxnManager {
 public:
  ServerTxnManager(uint32_t num_objects, TxnManagerOptions options = {});

  uint32_t num_objects() const { return store_.num_objects(); }

  /// Executes `txn` (reads then writes against committed state) and commits
  /// it during broadcast cycle `cycle`. Cycles must be non-decreasing across
  /// calls. Returns the values read (for logging/validation).
  std::vector<ObjectVersion> ExecuteAndCommit(const ServerTxn& txn, Cycle cycle);

  const VersionedStore& store() const { return store_; }

  /// The control matrix after every commit so far. Logically const: the
  /// control-matrix work of a cycle's commits is queued and folded in one
  /// batch (ApplyCommitBatch, bit-identical to per-commit maintenance;
  /// DESIGN.md §4g), and observing the matrix folds the pending batch
  /// first, which is why the accessors const_cast internally. Callers must
  /// not invoke them concurrently with ExecuteAndCommit (the engines only
  /// read the matrix in the server's exclusive phase).
  const ControlMatrix& control_matrix() const { return Folded().matrix(); }

  /// The dense matrix; size 0 in sparse mode or without a matrix.
  const FMatrix& f_matrix() const { return Folded().dense(); }
  /// The sparse matrix, for its footprint metrics; size 0 in dense mode.
  const SparseFMatrix& sparse_matrix() const { return Folded().sparse(); }

  const McVector& mc_vector() const { return mc_vector_; }

  /// The control matrix as broadcast this cycle: a snapshot sharing every
  /// column unchanged since the previous one (O(n * touched columns) dense,
  /// O(n) pointer copies sparse). Empty without a matrix.
  ControlSnapshot SnapshotControl() const { return Folded().Snapshot(); }

  /// Wraparound-horizon compaction of the sparse matrix (sparse mode with
  /// use_wire_codec only; see SparseFMatrix::CompactModulo for the
  /// conservative-safety argument). Returns the number of entries dropped.
  uint64_t CompactSparseMatrix(const CycleStampCodec& codec, Cycle current) {
    FlushCommitBatch();
    return control_.sparse().CompactModulo(codec, current);
  }

  /// Pooled-apply mode: route the cycle-batch F-Matrix fold through `runner`
  /// with `num_shards` column partitions (FMatrix::ApplyCommitBatch's
  /// sharded overload; bit-identical to the serial fold). The engines pass
  /// the TxnProcessor's pool here so fold cost itself parallelizes. An empty
  /// runner or num_shards <= 1 restores the serial fold.
  void SetParallelFold(ShardRunner runner, uint32_t num_shards) {
    fold_runner_ = std::move(runner);
    fold_shards_ = num_shards;
  }

  /// Commit cycle of every committed transaction (for oracles).
  const std::unordered_map<TxnId, Cycle>& commit_cycles() const { return commit_cycles_; }

  /// Recorded update history (empty unless options.record_history).
  const History& recorded_history() const { return history_; }

  size_t num_committed() const { return num_committed_; }

 private:
  /// Applies the queued cycle batch to the control matrix (no-op when
  /// empty).
  void FlushCommitBatch();
  const ControlPlane& Folded() const {
    const_cast<ServerTxnManager*>(this)->FlushCommitBatch();
    return control_;
  }

  TxnManagerOptions options_;
  VersionedStore store_;
  ControlPlane control_;
  McVector mc_vector_;
  History history_;
  std::unordered_map<TxnId, Cycle> commit_cycles_;
  size_t num_committed_ = 0;
  Cycle last_cycle_ = 0;

  // Pending cycle batch: the first `batch_size_` elements of `batch_` hold the read/write sets of this
  // cycle's not-yet-applied commits; slots are reused across cycles so the
  // steady-state path does not allocate.
  std::vector<CommitSets> batch_;
  size_t batch_size_ = 0;
  Cycle batch_cycle_ = 0;

  // Pooled-apply fold (SetParallelFold); empty = serial fold.
  ShardRunner fold_runner_;
  uint32_t fold_shards_ = 0;
};

}  // namespace bcc

#endif  // BCC_SERVER_TXN_MANAGER_H_
