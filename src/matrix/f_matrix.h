// F-Matrix: the n x n control matrix of Section 3.2.1.
//
// C(i, j) = the latest cycle in which some transaction that affects the
// latest committed value of ob_j (i.e. is in LIVE(t_j) for the last
// committed writer t_j of ob_j) and also writes ob_i, committed. Cycle 0 is
// the imaginary initial write of every object by t0.
//
// The server maintains C incrementally at each commit (Theorem 2); clients
// validate each read r(ob_j) against column j:
//     read-condition(ob_j):  for all (ob_i, cycle) in R_t : C(i, j) < cycle
// Theorem 1: a read-only transaction passes all its read conditions iff its
// serialization graph S(t_R) is acyclic — i.e. F-Matrix implements APPROX.

#ifndef BCC_MATRIX_F_MATRIX_H_
#define BCC_MATRIX_F_MATRIX_H_

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/cycle_stamp.h"
#include "history/history.h"
#include "history/object_id.h"
#include "matrix/control_info.h"
#include "matrix/control_matrix.h"

namespace bcc {

class FMatrix;

/// An immutable copy-on-write view of the F-Matrix at one broadcast cycle.
///
/// Produced by FMatrix::Snapshot(): columns untouched since the previous
/// snapshot are SHARED (shared_ptr to the same buffer), so the per-cycle
/// snapshot cost is O(n * touched_columns) instead of the O(n^2) full-matrix
/// copy. A snapshot stays valid — and bit-identical to the matrix state it
/// captured — for as long as it is held, regardless of later commits.
class FMatrixSnapshot final : public ControlMatrix {
 public:
  using Page = std::shared_ptr<const std::vector<Cycle>>;

  uint32_t num_objects() const override { return n_; }

  /// C(i, j) at snapshot time.
  Cycle At(ObjectId i, ObjectId j) const override { return (*cols_[j])[i]; }

  /// Column j as a contiguous span of n entries (C(0..n-1, j)).
  std::span<const Cycle> Column(ObjectId j) const { return {cols_[j]->data(), n_}; }
  std::span<const Cycle> Column(ObjectId j, std::vector<Cycle>&) const override {
    return Column(j);
  }

  /// Column j's shared page.
  const Page& ColumnPage(ObjectId j) const { return cols_[j]; }
  /// Installs `page` (n entries) as column j, sharing it.
  void AssignColumn(ObjectId j, Page page) { cols_[j] = std::move(page); }

  /// Deep copy into a standalone FMatrix.
  FMatrix Materialize() const;

 private:
  friend class FMatrix;

  size_t ScanReads(std::span<const ReadRecord> reads, ObjectId j, const CycleStampCodec* codec,
                   Cycle current) const override;

  uint32_t n_ = 0;
  std::vector<Page> cols_;
};

/// The read/write sets of one committed update transaction, as queued for a
/// cycle-fused FMatrix::ApplyCommitBatch.
struct CommitSets {
  std::vector<ObjectId> read_set;
  std::vector<ObjectId> write_set;
};

/// Executes `body(shard)` for every shard in [0, num_shards) — possibly in
/// parallel on a worker pool — and returns only once all shards completed.
/// The shard bodies handed to a runner are mutually independent. This is the
/// seam through which the matrix layer borrows the update engine's thread
/// pool without depending on it (TxnProcessor::RunShards has this shape).
using ShardRunner =
    std::function<void(uint32_t num_shards, const std::function<void(uint32_t)>& body)>;

/// The server-side control matrix, column-major (column j is the unit
/// broadcast right after object j).
class FMatrix final : public ControlMatrix {
 public:
  /// All entries start at cycle 0 (written by t0 before the broadcast).
  explicit FMatrix(uint32_t num_objects);

  uint32_t num_objects() const override { return n_; }

  /// C(i, j).
  Cycle At(ObjectId i, ObjectId j) const override { return data_[Index(i, j)]; }

  /// Direct entry assignment; used by from-definition builders and by wire
  /// decoding. Normal maintenance goes through ApplyCommit.
  void Set(ObjectId i, ObjectId j, Cycle c) {
    data_[Index(i, j)] = c;
    ++col_version_[j];
  }

  /// Column j as a contiguous span of n entries (C(0..n-1, j)).
  std::span<const Cycle> Column(ObjectId j) const;
  std::span<const Cycle> Column(ObjectId j, std::vector<Cycle>&) const override {
    return Column(j);
  }

  /// Applies the next committed transaction in the server's serialization
  /// order (Theorem 2's incremental rules):
  ///   - C(i, j) = commit_cycle            for i, j in WS
  ///   - C(i, j) = max_{k in RS} C(i, k)   for i not in WS, j in WS
  ///                                        (0 when RS is empty)
  ///   - unchanged                          otherwise
  void ApplyCommit(std::span<const ObjectId> read_set, std::span<const ObjectId> write_set,
                   Cycle commit_cycle);

  /// Cycle-fused maintenance: applies every commit of one broadcast cycle
  /// (they all carry the same `commit_cycle`) in one fused pass, bit-identical
  /// to calling ApplyCommit for each element of `commits` in order (the
  /// argument is in DESIGN.md §4g; commit_batch_test enforces it against the
  /// sequential oracle). Columns written by several commits of the batch are
  /// stored once, from the final writer's dependency vector; dependency
  /// vectors are computed only for commits that still influence the final
  /// matrix. Precondition (trivially true on the server path, where stamps
  /// are past commit cycles): commit_cycle >= every entry currently in the
  /// matrix.
  void ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle);

  /// Pooled-apply fold: same contract and bit-identical result as the serial
  /// ApplyCommitBatch, but the column stores (pass 3, the O(n * columns)
  /// part) are partitioned across `num_shards` shards by column id and run
  /// through `runner`. Shards touch disjoint columns, per-shard write-set
  /// masks, and only their own partition's batch_writer_ entries, so the
  /// shard bodies are data-race-free; the analysis and dependency-vector
  /// passes stay serial (they are O(batch) and O(n * needed commits) with
  /// cross-commit dependencies). Falls back to the serial path when `runner`
  /// is empty, `num_shards` <= 1, or the batch is trivial.
  void ApplyCommitBatch(std::span<const CommitSets> commits, Cycle commit_cycle,
                        const ShardRunner& runner, uint32_t num_shards);

  /// Copy-on-write snapshot of the current matrix. Columns unchanged since
  /// the previous Snapshot() call are shared with it; only changed columns
  /// are copied (O(n * touched) per cycle in steady state). Logically const:
  /// the internal page cache it refreshes is mutable and the caller must not
  /// invoke it concurrently with mutation (the engines snapshot inside the
  /// server's exclusive phase).
  FMatrixSnapshot Snapshot() const;

  /// Cumulative number of columns physically copied by Snapshot() calls —
  /// the O(n * touched) claim is asserted against this counter.
  uint64_t snapshot_columns_copied() const { return snapshot_columns_copied_; }

  friend bool operator==(const FMatrix& a, const FMatrix& b) {
    return a.n_ == b.n_ && a.data_ == b.data_;
  }

 private:
  size_t ScanReads(std::span<const ReadRecord> reads, ObjectId j, const CycleStampCodec* codec,
                   Cycle current) const override;

  size_t Index(ObjectId i, ObjectId j) const { return static_cast<size_t>(j) * n_ + i; }
  Cycle* ColumnPtr(ObjectId j) { return data_.data() + static_cast<size_t>(j) * n_; }
  const Cycle* ColumnPtr(ObjectId j) const { return data_.data() + static_cast<size_t>(j) * n_; }

  /// ApplyCommitBatch passes 1 + 2 (analysis + dependency vectors); after it
  /// returns, pass 3 only consumes batch state and writes disjoint columns.
  void AnalyzeBatch(std::span<const CommitSets> commits, Cycle commit_cycle);

  uint32_t n_;
  std::vector<Cycle> data_;
  std::vector<Cycle> dep_scratch_;    // reused per ApplyCommit
  std::vector<uint8_t> ws_scratch_;   // write-set mask, zeroed after each commit

  // Per-column modification counters driving the copy-on-write snapshot
  // cache: every column rewrite (Set, ApplyCommit, ApplyCommitBatch) bumps
  // the column's counter; Snapshot() re-copies a column iff its counter
  // moved since the cached page was taken.
  std::vector<uint64_t> col_version_;
  mutable std::vector<std::shared_ptr<std::vector<Cycle>>> snapshot_cache_;
  mutable std::vector<uint64_t> snapshot_cache_version_;
  mutable uint64_t snapshot_columns_copied_ = 0;

  // Batch scratch (ApplyCommitBatch); members so the per-cycle hot path
  // allocates only while warming up.
  struct BatchSource {
    int32_t src_commit;  // -1: pre-batch matrix column `col`; else commit idx
    ObjectId col;
  };
  std::vector<int32_t> batch_writer_;       // last in-batch writer per column
  std::vector<uint8_t> batch_union_mask_;   // union-write-set membership
  std::vector<ObjectId> batch_union_cols_;  // union write set, first-touch order
  std::vector<BatchSource> batch_sources_;  // resolved read sources, flattened
  std::vector<size_t> batch_src_begin_;     // per-commit ranges into batch_sources_
  std::vector<uint8_t> batch_need_;         // commit still influences the result
  std::vector<int32_t> batch_dep_idx_;      // commit -> dep_pool_ slot (-1: none)
  std::vector<std::vector<Cycle>> dep_pool_;
  std::vector<std::vector<uint8_t>> shard_ws_scratch_;  // pooled-apply WS masks
};

/// From-definition construction (used to validate Theorem 2): replays the
/// committed update transactions of `history` and computes every entry
/// directly from LIVE sets. `commit_cycles` maps each committed update
/// transaction to the broadcast cycle of its commit. O(n^2 * |H|); test use.
FMatrix FMatrixFromDefinition(const History& history,
                              const std::unordered_map<TxnId, Cycle>& commit_cycles,
                              uint32_t num_objects);

}  // namespace bcc

#endif  // BCC_MATRIX_F_MATRIX_H_
