// One control-matrix interface for every consumer of the F-Matrix.
//
// The read test for ob_j consults only column j (Section 3.2.1, Theorem 1),
// so the interface is column-granular: a consumer dispatches once per read
// (ReadConditionScan) or once per column (Column), never once per entry. The
// dense FMatrix, its copy-on-write FMatrixSnapshot and the compressed-sparse
// SparseFMatrix all implement it, value-identically; read validation, frame
// packing, delta diffing, tracker reconstruction, digests and cross-checks
// read this interface and never ask which representation they hold.
//
// A broadcast cycle's matrix travels as a ControlSnapshot: a shared handle to
// an immutable dense or sparse snapshot. Copies share, so holding the
// previous cycle (the delta diff base) or adopting the on-air matrix (a
// client refresh) costs O(1).

#ifndef BCC_MATRIX_CONTROL_MATRIX_H_
#define BCC_MATRIX_CONTROL_MATRIX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/cycle_stamp.h"
#include "history/object_id.h"
#include "matrix/control_info.h"

namespace bcc {

/// Control-matrix representation (sim_cli --matrix=dense|sparse).
enum class MatrixMode {
  kDense,   ///< the paper's n x n FMatrix — the bit-exactness oracle
  kSparse,  ///< compressed-sparse-column SparseFMatrix, value-identical to
            ///< dense; O(nnz) maintenance/diffing, sparse control accounting
};

/// `raw` as a client decodes it: round-tripped through the TS-bit wire codec
/// anchored at `current`, or unchanged when `codec` is null.
inline Cycle WireStamp(Cycle raw, const CycleStampCodec* codec, Cycle current) {
  return codec == nullptr ? raw : codec->Decode(codec->Encode(raw), current);
}

/// Read access to an n x n control matrix, C(i, j).
class ControlMatrix {
 public:
  virtual ~ControlMatrix() = default;

  virtual uint32_t num_objects() const = 0;

  /// C(i, j). One dispatch per entry: digests, oracles and abort
  /// attribution only — hot loops go through Column or ReadConditionScan.
  virtual Cycle At(ObjectId i, ObjectId j) const = 0;

  /// Column j as n entries (C(0..n-1, j)). A dense matrix returns its own
  /// storage and leaves `scratch` alone; a sparse one materializes into
  /// `scratch`. Valid until the matrix or `scratch` changes.
  virtual std::span<const Cycle> Column(ObjectId j, std::vector<Cycle>& scratch) const = 0;

  /// The F-Matrix read condition for reading ob_j after `reads`: the index
  /// of the first record with C(object, j) >= cycle, or kReadConditionPass.
  /// With `codec`, each stamp is first taken through WireStamp at `current`.
  size_t ReadConditionScan(std::span<const ReadRecord> reads, ObjectId j,
                           const CycleStampCodec* codec = nullptr, Cycle current = 0) const {
    return ScanReads(reads, j, codec, current);
  }

  /// True when every read passes the read condition for ob_j.
  bool ReadCondition(std::span<const ReadRecord> reads, ObjectId j) const {
    return ScanReads(reads, j, nullptr, 0) == kReadConditionPass;
  }

 protected:
  ControlMatrix() = default;
  ControlMatrix(const ControlMatrix&) = default;
  ControlMatrix& operator=(const ControlMatrix&) = default;

  virtual size_t ScanReads(std::span<const ReadRecord> reads, ObjectId j,
                           const CycleStampCodec* codec, Cycle current) const = 0;
};

/// Entry-wise equality across representations (column by column).
bool operator==(const ControlMatrix& a, const ControlMatrix& b);

class FMatrixSnapshot;
class SparseFMatrix;

/// One broadcast cycle's control matrix: a shared handle to an immutable
/// dense or sparse snapshot. Default-constructed it is empty
/// (num_objects() == 0), which is what a cycle broadcasts when its algorithm
/// needs no matrix.
///
/// Two snapshots that share column j's payload hold equal column j — but
/// only while both are held: FMatrix::Snapshot rewrites a page in place once
/// no snapshot references it any more.
class ControlSnapshot final : public ControlMatrix {
 public:
  ControlSnapshot() = default;
  ControlSnapshot(FMatrixSnapshot dense);   // NOLINT(google-explicit-constructor)
  ControlSnapshot(SparseFMatrix sparse);    // NOLINT(google-explicit-constructor)

  /// The all-zero n x n matrix (every entry written by t0), built in O(n).
  static ControlSnapshot Zero(uint32_t num_objects);

  uint32_t num_objects() const override { return n_; }
  Cycle At(ObjectId i, ObjectId j) const override;
  std::span<const Cycle> Column(ObjectId j, std::vector<Cycle>& scratch) const override;

 private:
  friend class DeltaCodec;

  size_t ScanReads(std::span<const ReadRecord> reads, ObjectId j, const CycleStampCodec* codec,
                   Cycle current) const override;
  /// Identity of column j's shared payload.
  const void* ColumnPayload(ObjectId j) const;

  uint32_t n_ = 0;
  // Exactly one is set when n_ > 0.
  std::shared_ptr<const FMatrixSnapshot> dense_;
  std::shared_ptr<const SparseFMatrix> sparse_;
};

}  // namespace bcc

#endif  // BCC_MATRIX_CONTROL_MATRIX_H_
