#include "matrix/control_matrix.h"

#include <algorithm>

#include "matrix/f_matrix.h"
#include "matrix/sparse_f_matrix.h"

namespace bcc {

bool operator==(const ControlMatrix& a, const ControlMatrix& b) {
  if (a.num_objects() != b.num_objects()) return false;
  std::vector<Cycle> scratch_a, scratch_b;
  for (ObjectId j = 0; j < a.num_objects(); ++j) {
    const std::span<const Cycle> ca = a.Column(j, scratch_a);
    const std::span<const Cycle> cb = b.Column(j, scratch_b);
    if (!std::equal(ca.begin(), ca.end(), cb.begin())) return false;
  }
  return true;
}

ControlSnapshot::ControlSnapshot(FMatrixSnapshot dense)
    : n_(dense.num_objects()),
      dense_(std::make_shared<const FMatrixSnapshot>(std::move(dense))) {}

ControlSnapshot::ControlSnapshot(SparseFMatrix sparse)
    : n_(sparse.num_objects()),
      sparse_(std::make_shared<const SparseFMatrix>(std::move(sparse))) {}

ControlSnapshot ControlSnapshot::Zero(uint32_t num_objects) {
  return SparseFMatrix(num_objects);  // every column shares one empty payload
}

Cycle ControlSnapshot::At(ObjectId i, ObjectId j) const {
  return dense_ != nullptr ? dense_->At(i, j) : sparse_->At(i, j);
}

std::span<const Cycle> ControlSnapshot::Column(ObjectId j, std::vector<Cycle>& scratch) const {
  return dense_ != nullptr ? dense_->Column(j) : sparse_->Column(j, scratch);
}

size_t ControlSnapshot::ScanReads(std::span<const ReadRecord> reads, ObjectId j,
                                  const CycleStampCodec* codec, Cycle current) const {
  return dense_ != nullptr ? dense_->ReadConditionScan(reads, j, codec, current)
                           : sparse_->ReadConditionScan(reads, j, codec, current);
}

const void* ControlSnapshot::ColumnPayload(ObjectId j) const {
  return dense_ != nullptr ? static_cast<const void*>(dense_->ColumnPage(j).get())
                           : static_cast<const void*>(sparse_->ColumnData(j).get());
}

}  // namespace bcc
