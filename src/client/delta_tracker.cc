#include "client/delta_tracker.h"

namespace bcc {

DeltaMatrixTracker::DeltaMatrixTracker(uint32_t num_objects, CycleStampCodec codec)
    : codec_(codec), matrix_(ControlSnapshot::Zero(num_objects)) {}

void DeltaMatrixTracker::Observe(const DeltaControl& ctl, const ControlSnapshot& on_air_matrix) {
  if (ctl.full_refresh) {
    // A refresh OLDER than the sync point would regress entries below their
    // current values — and lower stamps can only ever accept more reads, so
    // applying it could fabricate false acceptance. Ignore it; the current
    // reconstruction is strictly fresher.
    if (synced_ && ctl.cycle < last_sync_) return;
    if (!synced_) EmitSyncEvent(TraceEventType::kResync, ctl.cycle);
    matrix_ = on_air_matrix;  // O(1): the on-air snapshot is shared
    synced_ = true;
    last_sync_ = ctl.cycle;
    return;
  }
  // A duplicated or stale delta (at or before the sync point) is already
  // incorporated in the reconstruction: re-applying could regress entries
  // (deltas are not idempotent across cycles), so ignore it and stay synced.
  if (synced_ && ctl.cycle <= last_sync_) return;
  // A delta is only meaningful on top of exactly its base matrix: the
  // F-Matrix is not monotone, so skipping any block (or applying out of
  // order) could silently yield a matrix that accepts reads the true one
  // rejects. Anything but a contiguous continuation desyncs.
  if (!synced_ || ctl.base_cycle != last_sync_ || ctl.cycle != last_sync_ + 1) {
    if (synced_) EmitSyncEvent(TraceEventType::kDesync, ctl.cycle);
    synced_ = false;
    return;
  }
  matrix_ = DeltaCodec::Apply(matrix_, ctl.entries, codec_, ctl.cycle);
  last_sync_ = ctl.cycle;
}

}  // namespace bcc
