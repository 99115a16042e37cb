#include "client/receiver.h"

#include "matrix/wire.h"

namespace bcc {

ChannelReceiver::ChannelReceiver(uint32_t num_objects, FrameCodec codec,
                                 DeltaMatrixTracker* tracker)
    : n_(num_objects),
      codec_(codec),
      tracker_(tracker),
      streams_(2 * static_cast<size_t>(num_objects) + 3),
      matrix_(num_objects),
      col_cycle_(num_objects, 0),
      values_(num_objects),
      data_cycle_(num_objects, 0) {}

StreamReassembler* ChannelReceiver::Stream(FrameKind kind, uint32_t stream_id) {
  const size_t shared = 2 * static_cast<size_t>(n_);  // index, delta, refresh
  switch (kind) {
    case FrameKind::kData:
      return stream_id < n_ ? &streams_[stream_id] : nullptr;
    case FrameKind::kControlColumn:
      return stream_id < n_ ? &streams_[n_ + stream_id] : nullptr;
    case FrameKind::kIndex:
      return stream_id == 0 ? &streams_[shared] : nullptr;
    case FrameKind::kControlDelta:
      return stream_id == 0 ? &streams_[shared + 1] : nullptr;
    case FrameKind::kControlRefresh:
      return stream_id == 0 ? &streams_[shared + 2] : nullptr;
  }
  return nullptr;
}

const StreamReassembler* ChannelReceiver::Complete(FrameKind kind, uint32_t stream_id) {
  const StreamReassembler* s = Stream(kind, stream_id);
  return s != nullptr && s->complete() ? s : nullptr;
}

void ChannelReceiver::IngestCycle(Cycle cycle, const Transmission& tx, SimTime now) {
  stats_.frames_sent += tx.sent;
  stats_.frames_dropped += tx.dropped;
  stats_.frames_corrupted += tx.corrupted;
  stats_.frames_truncated += tx.truncated;
  stats_.frames_delivered += tx.frames.size();
  if (trace_ != nullptr) {
    TraceEvent e;
    e.type = TraceEventType::kFrameRx;
    e.time = now;
    e.cycle = cycle;
    e.value = tx.frames.size();
    trace_->Record(e);
  }

  const uint32_t residue = codec_.stamp_codec().Encode(cycle);
  for (StreamReassembler& s : streams_) s.Clear();
  for (const Delivery& d : tx.frames) {
    FrameHeader header;
    if (!codec_.DecodeHeader(d.frame.bytes, &header).ok() || header.cycle_residue != residue) {
      ++stats_.frames_rejected;
      continue;
    }
    // A damaged frame that still passes CRC and framing would be delivered as
    // valid — counted so the sweep can prove it (essentially) never happens.
    if (d.corrupted) ++stats_.frames_delivered_corrupt;
    // Frames of streams this receiver never reads are dropped here.
    if (StreamReassembler* s = Stream(header.kind, header.stream_id)) {
      s->Add(header, d.frame.bytes, codec_.header_bits());
    }
  }

  // Data pages travel the same way in both control modes.
  for (uint32_t j = 0; j < n_; ++j) {
    if (const StreamReassembler* s = Complete(FrameKind::kData, j)) {
      s->Take(&payload_);
      const StatusOr<ObjectVersion> version = DecodeObjectPayload(payload_);
      if (version.ok()) {
        values_[j] = *version;
        data_cycle_[j] = cycle;
      }
    }
    if (data_cycle_[j] != cycle) ++stats_.data_losses;
  }

  if (tracker_ == nullptr) {
    // Full mode: each column stream lands independently. Stamps are decoded
    // anchored at the receive cycle; validation re-encodes them, so the
    // windowed decode is congruence-preserving.
    bool all_ok = true;
    for (uint32_t j = 0; j < n_; ++j) {
      if (const StreamReassembler* s = Complete(FrameKind::kControlColumn, j)) {
        s->Take(&payload_);
        const StatusOr<std::vector<Cycle>> stamps =
            UnpackStamps(payload_.bytes, n_, codec_.stamp_codec(), cycle);
        if (stamps.ok()) {
          for (uint32_t i = 0; i < n_; ++i) matrix_.Set(i, j, (*stamps)[i]);
          col_cycle_[j] = cycle;
        }
      }
      if (col_cycle_[j] != cycle) {
        ++stats_.control_losses;
        all_ok = false;
      }
    }
    if (all_ok != prev_control_ok_ && trace_ != nullptr) {
      TraceEvent e;
      e.type = all_ok ? TraceEventType::kResync : TraceEventType::kDesync;
      e.time = now;
      e.cycle = cycle;
      trace_->Record(e);
    }
    if (all_ok && !prev_control_ok_) ++stats_.resyncs;
    prev_control_ok_ = all_ok;
    return;
  }
  tracker_->set_trace_now(now);

  // Snapshot+delta mode: the index segment is load-bearing — it names the
  // control mode for the cycle. Losing it (or the control block itself)
  // means the cycle's control is simply never observed; the tracker then
  // desyncs on the next delta's base-cycle gap and waits for a refresh.
  const bool was_synced = tracker_->synced();
  bool observed = false;
  if (const StreamReassembler* s = Complete(FrameKind::kIndex, 0)) {
    s->Take(&payload_);
    const StatusOr<CycleIndex> index = DecodeIndexPayload(payload_);
    if (index.ok() && index->num_objects == n_ &&
        index->cycle_low == static_cast<uint32_t>(cycle & 0xFFFFFFFFull) &&
        index->control_mode != CycleIndex::kControlColumns) {
      const bool refresh = index->control_mode == CycleIndex::kControlRefresh;
      const FrameKind kind = refresh ? FrameKind::kControlRefresh : FrameKind::kControlDelta;
      if (const StreamReassembler* c = Complete(kind, 0)) {
        c->Take(&payload_);
        observed = ObserveControl(cycle, refresh, payload_);
      }
    }
  }
  if (!observed) ++stats_.control_losses;
  if (was_synced && !tracker_->synced()) ++stats_.tracker_desyncs;
  if (!was_synced && tracker_->synced() && ever_synced_) ++stats_.resyncs;
  if (tracker_->synced()) ever_synced_ = true;
}

bool ChannelReceiver::ObserveControl(Cycle cycle, bool refresh, const Payload& payload) {
  DeltaControl ctl;
  ctl.cycle = cycle;
  ctl.full_refresh = refresh;
  if (refresh) {
    const StatusOr<FMatrix> on_air =
        UnpackMatrix(payload.bytes, n_, codec_.stamp_codec(), cycle);
    if (!on_air.ok()) return false;
    tracker_->Observe(ctl, on_air->Snapshot());
    return true;
  }
  ctl.base_cycle = cycle - 1;
  StatusOr<std::vector<DeltaCodec::Entry>> entries =
      DeltaCodec::Unpack(payload.bytes, n_, codec_.stamp_codec());
  if (!entries.ok()) return false;
  ctl.entries = *std::move(entries);
  tracker_->Observe(ctl, {});  // no matrix rides with a delta block
  return true;
}

ReadStall CheckReadStall(const DeltaMatrixTracker* tracker, const ChannelReceiver* receiver,
                         ObjectId ob, Cycle cycle) {
  // A desynced tracker (or one stale after a lost control block, or past the
  // TS decode window) cannot validate a read in this cycle; the next cycle's
  // block may be the resynchronizing full refresh.
  if (tracker != nullptr && tracker->Unusable(cycle)) return ReadStall::kDeltaDesync;
  if (receiver == nullptr) return ReadStall::kNone;
  const bool control_missing = tracker == nullptr && !receiver->ControlUsable(ob, cycle);
  return control_missing || !receiver->DataUsable(ob, cycle) ? ReadStall::kChannelLoss
                                                             : ReadStall::kNone;
}

AbortInfo AttributeAbort(AbortInfo cause, bool loss_stalled, bool desync_stalled) {
  if (loss_stalled) {
    cause.cause = AbortCause::kChannelLoss;
  } else if (desync_stalled) {
    cause.cause = AbortCause::kDesyncStall;
  }
  return cause;
}

}  // namespace bcc
