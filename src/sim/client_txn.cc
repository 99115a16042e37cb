#include "sim/client_txn.h"

#include <span>

namespace bcc {

ClientTxn::ClientTxn(const SimConfig& config, const BroadcastSchedule& schedule, Rng rng,
                     std::optional<CycleStampCodec> codec)
    : config_(config),
      schedule_(schedule),
      slot_bits_(config.Geometry().slot_bits),
      workload_(config, rng),
      protocol_(config.algorithm, codec) {
  // The per-read O(n) column capture exists only to validate stale cached
  // reads; without a cache it is pure overhead (and the dominant read cost
  // at n = 10^6).
  protocol_.set_capture_columns(config.enable_cache);
  if (config.enable_cache) {
    cache_ = std::make_unique<QuasiCache>(config.cache_capacity, config.cache_currency_bound);
  }
  if (config.delta_broadcast) {
    tracker_ = std::make_unique<DeltaMatrixTracker>(config.num_objects,
                                                    CycleStampCodec(config.timestamp_bits));
    // All F-family validation reads the locally reconstructed matrix from
    // here on; reads stall while the tracker is unusable.
    protocol_.set_control_override(&tracker_->matrix());
  }
  if (config.channel_broadcast) {
    receiver_ = std::make_unique<ChannelReceiver>(
        config.num_objects,
        FrameCodec(CycleStampCodec(config.timestamp_bits), config.channel_frame_bits),
        tracker_.get());
    // Data pages now come off the reassembled frames; reads whose page (or,
    // in full mode, control column) was lost this cycle stall.
    protocol_.set_value_override(&receiver_->values());
    if (!tracker_) protocol_.set_control_override(&receiver_->matrix());
  }
}

void ClientTxn::set_trace_ring(TraceRing* ring) {
  trace_ = ring;
  if (receiver_) receiver_->set_trace_ring(ring);
  if (tracker_) tracker_->set_trace_ring(ring);
}

const ClientEvent& ClientTxn::Start() {
  return Schedule(ClientStep::kSubmit, workload_.NextInterTxnDelay());
}

const ClientEvent& ClientTxn::Schedule(ClientStep step, SimTime at) {
  next_ = ClientEvent{step, at};
  return next_;
}

void ClientTxn::Trace(TraceEventType type, Cycle cycle, ObjectId ob, uint64_t value,
                      const AbortInfo& abort) {
  if (trace_ == nullptr) return;
  TraceEvent e;
  e.type = type;
  e.time = next_.time;
  e.cycle = cycle;
  e.object = ob;
  e.value = value;
  e.abort = abort;
  trace_->Record(e);
}

const ClientEvent& ClientTxn::StepLocal(const CycleSnapshot& snap) {
  switch (next_.step) {
    case ClientStep::kSubmit:
      return Submit();
    case ClientStep::kBeginRead:
      return BeginRead(snap);
    case ClientStep::kRead:
      return Read(snap);
    case ClientStep::kUplinkDone:
      return Complete(snap.cycle, /*censored=*/false);
    case ClientStep::kUplinkAbort:
      return Abort(snap.cycle, uplink_reject_);
    case ClientStep::kUplink:
      break;  // handled by Step
  }
  return next_;
}

const ClientEvent& ClientTxn::Submit() {
  submit_time_ = next_.time;
  // RNG draw order: read set; the update coin and write set only when the
  // uplink is armed; then the think time.
  read_set_ = workload_.NextReadSet();
  is_update_ = config_.client_update_fraction > 0.0 && workload_.NextIsUpdate();
  write_set_ = is_update_ ? workload_.NextWriteSet() : std::vector<ObjectId>{};
  read_idx_ = 0;
  restarts_ = 0;
  censored_ = false;
  loss_stalled_ = false;
  desync_stalled_ = false;
  protocol_.Reset();
  return Schedule(ClientStep::kBeginRead, next_.time + workload_.NextInterOpDelay());
}

const ClientEvent& ClientTxn::BeginRead(const CycleSnapshot& snap) {
  const ObjectId ob = read_set_[read_idx_];
  if (cache_) {
    if (std::optional<CacheEntry> entry = cache_->Lookup(ob, next_.time)) {
      const auto value = protocol_.ReadFromCache(*entry, ob, snap);
      if (value.ok()) {
        Trace(TraceEventType::kRead, snap.cycle, ob, value->value);
        return ReadSucceeded(snap.cycle);
      }
      // Failed cache validation: fall back to a fresh broadcast read.
    }
  }
  return Schedule(ClientStep::kRead,
                  NextReadEnd(schedule_, slot_bits_, snap.start_time, ob, next_.time));
}

const ClientEvent& ClientTxn::Read(const CycleSnapshot& snap) {
  const ObjectId ob = read_set_[read_idx_];
  const ReadStall stall = CheckReadStall(tracker_.get(), receiver_.get(), ob, snap.cycle);
  if (stall != ReadStall::kNone) {
    const bool desync = stall == ReadStall::kDeltaDesync;
    Trace(TraceEventType::kStall, snap.cycle, ob, desync ? kStallDeltaDesync : kStallChannelLoss);
    if (desync) {
      ++tally_.delta_stalls;
      desync_stalled_ = true;
    }
    if (receiver_) {
      receiver_->RecordStall();
      loss_stalled_ = true;
    }
    // Retry at the object's first slot of the next cycle, whose start (and
    // control block) comes first.
    const SimTime next_start =
        snap.start_time + static_cast<SimTime>(schedule_.num_slots()) * slot_bits_;
    return Schedule(ClientStep::kRead,
                    NextReadEnd(schedule_, slot_bits_, next_start, ob, next_start));
  }
  const auto value = protocol_.Read(snap, ob);
  Trace(TraceEventType::kValidation, snap.cycle, ob, value.ok() ? 1 : 0);
  if (!value.ok()) {
    return Abort(snap.cycle,
                 AttributeAbort(protocol_.last_abort(), loss_stalled_, desync_stalled_));
  }
  Trace(TraceEventType::kRead, snap.cycle, ob, value->value);
  if (cache_) {
    CacheEntry entry;
    entry.version = *value;
    entry.cycle = snap.cycle;
    entry.cached_time = next_.time;
    if (snap.f_matrix.num_objects() > 0) {
      std::vector<Cycle> scratch;
      const std::span<const Cycle> col = snap.f_matrix.Column(ob, scratch);
      entry.column.assign(col.begin(), col.end());
    }
    if (snap.mc_vector.num_objects() > 0) entry.mc_entry = snap.mc_vector.At(ob);
    cache_->Insert(ob, std::move(entry));
  }
  return ReadSucceeded(snap.cycle);
}

const ClientEvent& ClientTxn::ReadSucceeded(Cycle cycle) {
  ++read_idx_;
  if (read_idx_ < read_set_.size()) {
    return Schedule(ClientStep::kBeginRead, next_.time + workload_.NextInterOpDelay());
  }
  // Update transactions ship the read records and write set to the server
  // over the uplink ("a list of all the objects written ... and the list of
  // all read operations performed and the cycle numbers" — Section 3.2.1);
  // a read-only commit is local and free.
  if (is_update_) return Schedule(ClientStep::kUplink, next_.time + config_.uplink_delay);
  return Complete(cycle, /*censored=*/false);
}

const ClientEvent& ClientTxn::UplinkDecided(Cycle cycle, bool accepted, const AbortInfo& reject) {
  Trace(TraceEventType::kValidation, cycle, 0, accepted ? 1 : 0);
  // The client learns the outcome one uplink delay later.
  if (accepted) {
    ++tally_.update_commits;
    return Schedule(ClientStep::kUplinkDone, next_.time + config_.uplink_delay);
  }
  ++tally_.update_rejects;
  uplink_reject_ = reject;
  return Schedule(ClientStep::kUplinkAbort, next_.time + config_.uplink_delay);
}

const ClientEvent& ClientTxn::Abort(Cycle cycle, const AbortInfo& info) {
  tally_.abort_causes.Record(info.cause);
  Trace(TraceEventType::kAbort, cycle, info.ob_j, 0, info);
  // The attempt both stalled on loss and then aborted: the extra cycles it
  // was forced to span raised the abort odds.
  if (loss_stalled_) receiver_->RecordLossAttributedAbort();
  loss_stalled_ = false;
  desync_stalled_ = false;
  ++restarts_;
  if (restarts_ >= config_.max_restarts_per_txn) return Complete(cycle, /*censored=*/true);
  protocol_.Reset();
  read_idx_ = 0;
  return Schedule(ClientStep::kBeginRead,
                  next_.time + config_.restart_delay + workload_.NextInterOpDelay());
}

const ClientEvent& ClientTxn::Complete(Cycle cycle, bool censored) {
  censored_ = censored;
  if (config_.record_decisions) {
    tally_.decisions.push_back(TxnDecision{protocol_.reads(), restarts_, censored});
  }
  // Censoring is counted in ADDITION to the final attempt's abort cause, so
  // abort_causes[kCensored] == censored transactions.
  if (censored) tally_.abort_causes.Record(AbortCause::kCensored);
  Trace(censored ? TraceEventType::kAbort : TraceEventType::kCommit, cycle, 0,
        protocol_.reads().size(),
        censored ? AbortInfo{AbortCause::kCensored, 0, 0, 0, 0} : AbortInfo{});
  ++tally_.completed;
  tally_.censored += censored ? 1 : 0;
  tally_.restarts += restarts_;
  return Schedule(ClientStep::kSubmit, next_.time + workload_.NextInterTxnDelay());
}

}  // namespace bcc
