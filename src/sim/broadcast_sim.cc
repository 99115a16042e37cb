#include "sim/broadcast_sim.h"

#include <cassert>
#include <limits>

#include "cc/approx.h"
#include "cc/conflict_serializability.h"
#include "common/format.h"

namespace bcc {

BroadcastSim::Client::Client(const SimConfig& config, Rng rng,
                             std::optional<CycleStampCodec> codec)
    : workload(config, rng), protocol(config.algorithm, codec) {
  // The per-read O(n) column capture exists only to validate stale cached
  // reads; without a cache it is pure overhead (and the dominant read cost
  // at n = 10^6).
  protocol.set_capture_columns(config.enable_cache);
  if (config.enable_cache) {
    cache = std::make_unique<QuasiCache>(config.cache_capacity, config.cache_currency_bound);
  }
  if (config.delta_broadcast) {
    // In sparse direct mode the tracker reconstructs a SparseFMatrix
    // (refreshes adopt the snapshot's shared columns); channel-mode trackers
    // stay dense — they rebuild from on-air bytes, which are byte-identical
    // regardless of the server's representation.
    const bool sparse_tracker =
        config.matrix_mode == MatrixMode::kSparse && !config.channel_broadcast;
    tracker = std::make_unique<DeltaMatrixTracker>(
        config.num_objects, CycleStampCodec(config.timestamp_bits), sparse_tracker);
    // All F-family validation reads the locally reconstructed matrix from
    // here on; the sim stalls reads while the tracker is unusable.
    if (sparse_tracker) {
      protocol.set_sparse_control_override(&tracker->sparse_matrix());
    } else {
      protocol.set_control_override(&tracker->matrix());
    }
  }
  if (config.channel_broadcast) {
    receiver = std::make_unique<ChannelReceiver>(
        config.num_objects,
        FrameCodec(CycleStampCodec(config.timestamp_bits), config.channel_frame_bits),
        tracker.get());
    // Data pages now come off the reassembled frames; the sim stalls reads
    // whose page (or, in full mode, control column) was lost this cycle.
    protocol.set_value_override(&receiver->values());
    if (!tracker) protocol.set_control_override(&receiver->matrix());
  }
}

BroadcastSim::BroadcastSim(SimConfig config)
    : config_(std::move(config)),
      geometry_(config_.Geometry()),
      metrics_(config_.warmup_txns) {}

BroadcastSim::~BroadcastSim() = default;

StatusOr<SimSummary> BroadcastSim::Run() {
  if (ran_) return Status::FailedPrecondition("BroadcastSim::Run may only be called once");
  ran_ = true;
  BCC_RETURN_IF_ERROR(config_.Validate());

  Rng root(config_.seed);
  BCC_ASSIGN_OR_RETURN(core_,
                       ServerCycle::Create(config_, root, config_.client_update_fraction > 0.0));

  std::optional<CycleStampCodec> codec;
  if (config_.use_wire_codec) codec.emplace(config_.timestamp_bits);

  clients_.clear();
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    clients_.push_back(std::make_unique<Client>(config_, root.Split(), codec));
  }
  if (config_.record_decisions) decisions_.resize(config_.num_clients);

  if (tracer_ != nullptr) {
    // One single-writer ring per simulated actor; registered before any
    // event fires, never resized afterwards.
    server_trace_ = tracer_->AddTrack("server");
    for (size_t c = 0; c < clients_.size(); ++c) {
      Client& client = *clients_[c];
      client.trace = tracer_->AddTrack(StrFormat("client%zu", c));
      if (client.receiver) client.receiver->set_trace_ring(client.trace);
      if (client.tracker) client.tracker->set_trace_ring(client.trace);
    }
  }

  if (config_.channel_broadcast) {
    frame_codec_.emplace(CycleStampCodec(config_.timestamp_bits), config_.channel_frame_bits);
    // The channel draws from its own salted streams (never from root), so
    // workload RNG draws — and hence the rate-0 decision logs — are
    // untouched by enabling the channel.
    channel_ =
        std::make_unique<LossyChannel>(config_.ChannelFaults(), config_.seed,
                                       config_.num_clients);
  }

  // Prime the loop: cycle 1 begins at t = 0; the first server transaction
  // and each client's first submission follow their think times.
  core_->BeginCycle(1, 0);
  TraceCycleStart();
  if (config_.delta_broadcast) AttachAndObserveDelta();
  if (channel_) TransmitCycle();
  queue_.ScheduleAt(core_->server().CycleEndTime(), [this] { StartNextCycle(); });
  queue_.ScheduleAt(core_->next_commit_time(), [this] { ServerCommitEvent(); });
  for (size_t c = 0; c < clients_.size(); ++c) {
    queue_.ScheduleAfter(clients_[c]->workload.NextInterTxnDelay(),
                         [this, c] { SubmitClientTxn(c); });
  }

  while (!done_ && queue_.Step()) {
  }
  // Commits staged during the final (partial) cycle still belong to it.
  core_->Fold(core_->server().snapshot().cycle);

  for (const auto& client : clients_) {
    if (client->receiver) metrics_.AccumulateChannel(client->receiver->stats());
  }
  SimSummary summary = metrics_.Summarize(core_->server().snapshot().cycle, queue_.now(),
                                          TotalCacheHits(), TotalCacheMisses());
  if (config_.matrix_mode == MatrixMode::kSparse) {
    summary.matrix_nnz = core_->manager().sparse_f_matrix().nnz();
  }
  return summary;
}

uint64_t BroadcastSim::TotalCacheHits() const {
  uint64_t total = 0;
  for (const auto& c : clients_) {
    if (c->cache) total += c->cache->hits();
  }
  return total;
}

uint64_t BroadcastSim::TotalCacheMisses() const {
  uint64_t total = 0;
  for (const auto& c : clients_) {
    if (c->cache) total += c->cache->misses();
  }
  return total;
}

void BroadcastSim::EndOfCycleMatrixStep(Cycle ending) {
  if (config_.matrix_mode != MatrixMode::kSparse) return;
  if (config_.sparse_compaction_period > 0 && ending % config_.sparse_compaction_period == 0) {
    metrics_.RecordSparseCompaction(
        core_->manager().CompactSparseMatrix(CycleStampCodec(config_.timestamp_bits), ending));
  }
  // O(1): the sparse matrix keeps nnz / nonempty-column counters.
  metrics_.RecordMatrixCycle(
      SparseMatrixControlBits(core_->manager().sparse_f_matrix(), config_.timestamp_bits));
}

void BroadcastSim::StartNextCycle() {
  if (done_) return;
  // Pooled mode: the ending cycle's server transactions execute now, so the
  // snapshot taken at BeginCycle sees them — the same cycle-granular
  // visibility clients get under the sequential path.
  const Cycle ending = core_->server().snapshot().cycle;
  core_->Fold(ending);
  EndOfCycleMatrixStep(ending);
  const Cycle next = ending + 1;
  if (config_.stop_after_cycles > 0 && next > config_.stop_after_cycles) {
    done_ = true;
    return;
  }
  core_->BeginCycle(next, core_->server().CycleEndTime());
  TraceCycleStart();
  if (config_.delta_broadcast) AttachAndObserveDelta();
  if (channel_) TransmitCycle();
  queue_.ScheduleAt(core_->server().CycleEndTime(), [this] { StartNextCycle(); });
}

void BroadcastSim::TraceCycleStart() {
  if (server_trace_ == nullptr) return;
  const CycleSnapshot& snap = core_->server().snapshot();
  const SimTime length = core_->server().CycleLengthBits();
  TraceEvent cycle;
  cycle.type = TraceEventType::kCycleStart;
  cycle.time = core_->server().CycleEndTime() - length;
  cycle.duration = length;
  cycle.cycle = snap.cycle;
  server_trace_->Record(cycle);
  TraceEvent tx;
  tx.type = TraceEventType::kBroadcastTx;
  tx.time = cycle.time;
  tx.cycle = snap.cycle;
  tx.value = config_.num_objects;
  server_trace_->Record(tx);
}

void BroadcastSim::AttachAndObserveDelta() {
  core_->manager().DrainTouchedColumns(touched_scratch_);
  core_->server().AttachDeltaControl(touched_scratch_);
  const CycleSnapshot& snap = core_->server().snapshot();
  const DeltaControl& ctl = *snap.delta;
  metrics_.RecordDeltaCycle(ctl.full_refresh, ctl.control_bits, ctl.full_bits);
  // In channel mode the trackers are fed from each client's reassembled
  // frames (TransmitCycle), not from the in-process control block.
  if (config_.channel_broadcast) return;
  for (auto& client : clients_) {
    if (snap.sparse_f_matrix != nullptr) {
      client->tracker->Observe(ctl, *snap.sparse_f_matrix);
    } else {
      client->tracker->Observe(ctl, snap.f_matrix);
    }
    // Test knob: model a client that missed this cycle's control block.
    if (config_.delta_desync_at_cycle != 0 && snap.cycle == config_.delta_desync_at_cycle) {
      client->tracker->ForceDesync();
    }
  }
}

void BroadcastSim::TransmitCycle() {
  const CycleSnapshot& snap = core_->server().snapshot();
  EncodeCycleFramesInto(snap, *frame_codec_, config_.object_size_bits, frame_scratch_);
  for (size_t c = 0; c < clients_.size(); ++c) {
    Client& client = *clients_[c];
    const Transmission tx = channel_->Transmit(static_cast<uint32_t>(c), frame_scratch_);
    client.receiver->IngestCycle(snap.cycle, tx, queue_.now());
    // The desync knob still works in channel mode (on top of real loss).
    if (client.tracker && config_.delta_desync_at_cycle != 0 &&
        snap.cycle == config_.delta_desync_at_cycle) {
      client.tracker->ForceDesync();
    }
  }
}

void BroadcastSim::ServerCommitEvent() {
  if (done_) return;
  const ServerTxn txn = core_->CommitNext(core_->server().snapshot().cycle);
  metrics_.RecordServerCommit();
  if (server_trace_ != nullptr) {
    TraceEvent e;
    e.type = TraceEventType::kCommit;
    e.time = queue_.now();
    e.cycle = core_->server().snapshot().cycle;
    e.value = txn.id;
    server_trace_->Record(e);
  }
  queue_.ScheduleAt(core_->next_commit_time(), [this] { ServerCommitEvent(); });
}

void BroadcastSim::SubmitClientTxn(size_t c) {
  if (done_) return;
  Client& client = *clients_[c];
  client.submit_time = queue_.now();
  client.read_set = client.workload.NextReadSet();
  client.is_update = core_->uplink() && client.workload.NextIsUpdate();
  client.write_set =
      client.is_update ? client.workload.NextWriteSet() : std::vector<ObjectId>{};
  client.read_idx = 0;
  client.restarts = 0;
  client.stalled_this_attempt = false;
  client.delta_stalled_this_attempt = false;
  client.protocol.Reset();
  queue_.ScheduleAfter(client.workload.NextInterOpDelay(), [this, c] { BeginReadOp(c); });
}

void BroadcastSim::BeginReadOp(size_t c) {
  if (done_) return;
  Client& client = *clients_[c];
  const ObjectId ob = client.read_set[client.read_idx];

  if (client.cache) {
    if (std::optional<CacheEntry> entry = client.cache->Lookup(ob, queue_.now())) {
      auto value = client.protocol.ReadFromCache(*entry, ob, core_->server().snapshot());
      if (value.ok()) {
        if (client.trace != nullptr) {
          TraceEvent e;
          e.type = TraceEventType::kRead;
          e.time = queue_.now();
          e.cycle = core_->server().snapshot().cycle;
          e.object = ob;
          e.value = value->value;
          client.trace->Record(e);
        }
        OnReadSuccess(c);
        return;
      }
      // Failed cache validation: fall back to a fresh broadcast read.
    }
  }

  if (const std::optional<SimTime> slot = core_->server().NextSlotEnd(ob, queue_.now())) {
    queue_.ScheduleAt(*slot, [this, c] { PerformBroadcastRead(c); });
  } else {
    // No appearance of `ob` remains this cycle; catch its first slot in the
    // next cycle (whose start event is already scheduled and fires strictly
    // earlier than any slot completion).
    const uint32_t first_slot = core_->server().schedule().SlotsOf(ob).front();
    queue_.ScheduleAt(
        core_->server().CycleEndTime() + static_cast<SimTime>(first_slot + 1) * geometry_.slot_bits,
        [this, c] { PerformBroadcastRead(c); });
  }
}

void BroadcastSim::PerformBroadcastRead(size_t c) {
  if (done_) return;
  Client& client = *clients_[c];
  const ObjectId ob = client.read_set[client.read_idx];
  const CycleSnapshot& snap = core_->server().snapshot();
  bool stall = false;
  bool delta_stall = false;
  if (client.tracker && client.tracker->Unusable(snap.cycle)) {
    // The reconstructed matrix cannot validate a read in this cycle (tracker
    // desynced, stale after a lost control block, or past the TS decode
    // window): stall until the next cycle, whose block may be the
    // resynchronizing full refresh.
    metrics_.RecordDeltaStall();
    stall = true;
    delta_stall = true;
  }
  if (!stall && client.receiver) {
    // Missed-cycle rule: validate only against control info and data
    // received in THIS cycle. A stale column could carry lower stamps than
    // the current matrix and falsely accept a read, so loss means stalling,
    // never substituting older control info.
    const bool control_missing =
        client.tracker == nullptr && !client.receiver->ControlUsable(ob, snap.cycle);
    stall = control_missing || !client.receiver->DataUsable(ob, snap.cycle);
  }
  if (stall) {
    if (client.trace != nullptr) {
      TraceEvent e;
      e.type = TraceEventType::kStall;
      e.time = queue_.now();
      e.cycle = snap.cycle;
      e.object = ob;
      e.value = delta_stall ? kStallDeltaDesync : kStallChannelLoss;
      client.trace->Record(e);
    }
    // The cycle-start event was inserted earlier, so it fires before this
    // retry at the object's first slot of the next cycle.
    if (client.receiver) {
      client.receiver->RecordStall();
      client.stalled_this_attempt = true;
    }
    if (delta_stall) client.delta_stalled_this_attempt = true;
    const uint32_t first_slot = core_->server().schedule().SlotsOf(ob).front();
    queue_.ScheduleAt(
        core_->server().CycleEndTime() + static_cast<SimTime>(first_slot + 1) * geometry_.slot_bits,
        [this, c] { PerformBroadcastRead(c); });
    return;
  }
  auto value = client.protocol.Read(snap, ob);
  if (client.trace != nullptr) {
    TraceEvent e;
    e.type = TraceEventType::kValidation;
    e.time = queue_.now();
    e.cycle = snap.cycle;
    e.object = ob;
    e.value = value.ok() ? 1 : 0;
    client.trace->Record(e);
  }
  if (!value.ok()) {
    OnReadAbort(c);
    return;
  }
  if (client.trace != nullptr) {
    TraceEvent e;
    e.type = TraceEventType::kRead;
    e.time = queue_.now();
    e.cycle = snap.cycle;
    e.object = ob;
    e.value = value->value;
    client.trace->Record(e);
  }
  if (client.cache) {
    CacheEntry entry;
    entry.version = *value;
    entry.cycle = snap.cycle;
    entry.cached_time = queue_.now();
    if (snap.f_matrix.num_objects() > 0) {
      const std::span<const Cycle> col = snap.f_matrix.Column(ob);
      entry.column.assign(col.begin(), col.end());
    }
    if (snap.mc_vector.num_objects() > 0) entry.mc_entry = snap.mc_vector.At(ob);
    client.cache->Insert(ob, std::move(entry));
  }
  OnReadSuccess(c);
}

void BroadcastSim::OnReadSuccess(size_t c) {
  Client& client = *clients_[c];
  ++client.read_idx;
  if (client.read_idx == client.read_set.size()) {
    if (client.is_update) {
      // Ship the read records and write set to the server over the uplink
      // ("a list of all the objects written ... and the list of all read
      // operations performed and the cycle numbers" — Section 3.2.1).
      queue_.ScheduleAfter(config_.uplink_delay, [this, c] { SendUplinkCommit(c); });
    } else {
      CompleteTxn(c, /*censored=*/false);  // read-only commit is local, free
    }
    return;
  }
  queue_.ScheduleAfter(client.workload.NextInterOpDelay(), [this, c] { BeginReadOp(c); });
}

void BroadcastSim::OnReadAbort(size_t c) {
  Client& client = *clients_[c];
  // Attribution precedence: an attempt that stalled on channel loss before
  // failing validation spanned extra cycles precisely because of the loss,
  // so the loss outranks the raw protocol cause; a delta-desync stall
  // likewise. Otherwise the cause is the exact check that fired.
  AbortInfo info = client.protocol.last_abort();
  if (client.receiver && client.stalled_this_attempt) {
    info.cause = AbortCause::kChannelLoss;
  } else if (client.delta_stalled_this_attempt) {
    info.cause = AbortCause::kDesyncStall;
  }
  OnAbort(c, info);
}

void BroadcastSim::OnAbort(size_t c, AbortInfo info) {
  Client& client = *clients_[c];
  metrics_.RecordAbort(info.cause);
  if (client.trace != nullptr) {
    TraceEvent e;
    e.type = TraceEventType::kAbort;
    e.time = queue_.now();
    e.cycle = core_->server().snapshot().cycle;
    e.object = info.ob_j;
    e.abort = info;
    client.trace->Record(e);
  }
  if (client.receiver && client.stalled_this_attempt) {
    // The attempt both stalled on loss and then failed validation: the extra
    // cycles it was forced to span raise the abort odds, so attribute it.
    client.receiver->RecordLossAttributedAbort();
  }
  client.stalled_this_attempt = false;
  client.delta_stalled_this_attempt = false;
  ++client.restarts;
  if (client.restarts >= config_.max_restarts_per_txn) {
    CompleteTxn(c, /*censored=*/true);
    return;
  }
  client.protocol.Reset();
  client.read_idx = 0;
  queue_.ScheduleAfter(config_.restart_delay + client.workload.NextInterOpDelay(),
                       [this, c] { BeginReadOp(c); });
}

void BroadcastSim::SendUplinkCommit(size_t c) {
  if (done_) return;
  Client& client = *clients_[c];
  ClientUpdateRequest request;
  request.id = next_client_update_id_++;
  request.reads = client.protocol.reads();
  request.writes = client.write_set;
  const bool accepted = core_->ValidateUplink(request, core_->server().snapshot().cycle);
  if (client.trace != nullptr) {
    TraceEvent e;
    e.type = TraceEventType::kValidation;
    e.time = queue_.now();
    e.cycle = core_->server().snapshot().cycle;
    e.value = accepted ? 1 : 0;
    client.trace->Record(e);
  }
  // The client learns the outcome one uplink delay later.
  if (accepted) {
    metrics_.RecordServerCommit();  // it is also a committed update txn
    metrics_.RecordClientUpdateCommit();
    queue_.ScheduleAfter(config_.uplink_delay, [this, c] { CompleteTxn(c, false); });
  } else {
    metrics_.RecordClientUpdateReject();
    // Capture the validator's structured cause now — by the time the abort
    // fires, another client's rejection may have overwritten last_reject().
    const AbortInfo reject = core_->last_reject();
    queue_.ScheduleAfter(config_.uplink_delay, [this, c, reject] { OnAbort(c, reject); });
  }
}

void BroadcastSim::CompleteTxn(size_t c, bool censored) {
  Client& client = *clients_[c];
  // Committed client UPDATE transactions already live in the server's
  // recorded history (via the validator); only read-only transactions need
  // a client-side oracle log.
  if (config_.record_history && !censored && !client.is_update) {
    oracle_client_txns_.push_back(ClientTxnLog{
        kClientTxnIdBase + static_cast<TxnId>(oracle_client_txns_.size()),
        client.protocol.reads(), client.protocol.values()});
  }
  if (config_.record_decisions) {
    decisions_[c].push_back(TxnDecision{client.protocol.reads(), client.restarts, censored});
  }
  // Censoring is counted in ADDITION to the final attempt's abort cause
  // (recorded by OnAbort), so breakdown[kCensored] == censored_txns.
  if (censored) metrics_.RecordAbort(AbortCause::kCensored);
  if (client.trace != nullptr) {
    TraceEvent e;
    e.type = censored ? TraceEventType::kAbort : TraceEventType::kCommit;
    e.time = queue_.now();
    e.cycle = core_->server().snapshot().cycle;
    e.value = client.protocol.reads().size();
    if (censored) e.abort.cause = AbortCause::kCensored;
    client.trace->Record(e);
  }
  metrics_.RecordClientTxn(client.submit_time, queue_.now(), client.restarts, censored);
  ++completed_txns_;
  if (completed_txns_ >= config_.num_client_txns) {
    done_ = true;
    return;
  }
  client.protocol.Reset();
  queue_.ScheduleAfter(client.workload.NextInterTxnDelay(), [this, c] { SubmitClientTxn(c); });
}

StatusOr<History> BroadcastSim::BuildOracleHistory() const {
  if (!config_.record_history) {
    return Status::FailedPrecondition("run with config.record_history = true");
  }

  // Slice the server's recorded history into per-transaction blocks, in
  // commit order (execution is serial, so blocks are contiguous).
  struct Block {
    std::vector<Operation> ops;
    Cycle cycle;
  };
  std::vector<Block> server_blocks;
  {
    Block current{{}, 0};
    for (const Operation& op : core_->manager().recorded_history().ops()) {
      current.ops.push_back(op);
      if (op.type == OpType::kCommit || op.type == OpType::kAbort) {
        current.cycle = core_->manager().commit_cycles().at(op.txn);
        server_blocks.push_back(std::move(current));
        current = Block{{}, 0};
      }
    }
    if (!current.ops.empty()) {
      return Status::Internal("recorded server history ends mid-transaction");
    }
  }

  Cycle max_cycle = 0;
  for (const Block& b : server_blocks) max_cycle = std::max(max_cycle, b.cycle);
  for (const ClientTxnLog& ct : oracle_client_txns_) {
    for (const ReadRecord& r : ct.reads) max_cycle = std::max(max_cycle, r.cycle);
  }

  History oracle;
  size_t next_server_block = 0;
  // With caching, a transaction's read cycles need not be monotone (a cached
  // read is placed at the cycle it was cached in); the commit marker goes
  // after the transaction's final appended read.
  std::unordered_map<TxnId, size_t> appended_reads;
  for (Cycle c = 1; c <= max_cycle; ++c) {
    // Client reads that observed the beginning of cycle c (they precede all
    // transactions that commit during c).
    for (const ClientTxnLog& ct : oracle_client_txns_) {
      for (size_t k = 0; k < ct.reads.size(); ++k) {
        if (ct.reads[k].cycle != c) continue;
        oracle.AppendRead(ct.id, ct.reads[k].object);
        if (++appended_reads[ct.id] == ct.reads.size()) oracle.AppendCommit(ct.id);
      }
    }
    // Server transactions committed during cycle c, in commit order.
    while (next_server_block < server_blocks.size() &&
           server_blocks[next_server_block].cycle == c) {
      for (const Operation& op : server_blocks[next_server_block].ops) oracle.Append(op);
      ++next_server_block;
    }
  }
  if (next_server_block != server_blocks.size()) {
    return Status::Internal("server commit cycles out of order");
  }
  return oracle;
}

Status BroadcastSim::VerifyOracle() const {
  BCC_ASSIGN_OR_RETURN(const History oracle, BuildOracleHistory());

  // 1. Reads-from agreement: the writer whose version each client read
  // observed must be the writer the oracle history assigns to that read.
  // Client read sets are duplicate-free, so (txn, object) identifies a read
  // even when caching permutes the merge order.
  for (size_t i = 0; i < oracle.ops().size(); ++i) {
    const Operation& op = oracle.ops()[i];
    // Client update transactions (ids >= 2 * base) live in server blocks
    // and are validated server-side; only read-only logs are cross-checked.
    if (op.type != OpType::kRead || op.txn < kClientTxnIdBase ||
        op.txn >= 2 * kClientTxnIdBase) {
      continue;
    }
    const ClientTxnLog& ct = oracle_client_txns_.at(op.txn - kClientTxnIdBase);
    size_t k = ct.reads.size();
    for (size_t r = 0; r < ct.reads.size(); ++r) {
      if (ct.reads[r].object == op.object) {
        k = r;
        break;
      }
    }
    if (k == ct.reads.size()) {
      return Status::Internal(StrFormat("txn %u has no logged read of ob%u", op.txn, op.object));
    }
    const TxnId observed_writer = ct.values.at(k).writer;
    const TxnId oracle_writer = oracle.ReaderSource(i);
    if (observed_writer != oracle_writer) {
      return Status::Internal(StrFormat(
          "txn %u read %zu of ob%u: observed writer t%u but oracle says t%u", op.txn, k,
          op.object, observed_writer, oracle_writer));
    }
  }

  // 2. Mutual consistency: the whole run must pass APPROX.
  const ApproxResult approx = CheckApprox(oracle);
  if (!approx.accepted) {
    return Status::Internal("oracle history rejected by APPROX: " + approx.reason);
  }

  // 3. Datacycle promises full (conflict) serializability.
  if (config_.algorithm == Algorithm::kDatacycle && !IsConflictSerializable(oracle)) {
    return Status::Internal("Datacycle oracle history is not conflict serializable");
  }
  return Status::OK();
}

Status BroadcastSim::VerifyDeltaTrackers() const {
  if (!config_.delta_broadcast) {
    return Status::FailedPrecondition("run with config.delta_broadcast = true");
  }
  if (!ran_) return Status::FailedPrecondition("VerifyDeltaTrackers requires a completed Run");
  const CycleStampCodec codec(config_.timestamp_bits);
  const CycleSnapshot& final_snap = core_->server().snapshot();
  const FMatrixSnapshot& truth = final_snap.f_matrix;
  const Cycle cycle = final_snap.cycle;
  // Sparse mode: truth and (direct-mode) reconstructions are SparseFMatrix.
  const auto truth_at = [&](ObjectId i, ObjectId j) {
    return final_snap.sparse_f_matrix != nullptr ? final_snap.sparse_f_matrix->At(i, j)
                                                 : truth.At(i, j);
  };
  for (size_t c = 0; c < clients_.size(); ++c) {
    const DeltaMatrixTracker& tracker = *clients_[c]->tracker;
    if (!tracker.synced()) continue;  // desync knob, or real loss in channel mode
    if (tracker.last_sync() != cycle) {
      // Channel mode: a lost final control block legitimately leaves the
      // tracker synced to an earlier cycle; its matrix reflects that cycle,
      // not the current truth, so the congruence check does not apply.
      if (config_.channel_broadcast) continue;
      return Status::Internal(StrFormat(
          "client %zu tracker synced at cycle %llu but the broadcast is at %llu", c,
          static_cast<unsigned long long>(tracker.last_sync()),
          static_cast<unsigned long long>(cycle)));
    }
    for (ObjectId j = 0; j < config_.num_objects; ++j) {
      for (ObjectId i = 0; i < config_.num_objects; ++i) {
        const Cycle mine =
            tracker.sparse() ? tracker.sparse_matrix().At(i, j) : tracker.matrix().At(i, j);
        if (codec.Encode(mine) != codec.Encode(truth_at(i, j))) {
          return Status::Internal(StrFormat(
              "client %zu reconstruction diverges at C(%u, %u): %llu !~ %llu (mod 2^%u)", c, i,
              j, static_cast<unsigned long long>(mine),
              static_cast<unsigned long long>(truth_at(i, j)), config_.timestamp_bits));
        }
      }
    }
  }
  return Status::OK();
}

StatusOr<SimSummary> RunSimulation(const SimConfig& config) {
  return BroadcastSim(config).Run();
}

namespace {

/// Value-equality of two managers' control matrices across representations
/// (dense vs dense, sparse vs sparse, or sparse vs the dense oracle).
bool ServerMatricesEqual(const ServerTxnManager& a, const ServerTxnManager& b) {
  const bool a_sparse = a.sparse_f_matrix().num_objects() > 0;
  const bool b_sparse = b.sparse_f_matrix().num_objects() > 0;
  if (a_sparse && b_sparse) return a.sparse_f_matrix() == b.sparse_f_matrix();
  if (a_sparse) return a.sparse_f_matrix() == b.f_matrix();
  if (b_sparse) return b.sparse_f_matrix() == a.f_matrix();
  return a.f_matrix() == b.f_matrix();
}

/// Field-by-field equality of every non-channel summary field (doubles are
/// compared bit-exactly: identical event sequences must produce identical
/// arithmetic).
Status CompareSummaries(const SimSummary& a, const SimSummary& b, const char* label_a,
                        const char* label_b) {
  const auto check = [&](const char* field, auto x, auto y) -> Status {
    if (x == y) return Status::OK();
    return Status::Internal(StrFormat("summary field %s diverges: %s=%s %s=%s", field, label_a,
                                      StrFormat("%g", static_cast<double>(x)).c_str(), label_b,
                                      StrFormat("%g", static_cast<double>(y)).c_str()));
  };
  BCC_RETURN_IF_ERROR(check("mean_response_time", a.mean_response_time, b.mean_response_time));
  BCC_RETURN_IF_ERROR(
      check("response_ci_half_width", a.response_ci_half_width, b.response_ci_half_width));
  BCC_RETURN_IF_ERROR(check("response_p50", a.response_p50, b.response_p50));
  BCC_RETURN_IF_ERROR(check("response_p95", a.response_p95, b.response_p95));
  BCC_RETURN_IF_ERROR(check("restart_ratio", a.restart_ratio, b.restart_ratio));
  BCC_RETURN_IF_ERROR(check("measured_txns", a.measured_txns, b.measured_txns));
  BCC_RETURN_IF_ERROR(check("total_txns", a.total_txns, b.total_txns));
  BCC_RETURN_IF_ERROR(check("total_restarts", a.total_restarts, b.total_restarts));
  BCC_RETURN_IF_ERROR(check("cycles_elapsed", a.cycles_elapsed, b.cycles_elapsed));
  BCC_RETURN_IF_ERROR(check("server_commits", a.server_commits, b.server_commits));
  BCC_RETURN_IF_ERROR(check("sim_end_time", a.sim_end_time, b.sim_end_time));
  BCC_RETURN_IF_ERROR(check("censored_txns", a.censored_txns, b.censored_txns));
  BCC_RETURN_IF_ERROR(check("delta_cycles", a.delta_cycles, b.delta_cycles));
  BCC_RETURN_IF_ERROR(
      check("delta_refresh_cycles", a.delta_refresh_cycles, b.delta_refresh_cycles));
  BCC_RETURN_IF_ERROR(check("delta_control_bits", a.delta_control_bits, b.delta_control_bits));
  BCC_RETURN_IF_ERROR(check("full_control_bits", a.full_control_bits, b.full_control_bits));
  BCC_RETURN_IF_ERROR(check("delta_stall_waits", a.delta_stall_waits, b.delta_stall_waits));
  if (!(a.abort_causes == b.abort_causes)) {
    return Status::Internal(StrFormat("abort breakdowns diverge: %s=(%s) %s=(%s)", label_a,
                                      a.abort_causes.ToString().c_str(), label_b,
                                      b.abort_causes.ToString().c_str()));
  }
  return Status::OK();
}

/// The server-state and decision half of every DES differential check:
/// identical stores, value-equal control matrices, and identical per-client
/// decision logs.
Status CompareRuns(const BroadcastSim& a, const BroadcastSim& b, const char* label_a,
                   const char* label_b) {
  if (!ServerMatricesEqual(a.manager(), b.manager())) {
    return Status::Internal(StrFormat("server control matrices diverge between %s and %s runs",
                                      label_a, label_b));
  }
  if (!(a.manager().store().committed() == b.manager().store().committed())) {
    return Status::Internal(
        StrFormat("server stores diverge between %s and %s runs", label_a, label_b));
  }
  if (a.decisions().size() != b.decisions().size()) {
    return Status::Internal(
        StrFormat("client counts diverge between %s and %s runs", label_a, label_b));
  }
  for (size_t c = 0; c < a.decisions().size(); ++c) {
    const auto& da = a.decisions()[c];
    const auto& db = b.decisions()[c];
    if (da.size() != db.size()) {
      return Status::Internal(StrFormat("client %zu completed %zu txns %s vs %zu %s", c,
                                        da.size(), label_a, db.size(), label_b));
    }
    for (size_t k = 0; k < da.size(); ++k) {
      if (!(da[k] == db[k])) {
        return Status::Internal(StrFormat("client %zu txn %zu decisions diverge between %s and %s",
                                          c, k, label_a, label_b));
      }
    }
  }
  return Status::OK();
}

/// Forces the timing-independent cutoff every differential check relies on:
/// the cycle cutoff is the only stop condition, so both runs see the same
/// prefix of every client's transaction stream.
Status PrepareCrossCheck(SimConfig& config, const char* name) {
  if (config.stop_after_cycles == 0) {
    return Status::InvalidArgument(StrFormat("%s requires stop_after_cycles > 0", name));
  }
  config.record_decisions = true;
  config.num_client_txns = std::numeric_limits<uint32_t>::max();
  return Status::OK();
}

}  // namespace

Status CrossCheckDeltaBroadcast(SimConfig config) {
  BCC_RETURN_IF_ERROR(PrepareCrossCheck(config, "CrossCheckDeltaBroadcast"));
  SimConfig full = config;
  full.delta_broadcast = false;
  SimConfig delta = config;
  delta.delta_broadcast = true;

  BroadcastSim full_sim(full);
  BCC_ASSIGN_OR_RETURN(const SimSummary full_summary, full_sim.Run());
  BroadcastSim delta_sim(delta);
  BCC_ASSIGN_OR_RETURN(const SimSummary delta_summary, delta_sim.Run());

  BCC_RETURN_IF_ERROR(delta_sim.VerifyDeltaTrackers());
  if (delta_summary.delta_control_bits > delta_summary.full_control_bits) {
    return Status::Internal(
        StrFormat("delta mode shipped more control than the full baseline: %llu > %llu",
                  static_cast<unsigned long long>(delta_summary.delta_control_bits),
                  static_cast<unsigned long long>(delta_summary.full_control_bits)));
  }
  // The delta pipeline is broadcast-side only and must not perturb the commit
  // stream or any decision.
  if (full_summary.server_commits != delta_summary.server_commits) {
    return Status::Internal(StrFormat(
        "server commit counts diverge: full=%llu delta=%llu",
        static_cast<unsigned long long>(full_summary.server_commits),
        static_cast<unsigned long long>(delta_summary.server_commits)));
  }
  if (!(full_summary.abort_causes == delta_summary.abort_causes)) {
    return Status::Internal(StrFormat("abort breakdowns diverge: full=(%s) delta=(%s)",
                                      full_summary.abort_causes.ToString().c_str(),
                                      delta_summary.abort_causes.ToString().c_str()));
  }
  return CompareRuns(full_sim, delta_sim, "full", "delta");
}

Status CrossCheckLossless(SimConfig config) {
  BCC_RETURN_IF_ERROR(PrepareCrossCheck(config, "CrossCheckLossless"));
  config.channel_loss_rate = 0;
  config.channel_corrupt_rate = 0;
  config.channel_truncate_rate = 0;
  config.channel_burst = false;
  SimConfig direct = config;
  direct.channel_broadcast = false;
  SimConfig channel = config;
  channel.channel_broadcast = true;

  BroadcastSim direct_sim(direct);
  BCC_ASSIGN_OR_RETURN(const SimSummary direct_summary, direct_sim.Run());
  BroadcastSim channel_sim(channel);
  BCC_ASSIGN_OR_RETURN(const SimSummary channel_summary, channel_sim.Run());

  // A rate-0 channel must deliver every frame undamaged...
  if (channel_summary.channel.frames_sent == 0) {
    return Status::Internal("channel run transmitted no frames");
  }
  if (channel_summary.channel.frames_dropped != 0 ||
      channel_summary.channel.frames_rejected != 0 ||
      channel_summary.channel.frames_delivered != channel_summary.channel.frames_sent ||
      channel_summary.channel.control_losses != 0 ||
      channel_summary.channel.data_losses != 0 || channel_summary.channel.stalls != 0) {
    return Status::Internal("rate-0 channel run reported losses or stalls");
  }
  // ...and reproduce the direct path bit-exactly: summary, server state, and
  // every client's decision log.
  BCC_RETURN_IF_ERROR(CompareSummaries(direct_summary, channel_summary, "direct", "channel"));
  return CompareRuns(direct_sim, channel_sim, "direct", "channel");
}

Status CrossCheckSparseMode(SimConfig config) {
  BCC_RETURN_IF_ERROR(PrepareCrossCheck(config, "CrossCheckSparseMode"));
  if (config.sparse_compaction_period > 0) {
    // Compaction aliases stale entries upward; the server's dependency fold
    // (dep(i) = max_k C(i, k)) then mixes aliased and in-window values, so
    // decisions are conservative-safe but not bit-identical to dense. Audit
    // compacted runs with VerifyOracle instead.
    return Status::InvalidArgument(
        "CrossCheckSparseMode requires sparse_compaction_period == 0 (compaction is "
        "conservative, not decision-identical)");
  }
  SimConfig sparse = config;
  sparse.matrix_mode = MatrixMode::kSparse;
  SimConfig dense = config;
  dense.matrix_mode = MatrixMode::kDense;

  BroadcastSim dense_sim(dense);
  BCC_ASSIGN_OR_RETURN(const SimSummary dense_summary, dense_sim.Run());
  BroadcastSim sparse_sim(sparse);
  BCC_ASSIGN_OR_RETURN(const SimSummary sparse_summary, sparse_sim.Run());

  // The two runs must be bit-identical in every decision-relevant field;
  // only the matrix_* accounting fields (absent from CompareSummaries) may
  // differ between representations.
  BCC_RETURN_IF_ERROR(CompareSummaries(dense_summary, sparse_summary, "dense", "sparse"));
  if (sparse.delta_broadcast) BCC_RETURN_IF_ERROR(sparse_sim.VerifyDeltaTrackers());
  return CompareRuns(dense_sim, sparse_sim, "dense", "sparse");
}

}  // namespace bcc
