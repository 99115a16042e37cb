#include "sim/broadcast_sim.h"

#include <cassert>
#include <limits>

#include "cc/approx.h"
#include "cc/conflict_serializability.h"
#include "common/format.h"

namespace bcc {

BroadcastSim::BroadcastSim(SimConfig config)
    : config_(std::move(config)), metrics_(config_.warmup_txns) {}

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
    clients_.push_back(std::make_unique<ClientTxn>(config_, core_->server().schedule(),
                                                   root.Split(), codec));
  }

  if (tracer_ != nullptr) {
    // One single-writer ring per simulated actor; registered before any
    // event fires, never resized afterwards.
    core_->set_trace_ring(tracer_->AddTrack("server"));
    for (size_t c = 0; c < clients_.size(); ++c) {
      clients_[c]->set_trace_ring(tracer_->AddTrack(StrFormat("client%zu", c)));
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
  if (config_.delta_broadcast) AttachAndObserveDelta();
  if (channel_) TransmitCycle();
  queue_.ScheduleAt(core_->server().CycleEndTime(), [this] { StartNextCycle(); });
  queue_.ScheduleAt(core_->next_commit_time(), [this] { ServerCommitEvent(); });
  for (size_t c = 0; c < clients_.size(); ++c) {
    clients_[c]->Start();
    ScheduleClient(c);
  }

  while (!done_ && queue_.Step()) {
  }
  // Commits staged during the final (partial) cycle still belong to it.
  core_->Fold(core_->server().snapshot().cycle);

  for (auto& client : clients_) {
    metrics_.AccumulateClient(client->tally());
    if (client->receiver()) metrics_.AccumulateChannel(client->receiver()->stats());
    if (config_.record_decisions) decisions_.push_back(std::move(client->tally().decisions));
  }
  SimSummary summary = metrics_.Summarize(core_->server().snapshot().cycle, queue_.now(),
                                          TotalCacheHits(), TotalCacheMisses());
  if (config_.matrix_mode == MatrixMode::kSparse) {
    summary.matrix_nnz = core_->manager().sparse_matrix().nnz();
  }
  return summary;
}

uint64_t BroadcastSim::TotalCacheHits() const {
  uint64_t total = 0;
  for (const auto& c : clients_) {
    if (c->cache()) total += c->cache()->hits();
  }
  return total;
}

uint64_t BroadcastSim::TotalCacheMisses() const {
  uint64_t total = 0;
  for (const auto& c : clients_) {
    if (c->cache()) total += c->cache()->misses();
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
      SparseMatrixControlBits(core_->manager().sparse_matrix(), config_.timestamp_bits));
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
  if (config_.delta_broadcast) AttachAndObserveDelta();
  if (channel_) TransmitCycle();
  queue_.ScheduleAt(core_->server().CycleEndTime(), [this] { StartNextCycle(); });
}

void BroadcastSim::AttachAndObserveDelta() {
  core_->server().AttachDeltaControl();
  const CycleSnapshot& snap = core_->server().snapshot();
  const DeltaControl& ctl = *snap.delta;
  metrics_.RecordDeltaCycle(ctl.full_refresh, ctl.control_bits, ctl.full_bits);
  // In channel mode the trackers are fed from each client's reassembled
  // frames (TransmitCycle), not from the in-process control block.
  if (config_.channel_broadcast) return;
  for (auto& client : clients_) {
    DeltaMatrixTracker& tracker = *client->tracker();
    tracker.Observe(ctl, snap.f_matrix);
    // Test knob: model a client that missed this cycle's control block.
    if (config_.delta_desync_at_cycle != 0 && snap.cycle == config_.delta_desync_at_cycle) {
      tracker.ForceDesync();
    }
  }
}

void BroadcastSim::TransmitCycle() {
  const CycleSnapshot& snap = core_->server().snapshot();
  EncodeCycleFramesInto(snap, *frame_codec_, config_.object_size_bits, frame_scratch_);
  for (size_t c = 0; c < clients_.size(); ++c) {
    ClientTxn& client = *clients_[c];
    const Transmission tx = channel_->Transmit(static_cast<uint32_t>(c), frame_scratch_);
    client.receiver()->IngestCycle(snap.cycle, tx, queue_.now());
    // The desync knob still works in channel mode (on top of real loss).
    if (client.tracker() && config_.delta_desync_at_cycle != 0 &&
        snap.cycle == config_.delta_desync_at_cycle) {
      client.tracker()->ForceDesync();
    }
  }
}

void BroadcastSim::ServerCommitEvent() {
  if (done_) return;
  core_->CommitNext(core_->server().snapshot().cycle);
  metrics_.RecordServerCommit();
  queue_.ScheduleAt(core_->next_commit_time(), [this] { ServerCommitEvent(); });
}

void BroadcastSim::ScheduleClient(size_t c) {
  queue_.ScheduleAt(clients_[c]->next().time, [this, c] { StepClient(c); });
}

void BroadcastSim::StepClient(size_t c) {
  ClientTxn& client = *clients_[c];
  const CycleSnapshot& snap = core_->server().snapshot();
  const ClientEvent& next =
      client.Step(snap, [&](ClientUpdateRequest& request, AbortInfo& reject) {
        request.id = next_client_update_id_++;
        if (core_->ValidateUplink(request, snap.cycle)) return true;
        reject = core_->last_reject();
        return false;
      });
  if (next.step == ClientStep::kSubmit) {
    // Completed. Committed client UPDATE transactions already live in the
    // server's recorded history (via the validator); only read-only
    // transactions need a client-side oracle log.
    if (config_.record_history && !client.censored() && !client.is_update()) {
      oracle_client_txns_.push_back(
          ClientTxnLog{kClientTxnIdBase + static_cast<TxnId>(oracle_client_txns_.size()),
                       client.reads(), client.values()});
    }
    metrics_.RecordClientTxn(client.submit_time(), queue_.now(), client.restarts(),
                             client.censored());
    if (++completed_txns_ >= config_.num_client_txns) {
      done_ = true;
      return;
    }
  }
  ScheduleClient(c);
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
  const ControlSnapshot& truth = final_snap.f_matrix;
  const Cycle cycle = final_snap.cycle;
  std::vector<Cycle> truth_scratch, mine_scratch;
  for (size_t c = 0; c < clients_.size(); ++c) {
    const DeltaMatrixTracker& tracker = *clients_[c]->tracker();
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
      const std::span<const Cycle> mine = tracker.matrix().Column(j, mine_scratch);
      const std::span<const Cycle> want = truth.Column(j, truth_scratch);
      for (ObjectId i = 0; i < config_.num_objects; ++i) {
        if (codec.Encode(mine[i]) != codec.Encode(want[i])) {
          return Status::Internal(StrFormat(
              "client %zu reconstruction diverges at C(%u, %u): %llu !~ %llu (mod 2^%u)", c, i,
              j, static_cast<unsigned long long>(mine[i]),
              static_cast<unsigned long long>(want[i]), config_.timestamp_bits));
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

/// Field-by-field equality of every non-channel, non-matrix summary field
/// except the abort breakdown, which CompareRuns checks (doubles are compared
/// bit-exactly: identical event sequences must produce identical
/// arithmetic). The delta accounting fields are compared only when
/// `same_control_mode`: a full-matrix run has none.
Status CompareSummaries(const SimSummary& a, const SimSummary& b, const char* label_a,
                        const char* label_b, bool same_control_mode) {
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
  if (!same_control_mode) return Status::OK();
  BCC_RETURN_IF_ERROR(check("delta_cycles", a.delta_cycles, b.delta_cycles));
  BCC_RETURN_IF_ERROR(
      check("delta_refresh_cycles", a.delta_refresh_cycles, b.delta_refresh_cycles));
  BCC_RETURN_IF_ERROR(check("delta_control_bits", a.delta_control_bits, b.delta_control_bits));
  BCC_RETURN_IF_ERROR(check("full_control_bits", a.full_control_bits, b.full_control_bits));
  return check("delta_stall_waits", a.delta_stall_waits, b.delta_stall_waits);
}

/// A run's label in divergence messages: its matrix mode and control path.
std::string RunLabel(const SimConfig& config) {
  return StrFormat("%s%s%s", std::string(MatrixModeName(config.matrix_mode)).c_str(),
                   config.delta_broadcast ? "+delta" : "",
                   config.channel_broadcast ? "+channel" : "");
}

/// A channel with every fault rate at 0 must deliver every frame undamaged.
Status CheckLosslessChannel(const SimConfig& config, const SimSummary& summary) {
  if (!config.channel_broadcast || config.channel_loss_rate != 0 ||
      config.channel_corrupt_rate != 0 || config.channel_truncate_rate != 0 ||
      config.channel_burst) {
    return Status::OK();
  }
  const ChannelStats& ch = summary.channel;
  if (ch.frames_sent == 0) return Status::Internal("channel run transmitted no frames");
  if (ch.frames_dropped != 0 || ch.frames_rejected != 0 || ch.frames_delivered != ch.frames_sent ||
      ch.control_losses != 0 || ch.data_losses != 0 || ch.stalls != 0) {
    return Status::Internal("rate-0 channel run reported losses or stalls");
  }
  return Status::OK();
}

/// The per-side checks of CrossCheck: a lossless channel loses nothing, and
/// a delta run reconstructs the server matrix and never ships more control
/// than the full-matrix baseline.
Status CheckSide(const SimConfig& config, const BroadcastSim& sim, const SimSummary& summary) {
  BCC_RETURN_IF_ERROR(CheckLosslessChannel(config, summary));
  if (!config.delta_broadcast) return Status::OK();
  BCC_RETURN_IF_ERROR(sim.VerifyDeltaTrackers());
  if (summary.delta_control_bits > summary.full_control_bits) {
    return Status::Internal(
        StrFormat("delta mode shipped more control than the full baseline: %llu > %llu",
                  static_cast<unsigned long long>(summary.delta_control_bits),
                  static_cast<unsigned long long>(summary.full_control_bits)));
  }
  return Status::OK();
}

}  // namespace

Status CompareRuns(const RunRecord& a, const RunRecord& b) {
  if (!(a.manager.control_matrix() == b.manager.control_matrix())) {
    return Status::Internal(StrFormat("server control matrices diverge between %s and %s runs",
                                      a.label, b.label));
  }
  if (!(a.manager.mc_vector() == b.manager.mc_vector())) {
    return Status::Internal(
        StrFormat("server MC vectors diverge between %s and %s runs", a.label, b.label));
  }
  if (!(a.manager.store().committed() == b.manager.store().committed())) {
    return Status::Internal(
        StrFormat("server stores diverge between %s and %s runs", a.label, b.label));
  }
  if (a.manager.num_committed() != b.manager.num_committed()) {
    return Status::Internal(StrFormat("server commit counts diverge: %s=%zu %s=%zu", a.label,
                                      a.manager.num_committed(), b.label,
                                      b.manager.num_committed()));
  }
  // Both runs classify every abort at the same failing check, and neither
  // filters by warmup, so the breakdowns are bit-identical, not just close.
  if (!(a.abort_causes == b.abort_causes)) {
    return Status::Internal(StrFormat("abort breakdowns diverge: %s=(%s) %s=(%s)", a.label,
                                      a.abort_causes.ToString().c_str(), b.label,
                                      b.abort_causes.ToString().c_str()));
  }
  if (a.decisions.size() != b.decisions.size()) {
    return Status::Internal(
        StrFormat("client counts diverge between %s and %s runs", a.label, b.label));
  }
  for (size_t c = 0; c < a.decisions.size(); ++c) {
    const auto& da = a.decisions[c];
    const auto& db = b.decisions[c];
    if (da.size() != db.size()) {
      return Status::Internal(StrFormat("client %zu completed %zu txns %s vs %zu %s", c,
                                        da.size(), a.label, db.size(), b.label));
    }
    for (size_t k = 0; k < da.size(); ++k) {
      if (!(da[k] == db[k])) {
        return Status::Internal(StrFormat(
            "client %zu txn %zu decisions diverge between %s and %s: restarts %u/%u, "
            "censored %d/%d, reads %zu/%zu",
            c, k, a.label, b.label, da[k].restarts, db[k].restarts, da[k].censored ? 1 : 0,
            db[k].censored ? 1 : 0, da[k].reads.size(), db[k].reads.size()));
      }
    }
  }
  return Status::OK();
}

Status PrepareCrossCheck(SimConfig& config, const char* name) {
  if (config.stop_after_cycles == 0) {
    return Status::InvalidArgument(StrFormat("%s requires stop_after_cycles > 0", name));
  }
  config.record_decisions = true;
  config.num_client_txns = std::numeric_limits<uint32_t>::max();
  return Status::OK();
}

Status CrossCheck(SimConfig a, SimConfig b) {
  BCC_RETURN_IF_ERROR(PrepareCrossCheck(a, "CrossCheck"));
  BCC_RETURN_IF_ERROR(PrepareCrossCheck(b, "CrossCheck"));
  if (a.sparse_compaction_period > 0 || b.sparse_compaction_period > 0) {
    // Compaction aliases stale entries upward; the server's dependency fold
    // (dep(i) = max_k C(i, k)) then mixes aliased and in-window values, so
    // decisions are conservative-safe but not bit-identical. Audit compacted
    // runs with VerifyOracle instead.
    return Status::InvalidArgument(
        "CrossCheck requires sparse_compaction_period == 0 (compaction is conservative, not "
        "decision-identical)");
  }
  const std::string label_a = RunLabel(a);
  const std::string label_b = RunLabel(b);

  BroadcastSim sim_a(a);
  BCC_ASSIGN_OR_RETURN(const SimSummary summary_a, sim_a.Run());
  BroadcastSim sim_b(b);
  BCC_ASSIGN_OR_RETURN(const SimSummary summary_b, sim_b.Run());

  BCC_RETURN_IF_ERROR(CheckSide(a, sim_a, summary_a));
  BCC_RETURN_IF_ERROR(CheckSide(b, sim_b, summary_b));
  BCC_RETURN_IF_ERROR(CompareSummaries(summary_a, summary_b, label_a.c_str(), label_b.c_str(),
                                       a.delta_broadcast == b.delta_broadcast));
  return CompareRuns(
      {label_a.c_str(), sim_a.manager(), sim_a.decisions(), summary_a.abort_causes},
      {label_b.c_str(), sim_b.manager(), sim_b.decisions(), summary_b.abort_causes});
}

}  // namespace bcc
