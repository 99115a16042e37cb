#include "sim/concurrent_sim.h"

#include <atomic>
#include <barrier>
#include <cassert>
#include <limits>
#include <thread>

#include "client/read_txn.h"
#include "client/receiver.h"
#include "common/format.h"
#include "sim/broadcast_sim.h"

namespace bcc {

/// Per-client thread state. Everything here is owned by one client thread
/// for the duration of the run; the only cross-thread traffic is the
/// published snapshot (read) and the completion counter (fetch_add).
struct ConcurrentSim::ClientState {
  enum class Kind {
    kSubmit,
    kBeginRead,
    kRead,
    kUplink,       ///< update txn: ship reads+writes to the validator desk
    kUplinkDone,   ///< accepted; the client learns one uplink delay later
    kUplinkAbort,  ///< rejected; the abort fires one uplink delay later
  };
  struct Event {
    Kind kind;
    SimTime time;
    bool pre_flip;  // fires before the cycle flip at `time` (boundaries only)
  };

  ClientState(const SimConfig& config, Rng rng, std::optional<CycleStampCodec> codec)
      : workload(config, rng), protocol(config.algorithm, codec) {
    // Run rejects the cache, so the O(n) per-read column capture is never
    // consulted; skipping it mirrors the DES client (decisions unaffected).
    protocol.set_capture_columns(config.enable_cache);
    if (config.channel_broadcast) {
      // Full control mode only (Run rejects delta): the receiver's matrix
      // and values back the protocol, exactly as in the DES.
      receiver = std::make_unique<ChannelReceiver>(
          config.num_objects,
          FrameCodec(CycleStampCodec(config.timestamp_bits), config.channel_frame_bits),
          /*tracker=*/nullptr);
      protocol.set_value_override(&receiver->values());
      protocol.set_control_override(&receiver->matrix());
    }
  }

  ClientWorkload workload;
  ReadOnlyTxnProtocol protocol;
  /// Channel-mode frame reassembly; owned and touched by this thread only.
  std::unique_ptr<ChannelReceiver> receiver;

  std::vector<ObjectId> read_set;
  std::vector<ObjectId> write_set;  // update txns: kept across restarts
  size_t read_idx = 0;
  uint32_t restarts = 0;
  bool is_update = false;
  /// Channel mode: did the current transaction attempt stall on loss?
  bool stalled_this_attempt = false;
  /// Rejection cause captured at the validator desk, consumed by the
  /// kUplinkAbort event one uplink delay later.
  AbortInfo uplink_reject;
  Event ev{Kind::kSubmit, 0, false};
  /// This thread's trace ring (null when tracing is off); single-writer.
  TraceRing* trace = nullptr;

  std::vector<TxnDecision> decisions;
  uint64_t completed = 0;
  uint64_t censored = 0;
  uint64_t total_restarts = 0;
  uint64_t update_commits = 0;
  uint64_t update_rejects = 0;
  /// Per-thread abort attribution, merged into the summary after join.
  AbortBreakdown abort_causes;
};

ConcurrentSim::ConcurrentSim(SimConfig config)
    : config_(std::move(config)), geometry_(config_.Geometry()) {}

ConcurrentSim::~ConcurrentSim() = default;

void ConcurrentSim::ProcessClientPhase(ClientState& cs, Cycle phase, const CycleSnapshot& snap) {
  assert(snap.cycle == phase);
  using Kind = ClientState::Kind;
  const SimTime cycle_start = (phase - 1) * cycle_bits_;
  const BroadcastSchedule& schedule = core_->server().schedule();

  while (PhaseOf(cs.ev.time, cs.ev.pre_flip, cycle_bits_) == phase) {
    const SimTime t = cs.ev.time;
    const bool pre = cs.ev.pre_flip;
    const auto schedule_next = [&](Kind kind, SimTime at) {
      cs.ev = ClientState::Event{kind, at, FiresBeforeFlip(at, t, pre, cycle_bits_)};
    };
    const auto complete_txn = [&](bool censored) {
      if (config_.record_decisions) {
        cs.decisions.push_back(TxnDecision{cs.protocol.reads(), cs.restarts, censored});
      }
      // Censoring is counted in ADDITION to the final attempt's abort cause,
      // mirroring the sequential engine's accounting exactly.
      if (censored) cs.abort_causes.Record(AbortCause::kCensored);
      if (cs.trace != nullptr) {
        TraceEvent e;
        e.type = censored ? TraceEventType::kAbort : TraceEventType::kCommit;
        e.time = t;
        e.cycle = phase;
        e.value = cs.protocol.reads().size();
        if (censored) e.abort.cause = AbortCause::kCensored;
        cs.trace->Record(e);
      }
      ++cs.completed;
      cs.censored += censored ? 1 : 0;
      cs.total_restarts += cs.restarts;
      completions_.fetch_add(1, std::memory_order_relaxed);
      cs.protocol.Reset();
      schedule_next(Kind::kSubmit, t + cs.workload.NextInterTxnDelay());
    };

    switch (cs.ev.kind) {
      case Kind::kSubmit: {
        cs.read_set = cs.workload.NextReadSet();
        // Same RNG draw order as BroadcastSim::SubmitClientTxn: the update
        // coin and write set are drawn only when uplink mode is on.
        cs.is_update = core_->uplink() && cs.workload.NextIsUpdate();
        cs.write_set = cs.is_update ? cs.workload.NextWriteSet() : std::vector<ObjectId>{};
        cs.read_idx = 0;
        cs.restarts = 0;
        cs.stalled_this_attempt = false;
        cs.protocol.Reset();
        schedule_next(Kind::kBeginRead, t + cs.workload.NextInterOpDelay());
        break;
      }
      case Kind::kBeginRead: {
        // Mirrors BroadcastServer::NextSlotEnd against this phase's window.
        const ObjectId ob = cs.read_set[cs.read_idx];
        const SimTime offset = t - cycle_start;
        const SimTime slot_bits = geometry_.slot_bits;
        const size_t min_slot =
            offset <= slot_bits ? 0 : static_cast<size_t>((offset - 1) / slot_bits);
        const int64_t slot = schedule.NextSlotOf(ob, min_slot);
        if (slot >= 0) {
          schedule_next(Kind::kRead,
                        cycle_start + static_cast<SimTime>(slot + 1) * slot_bits);
        } else {
          // No appearance of `ob` remains this cycle: its first slot of the
          // next one.
          const uint32_t first_slot = schedule.SlotsOf(ob).front();
          schedule_next(Kind::kRead, cycle_start + cycle_bits_ +
                                         static_cast<SimTime>(first_slot + 1) * slot_bits);
        }
        break;
      }
      case Kind::kRead: {
        const ObjectId ob = cs.read_set[cs.read_idx];
        if (cs.receiver != nullptr &&
            (!cs.receiver->ControlUsable(ob, phase) || !cs.receiver->DataUsable(ob, phase))) {
          // The slot's data page or control column was lost this cycle:
          // missed cycle. Stall until the object's first slot of the next
          // cycle (mirrors the DES's stall retry); never validate against a
          // stale snapshot.
          cs.receiver->RecordStall();
          cs.stalled_this_attempt = true;
          if (cs.trace != nullptr) {
            TraceEvent e;
            e.type = TraceEventType::kStall;
            e.time = t;
            e.cycle = phase;
            e.object = ob;
            e.value = kStallChannelLoss;
            cs.trace->Record(e);
          }
          const uint32_t first_slot = schedule.SlotsOf(ob).front();
          schedule_next(Kind::kRead, cycle_start + cycle_bits_ +
                                         static_cast<SimTime>(first_slot + 1) *
                                             geometry_.slot_bits);
          break;
        }
        const auto value = cs.protocol.Read(snap, ob);
        if (cs.trace != nullptr) {
          TraceEvent e;
          e.type = TraceEventType::kValidation;
          e.time = t;
          e.cycle = phase;
          e.object = ob;
          e.value = value.ok() ? 1 : 0;
          cs.trace->Record(e);
        }
        if (value.ok()) {
          if (cs.trace != nullptr) {
            TraceEvent e;
            e.type = TraceEventType::kRead;
            e.time = t;
            e.cycle = phase;
            e.object = ob;
            e.value = value->value;
            cs.trace->Record(e);
          }
          ++cs.read_idx;
          if (cs.read_idx == cs.read_set.size()) {
            if (cs.is_update) {
              // Ship the read records + write set to the validator desk one
              // uplink delay from now (mirrors BroadcastSim::OnReadSuccess).
              schedule_next(Kind::kUplink, t + config_.uplink_delay);
            } else {
              complete_txn(/*censored=*/false);  // read-only commit is local, free
            }
          } else {
            schedule_next(Kind::kBeginRead, t + cs.workload.NextInterOpDelay());
          }
        } else {
          // Same attribution precedence as BroadcastSim::OnReadAbort: a
          // loss-stalled attempt's abort is the channel's fault; otherwise
          // the protocol's captured cause stands.
          AbortInfo info = cs.protocol.last_abort();
          if (cs.receiver != nullptr && cs.stalled_this_attempt) {
            info.cause = AbortCause::kChannelLoss;
            cs.receiver->RecordLossAttributedAbort();
          }
          cs.abort_causes.Record(info.cause);
          if (cs.trace != nullptr) {
            TraceEvent e;
            e.type = TraceEventType::kAbort;
            e.time = t;
            e.cycle = phase;
            e.object = info.ob_j;
            e.abort = info;
            cs.trace->Record(e);
          }
          cs.stalled_this_attempt = false;
          ++cs.restarts;
          if (cs.restarts >= config_.max_restarts_per_txn) {
            complete_txn(/*censored=*/true);
          } else {
            cs.protocol.Reset();
            cs.read_idx = 0;
            schedule_next(Kind::kBeginRead,
                          t + config_.restart_delay + cs.workload.NextInterOpDelay());
          }
        }
        break;
      }
      case Kind::kUplink: {
        // The validator desk: one client at a time validates against the
        // merged (manager MC, overlay) view and — on acceptance — stages its
        // writes and queues for the fold's serial prefix. The manager is
        // never mutated mid-phase, so the MC read under the desk lock is
        // race-free against the server thread.
        bool accepted;
        AbortInfo reject;
        {
          std::lock_guard<std::mutex> lock(uplink_mu_);
          ClientUpdateRequest request;
          request.id = next_client_update_id_++;
          request.reads = cs.protocol.reads();
          request.writes = cs.write_set;
          accepted = core_->ValidateUplink(request, phase);
          if (!accepted) reject = core_->last_reject();
        }
        if (cs.trace != nullptr) {
          TraceEvent e;
          e.type = TraceEventType::kValidation;
          e.time = t;
          e.cycle = phase;
          e.value = accepted ? 1 : 0;
          cs.trace->Record(e);
        }
        // The client learns the outcome one uplink delay later.
        if (accepted) {
          ++cs.update_commits;
          schedule_next(Kind::kUplinkDone, t + config_.uplink_delay);
        } else {
          ++cs.update_rejects;
          cs.uplink_reject = reject;
          schedule_next(Kind::kUplinkAbort, t + config_.uplink_delay);
        }
        break;
      }
      case Kind::kUplinkDone: {
        complete_txn(/*censored=*/false);
        break;
      }
      case Kind::kUplinkAbort: {
        const AbortInfo info = cs.uplink_reject;
        cs.abort_causes.Record(info.cause);
        if (cs.trace != nullptr) {
          TraceEvent e;
          e.type = TraceEventType::kAbort;
          e.time = t;
          e.cycle = phase;
          e.object = info.ob_j;
          e.abort = info;
          cs.trace->Record(e);
        }
        ++cs.restarts;
        if (cs.restarts >= config_.max_restarts_per_txn) {
          complete_txn(/*censored=*/true);
        } else {
          cs.protocol.Reset();
          cs.read_idx = 0;
          schedule_next(Kind::kBeginRead,
                        t + config_.restart_delay + cs.workload.NextInterOpDelay());
        }
        break;
      }
    }
  }
}

void ConcurrentSim::StageServerPhase(Cycle phase) {
  core_->CommitCycle(phase, [&](const ServerTxn& txn, SimTime at) {
    ++server_commits_;
    if (server_trace_ == nullptr) return;
    TraceEvent e;
    e.type = TraceEventType::kCommit;
    e.time = at;
    e.cycle = phase;
    e.value = txn.id;
    server_trace_->Record(e);
  });
}

StatusOr<ConcurrentSummary> ConcurrentSim::Run() {
  if (ran_) return Status::FailedPrecondition("ConcurrentSim::Run may only be called once");
  ran_ = true;
  BCC_RETURN_IF_ERROR(config_.Validate());
  if (config_.enable_cache) {
    return Status::InvalidArgument("ConcurrentSim does not support the client cache yet");
  }
  if (config_.client_update_fraction > 0.0 &&
      config_.update_scheme == UpdateScheme::kSequential) {
    return Status::InvalidArgument(
        "ConcurrentSim supports client update transactions only with a pooled update "
        "scheme (sequential uplink commits would mutate the manager mid-phase)");
  }
  if (config_.delta_broadcast) {
    return Status::InvalidArgument(
        "ConcurrentSim does not support the snapshot+delta control broadcast yet");
  }
  if (config_.sparse_compaction_period > 0) {
    return Status::InvalidArgument(
        "ConcurrentSim does not support sparse_compaction_period (compaction rewrites "
        "matrix values, which would break the cross-engine matrix comparison)");
  }

  // Setup mirrors BroadcastSim::Run — the root RNG split order is part of
  // the cross-engine contract.
  Rng root(config_.seed);
  BCC_ASSIGN_OR_RETURN(core_,
                       ServerCycle::Create(config_, root, config_.client_update_fraction > 0.0));
  next_client_update_id_ = 2 * kClientTxnIdBase;  // disjoint id range

  std::optional<CycleStampCodec> codec;
  if (config_.use_wire_codec) codec.emplace(config_.timestamp_bits);

  clients_.clear();
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    clients_.push_back(std::make_unique<ClientState>(config_, root.Split(), codec));
  }
  if (tracer_ != nullptr) {
    // Track registration happens strictly before any thread spawns; after
    // this point each ring has exactly one writer for the whole run.
    server_trace_ = tracer_->AddTrack("server");
    for (size_t c = 0; c < clients_.size(); ++c) {
      clients_[c]->trace = tracer_->AddTrack(StrFormat("client%zu", c));
      if (clients_[c]->receiver != nullptr) {
        clients_[c]->receiver->set_trace_ring(clients_[c]->trace);
      }
    }
  }
  if (config_.channel_broadcast) {
    // Channel fault streams are seeded independently of the root RNG (see
    // LossyChannel), so client c's fault sequence here is bit-identical to
    // its sequence in the DES — the lossy cross-engine check depends on it.
    frame_codec_.emplace(CycleStampCodec(config_.timestamp_bits), config_.channel_frame_bits);
    channel_ = std::make_unique<LossyChannel>(config_.ChannelFaults(), config_.seed,
                                              config_.num_clients);
  }

  cycle_bits_ = core_->server().CycleLengthBits();
  const auto trace_cycle_start = [this](Cycle cycle) {
    if (server_trace_ == nullptr) return;
    TraceEvent slice;
    slice.type = TraceEventType::kCycleStart;
    slice.time = (cycle - 1) * cycle_bits_;
    slice.duration = cycle_bits_;
    slice.cycle = cycle;
    server_trace_->Record(slice);
    TraceEvent tx;
    tx.type = TraceEventType::kBroadcastTx;
    tx.time = slice.time;
    tx.cycle = cycle;
    tx.value = config_.num_objects;
    server_trace_->Record(tx);
  };
  core_->BeginCycle(1, 0);
  trace_cycle_start(1);
  published_ = std::make_shared<const CycleSnapshot>(core_->server().snapshot());
  if (channel_ != nullptr) {
    published_frames_ = std::make_shared<const std::vector<Frame>>(
        EncodeCycleFrames(*published_, *frame_codec_, config_.object_size_bits));
  }

  for (auto& cs : clients_) {
    const SimTime at = cs->workload.NextInterTxnDelay();
    cs->ev = ClientState::Event{ClientState::Kind::kSubmit, at,
                                FiresBeforeFlip(at, 0, false, cycle_bits_)};
  }

  // Epoch loop. Per broadcast cycle k: client threads drain their cycle-k
  // events against the immutable published snapshot while the server thread
  // stages cycle-k commits; at the work barrier everyone is quiescent, the
  // server publishes the cycle-(k+1) snapshot and the stop verdict, and the
  // publish barrier releases the next epoch.
  completions_.store(0, std::memory_order_relaxed);
  std::barrier work_done(static_cast<std::ptrdiff_t>(config_.num_clients) + 1);
  std::barrier publish_done(static_cast<std::ptrdiff_t>(config_.num_clients) + 1);
  bool stop = false;

  // Uplink mode: cycle 1's server transactions are staged before any client
  // thread exists, so the overlay is complete and immutable for the whole
  // first phase (later phases stage in the preceding exclusive section).
  if (core_->uplink()) StageServerPhase(1);

  std::vector<std::jthread> threads;
  threads.reserve(config_.num_clients);
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    threads.emplace_back([this, c, &work_done, &publish_done, &stop] {
      ClientState& cs = *clients_[c];
      for (Cycle phase = 1;; ++phase) {
        const std::shared_ptr<const CycleSnapshot> snap = published_;
        if (cs.receiver != nullptr) {
          // Per-client fault link and receiver are thread-local; Transmit
          // only touches this client's RNG/burst state inside channel_.
          const std::shared_ptr<const std::vector<Frame>> frames = published_frames_;
          cs.receiver->IngestCycle(phase, channel_->Transmit(c, *frames),
                                   (phase - 1) * cycle_bits_);
        }
        ProcessClientPhase(cs, phase, *snap);
        work_done.arrive_and_wait();
        publish_done.arrive_and_wait();
        if (stop) break;
      }
    });
  }

  uint64_t cycles = 0;
  for (Cycle phase = 1;; ++phase) {
    // Uplink mode keeps the manager untouched during the work phase (desk
    // validations read its MC vector concurrently): this phase's server
    // transactions were already staged in the previous exclusive section,
    // and the fold below applies them after the work barrier. Otherwise the
    // server thread commits and folds the phase while clients read, so the
    // snapshot published next sees every commit of this phase.
    if (!core_->uplink()) {
      StageServerPhase(phase);
      core_->Fold(phase);
    }
    work_done.arrive_and_wait();
    // Exclusive section: every client thread is parked between the two
    // barriers, so the snapshot swap and stop verdict are race-free.
    if (core_->uplink()) core_->Fold(phase);
    cycles = phase;
    stop = config_.stop_after_cycles > 0
               ? phase >= config_.stop_after_cycles
               : completions_.load(std::memory_order_relaxed) >= config_.num_client_txns;
    if (!stop) {
      core_->BeginCycle(phase + 1, phase * cycle_bits_);
      trace_cycle_start(phase + 1);
      published_ = std::make_shared<const CycleSnapshot>(core_->server().snapshot());
      if (channel_ != nullptr) {
        published_frames_ = std::make_shared<const std::vector<Frame>>(
            EncodeCycleFrames(*published_, *frame_codec_, config_.object_size_bits));
      }
      if (core_->uplink()) StageServerPhase(phase + 1);
    }
    publish_done.arrive_and_wait();
    if (stop) break;
  }
  threads.clear();  // join

  ConcurrentSummary summary;
  summary.cycles = cycles;
  summary.server_commits = server_commits_;
  decisions_.clear();
  for (auto& cs : clients_) {
    summary.completed_txns += cs->completed;
    summary.censored_txns += cs->censored;
    summary.total_restarts += cs->total_restarts;
    summary.client_update_commits += cs->update_commits;
    summary.client_update_rejects += cs->update_rejects;
    summary.abort_causes.Accumulate(cs->abort_causes);
    if (cs->receiver != nullptr) summary.channel.Accumulate(cs->receiver->stats());
    if (config_.record_decisions) decisions_.push_back(std::move(cs->decisions));
  }
  // Mirror the DES accounting: accepted uplink transactions are server
  // commits (they enter the manager's committed stream).
  summary.server_commits += summary.client_update_commits;
  return summary;
}

Status CrossCheckEngines(SimConfig config) {
  if (config.stop_after_cycles == 0) {
    return Status::InvalidArgument("CrossCheckEngines requires stop_after_cycles > 0");
  }
  config.record_decisions = true;
  // Both engines must run the full cycle window; the transaction-count
  // cutoff would stop the DES at a timing-dependent point mid-cycle.
  config.num_client_txns = std::numeric_limits<uint32_t>::max();

  BroadcastSim sequential(config);
  BCC_ASSIGN_OR_RETURN(const SimSummary seq_summary, sequential.Run());
  ConcurrentSim concurrent(config);
  BCC_ASSIGN_OR_RETURN(const ConcurrentSummary conc_summary, concurrent.Run());

  // The abort-attribution tables must agree cause-by-cause: both engines
  // classify every abort at the same failing check, and neither filters by
  // warmup, so the breakdowns are bit-identical, not just statistically
  // close.
  if (!(seq_summary.abort_causes == conc_summary.abort_causes)) {
    return Status::Internal(StrFormat(
        "abort breakdowns diverged: sequential=(%s) concurrent=(%s)",
        seq_summary.abort_causes.ToString().c_str(),
        conc_summary.abort_causes.ToString().c_str()));
  }

  const auto& seq = sequential.decisions();
  const auto& conc = concurrent.decisions();
  if (seq.size() != conc.size()) {
    return Status::Internal(StrFormat("client count diverged: %zu vs %zu", seq.size(),
                                      conc.size()));
  }
  for (size_t c = 0; c < seq.size(); ++c) {
    if (seq[c].size() != conc[c].size()) {
      return Status::Internal(StrFormat("client %zu: %zu sequential vs %zu concurrent txns",
                                        c, seq[c].size(), conc[c].size()));
    }
    for (size_t i = 0; i < seq[c].size(); ++i) {
      if (!(seq[c][i] == conc[c][i])) {
        return Status::Internal(StrFormat(
            "client %zu txn %zu diverged: restarts %u/%u, censored %d/%d, reads %zu/%zu",
            c, i, seq[c][i].restarts, conc[c][i].restarts, seq[c][i].censored ? 1 : 0,
            conc[c][i].censored ? 1 : 0, seq[c][i].reads.size(), conc[c][i].reads.size()));
      }
    }
  }

  const ServerTxnManager& a = sequential.manager();
  const ServerTxnManager& b = concurrent.manager();
  if (a.num_committed() != b.num_committed()) {
    return Status::Internal(StrFormat("server commit count diverged: %zu vs %zu",
                                      a.num_committed(), b.num_committed()));
  }
  // Both engines ran the same config, so they maintain the same control
  // representation; the unmaintained one is size 0 on both sides and
  // compares trivially equal.
  if (!(a.f_matrix() == b.f_matrix())) {
    return Status::Internal("final F-Matrix diverged between engines");
  }
  if (!(a.sparse_f_matrix() == b.sparse_f_matrix())) {
    return Status::Internal("final sparse F-Matrix diverged between engines");
  }
  if (!(a.mc_vector() == b.mc_vector())) {
    return Status::Internal("final MC vector diverged between engines");
  }
  if (!(a.store().committed() == b.store().committed())) {
    return Status::Internal("final committed store diverged between engines");
  }
  return Status::OK();
}

}  // namespace bcc
