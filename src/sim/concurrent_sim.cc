#include "sim/concurrent_sim.h"

#include <atomic>
#include <barrier>
#include <cassert>
#include <thread>

#include "common/format.h"
#include "sim/broadcast_sim.h"

namespace bcc {

ConcurrentSim::ConcurrentSim(SimConfig config)
    : config_(std::move(config)) {}

ConcurrentSim::~ConcurrentSim() = default;

void ConcurrentSim::ProcessClientPhase(ClientTxn& client, bool& pre_flip, Cycle phase,
                                       const CycleSnapshot& snap) {
  assert(snap.cycle == phase);
  while (PhaseOf(client.next().time, pre_flip, cycle_bits_) == phase) {
    const SimTime t = client.next().time;
    const ClientEvent& next =
        client.Step(snap, [&](ClientUpdateRequest& request, AbortInfo& reject) {
          // The validator desk: one client at a time validates against the
          // merged (manager MC, overlay) view and, on acceptance, stages its
          // writes and queues for the fold's serial prefix. The manager is
          // never mutated mid-phase, so the MC read under the desk lock is
          // race-free against the server thread.
          std::lock_guard<std::mutex> lock(uplink_mu_);
          request.id = next_client_update_id_++;
          if (core_->ValidateUplink(request, phase)) return true;
          reject = core_->last_reject();
          return false;
        });
    pre_flip = FiresBeforeFlip(next.time, t, pre_flip, cycle_bits_);
    if (next.step == ClientStep::kSubmit) completions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ConcurrentSim::StageServerPhase(Cycle phase) {
  core_->CommitCycle(phase, [&](const ServerTxn&, SimTime) { ++server_commits_; });
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

  // The root RNG split order (server, then clients in index order) is part
  // of the cross-engine contract; BroadcastSim::Run splits the same way.
  Rng root(config_.seed);
  BCC_ASSIGN_OR_RETURN(core_,
                       ServerCycle::Create(config_, root, config_.client_update_fraction > 0.0));
  next_client_update_id_ = 2 * kClientTxnIdBase;  // disjoint id range

  std::optional<CycleStampCodec> codec;
  if (config_.use_wire_codec) codec.emplace(config_.timestamp_bits);

  clients_.clear();
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    clients_.push_back(std::make_unique<ClientTxn>(config_, core_->server().schedule(),
                                                   root.Split(), codec));
  }
  if (tracer_ != nullptr) {
    // Track registration happens strictly before any thread spawns; after
    // this point each ring has exactly one writer for the whole run.
    core_->set_trace_ring(tracer_->AddTrack("server"));
    for (size_t c = 0; c < clients_.size(); ++c) {
      clients_[c]->set_trace_ring(tracer_->AddTrack(StrFormat("client%zu", c)));
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
  core_->BeginCycle(1, 0);
  published_ = std::make_shared<const CycleSnapshot>(core_->server().snapshot());
  if (channel_ != nullptr) {
    EncodeCycleFramesInto(*published_, *frame_codec_, config_.object_size_bits, frames_);
  }

  for (auto& client : clients_) client->Start();

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
      ClientTxn& client = *clients_[c];
      // The DES boundary rule for this client's pending event (the first one
      // is inserted at t = 0).
      bool pre_flip = FiresBeforeFlip(client.next().time, 0, false, cycle_bits_);
      for (Cycle phase = 1;; ++phase) {
        const std::shared_ptr<const CycleSnapshot> snap = published_;
        if (client.receiver() != nullptr) {
          // Per-client fault link and receiver are thread-local; Transmit
          // only touches this client's RNG/burst state inside channel_.
          client.receiver()->IngestCycle(phase, channel_->Transmit(c, frames_),
                                         (phase - 1) * cycle_bits_);
        }
        ProcessClientPhase(client, pre_flip, phase, *snap);
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
      published_ = std::make_shared<const CycleSnapshot>(core_->server().snapshot());
      if (channel_ != nullptr) {
        EncodeCycleFramesInto(*published_, *frame_codec_, config_.object_size_bits, frames_);
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
  for (auto& client : clients_) {
    ClientTally& tally = client->tally();
    summary.completed_txns += tally.completed;
    summary.censored_txns += tally.censored;
    summary.total_restarts += tally.restarts;
    summary.client_update_commits += tally.update_commits;
    summary.client_update_rejects += tally.update_rejects;
    summary.abort_causes.Accumulate(tally.abort_causes);
    if (client->receiver() != nullptr) summary.channel.Accumulate(client->receiver()->stats());
    if (config_.record_decisions) decisions_.push_back(std::move(tally.decisions));
  }
  // Accepted uplink transactions are server commits too (they enter the
  // manager's committed stream), as in the DES accounting.
  summary.server_commits += summary.client_update_commits;
  return summary;
}

Status CrossCheckEngines(SimConfig config) {
  BCC_RETURN_IF_ERROR(PrepareCrossCheck(config, "CrossCheckEngines"));
  BroadcastSim sequential(config);
  BCC_ASSIGN_OR_RETURN(const SimSummary seq_summary, sequential.Run());
  ConcurrentSim concurrent(config);
  BCC_ASSIGN_OR_RETURN(const ConcurrentSummary conc_summary, concurrent.Run());
  return CompareRuns({"sequential", sequential.manager(), sequential.decisions(),
                      seq_summary.abort_causes},
                     {"concurrent", concurrent.manager(), concurrent.decisions(),
                      conc_summary.abort_causes});
}

}  // namespace bcc
