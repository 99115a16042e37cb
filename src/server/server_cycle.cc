#include "server/server_cycle.h"

namespace bcc {

bool FiresBeforeFlip(SimTime at, SimTime parent_time, bool parent_pre_flip, SimTime cycle_bits) {
  if (at == 0 || at % cycle_bits != 0) return false;  // not on a boundary
  const SimTime flip_inserted = at - cycle_bits;
  return parent_time < flip_inserted || (parent_time == flip_inserted && parent_pre_flip);
}

StatusOr<std::unique_ptr<ServerCycle>> ServerCycle::Create(const SimConfig& config, Rng& root,
                                                           bool uplink) {
  std::unique_ptr<ServerCycle> core(new ServerCycle());
  BCC_RETURN_IF_ERROR(core->Init(config, root, uplink));
  return core;
}

Status ServerCycle::Init(const SimConfig& config, Rng& root, bool uplink) {
  const bool f_family =
      config.algorithm == Algorithm::kFMatrix || config.algorithm == Algorithm::kFMatrixNo;
  TxnManagerOptions options;
  options.maintain_f_matrix = f_family || config.record_history;
  options.maintain_mc_vector = true;
  options.record_history = config.record_history;
  options.matrix_mode = config.matrix_mode;
  manager_ = std::make_unique<ServerTxnManager>(config.num_objects, options);

  server_ = std::make_unique<BroadcastServer>(config.num_objects, config.Geometry());
  if (config.delta_broadcast) {
    server_->EnableDeltaBroadcast(CycleStampCodec(config.timestamp_bits),
                                  config.delta_refresh_period);
  }
  if (config.hot_set_size > 0 && config.hot_broadcast_frequency > 1) {
    // Multi-speed disk: hot objects several times per major cycle.
    std::vector<uint32_t> frequencies(config.num_objects, 1);
    for (uint32_t i = 0; i < config.hot_set_size; ++i) {
      frequencies[i] = config.hot_broadcast_frequency;
    }
    BCC_ASSIGN_OR_RETURN(BroadcastSchedule schedule,
                         BroadcastSchedule::FromFrequencies(frequencies));
    server_->SetSchedule(std::move(schedule));
  }
  if (f_family && config.num_groups > 0 && config.num_groups < config.num_objects) {
    server_->SetPartition(ObjectPartition::Blocks(config.num_objects, config.num_groups));
  }

  // The server workload takes the root's first split in every engine, so
  // their commit streams are bit-identical for one (seed, config).
  workload_ = std::make_unique<ServerWorkload>(config, root.Split());
  cycle_bits_ = server_->CycleLengthBits();
  // The first commit event is inserted at t = 0, after the flip at L.
  next_commit_time_ = workload_->NextInterval();
  next_commit_pre_flip_ = FiresBeforeFlip(next_commit_time_, 0, false, cycle_bits_);

  if (config.update_scheme != UpdateScheme::kSequential) {
    processor_ = std::make_unique<TxnProcessor>(config.num_objects, config.update_scheme,
                                                config.update_workers);
    // Pooled-apply: the cycle-batch F-Matrix fold borrows the processor's
    // worker pool, partitioned by column (bit-identical to the serial fold).
    manager_->SetParallelFold(
        [this](uint32_t shards, const std::function<void(uint32_t)>& body) {
          processor_->RunShards(shards, body);
        },
        config.update_workers);
  }
  if (uplink) {
    validator_ = std::make_unique<UpdateValidator>(manager_.get());
    if (processor_ != nullptr) {
      // Pooled mode: the cycle's commits reach the manager only at the fold,
      // so the validator reads the MC vector through the cycle-epoch overlay
      // and accepted uplinks queue for the fold's serial prefix.
      overlay_ = std::make_unique<McOverlay>(config.num_objects);
      validator_->AttachStagedMode(overlay_.get(), [this](ServerTxn&& txn) {
        pending_uplink_txns_.push_back(std::move(txn));
      });
    }
  }
  return Status::OK();
}

void ServerCycle::Commit(const ServerTxn& txn, Cycle cycle) {
  if (processor_ == nullptr) {
    manager_->ExecuteAndCommit(txn, cycle);
    if (commit_observer_) commit_observer_(txn.id);
    return;
  }
  // Stage the MC effect now: an uplink validated later this cycle must see
  // this write exactly as the sequential path's eager MC maintenance shows it.
  if (overlay_ != nullptr) overlay_->Stage(txn.write_set, cycle);
  pending_server_txns_.push_back(txn);
}

bool ServerCycle::ValidateUplink(const ClientUpdateRequest& request, Cycle cycle) {
  if (!validator_->ValidateAndCommit(request, cycle).ok()) return false;
  if (processor_ == nullptr && commit_observer_) commit_observer_(request.id);
  return true;
}

void ServerCycle::Fold(Cycle cycle) {
  if (processor_ == nullptr) return;
  if (!pending_uplink_txns_.empty()) {
    // Validation guaranteed each accepted uplink's reads are disjoint from
    // every write staged before it was accepted, so the serial prefix places
    // its commit exactly where the client's broadcast reads put it — after
    // the prior cycle, before anything of this cycle that could conflict.
    // Letting the pooled batch order them could slot a later-staged
    // conflicting server commit in front.
    Publish(processor_->ExecuteSerial(pending_uplink_txns_), cycle);
    pending_uplink_txns_.clear();
  }
  if (!pending_server_txns_.empty()) {
    Publish(processor_->ExecuteBatch(pending_server_txns_), cycle);
    pending_server_txns_.clear();
  }
  // The fold published every staged MC effect for real; retire the epoch.
  if (overlay_ != nullptr) overlay_->Clear();
}

void ServerCycle::Publish(const std::vector<CommittedServerTxn>& committed, Cycle cycle) {
  FoldIntoManager(committed, *manager_, cycle);
  if (!commit_observer_) return;
  for (const CommittedServerTxn& c : committed) commit_observer_(c.txn.id);
}

void ServerCycle::BeginCycle(Cycle cycle, SimTime start) {
  server_->BeginCycle(cycle, start, *manager_);
  if (trace_ == nullptr) return;
  TraceEvent slice;
  slice.type = TraceEventType::kCycleStart;
  slice.time = start;
  slice.duration = cycle_bits_;
  slice.cycle = cycle;
  trace_->Record(slice);
  TraceEvent tx;
  tx.type = TraceEventType::kBroadcastTx;
  tx.time = start;
  tx.cycle = cycle;
  tx.value = server_->num_objects();
  trace_->Record(tx);
}

ServerTxn ServerCycle::CommitNext(Cycle cycle) {
  ServerTxn txn = workload_->NextTxn();
  Commit(txn, cycle);
  const SimTime prev = next_commit_time_;
  if (trace_ != nullptr) {
    TraceEvent e;
    e.type = TraceEventType::kCommit;
    e.time = prev;
    e.cycle = cycle;
    e.value = txn.id;
    trace_->Record(e);
  }
  next_commit_time_ = prev + workload_->NextInterval();
  next_commit_pre_flip_ =
      FiresBeforeFlip(next_commit_time_, prev, next_commit_pre_flip_, cycle_bits_);
  return txn;
}

}  // namespace bcc
