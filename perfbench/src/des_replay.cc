#include "des_replay.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "client/read_txn.h"
#include "common/rng.h"
#include "des/event_queue.h"
#include "net/state_digest.h"
#include "server/exec/txn_processor.h"
#include "server/mc_overlay.h"
#include "server/txn_manager.h"
#include "server/validator.h"
#include "sim/broadcast_sim.h"
#include "sim/workload.h"

namespace bccbench {

using namespace bcc;

uint64_t SnapshotDigest(const CycleSnapshot& snap, unsigned timestamp_bits) {
  return DigestMatrixResidues(snap.f_matrix, CycleStampCodec(timestamp_bits),
                              DigestValues(snap.values));
}

namespace {

/// Mirrors BroadcastSim's event handlers for the supported configuration
/// subset; every handler keeps BroadcastSim's scheduling order so the event
/// queue's tie-breaking, and hence every decision, is identical.
class DesReplay {
 public:
  DesReplay(const SimConfig& config, SpanLog& spans) : config_(config), spans_(spans) {}

  StatusOr<DesResult> Run();

 private:
  struct Client {
    Client(const SimConfig& config, Rng rng, std::optional<CycleStampCodec> codec)
        : workload(config, rng), protocol(config.algorithm, codec) {
      protocol.set_capture_columns(false);
    }
    ClientWorkload workload;
    ReadOnlyTxnProtocol protocol;
    std::vector<ObjectId> read_set;
    std::vector<ObjectId> write_set;
    size_t read_idx = 0;
    SimTime submit_time = 0;
    uint32_t restarts = 0;
    bool is_update = false;
  };

  void StartNextCycle();
  void ServerCommitEvent();
  void SubmitClientTxn(size_t c);
  void BeginReadOp(size_t c);
  void PerformBroadcastRead(size_t c);
  void OnReadSuccess(size_t c);
  void OnAbort(size_t c, AbortInfo info);
  void SendUplinkCommit(size_t c);
  void CompleteTxn(size_t c, bool censored);
  void FlushServerBatch();
  void BeginCycle(Cycle cycle, SimTime start);
  void MarkWrites(const std::vector<ObjectId>& writes);
  void Fold(std::vector<CommittedServerTxn> committed, Cycle cycle);

  const SimConfig config_;
  SpanLog& spans_;
  EventQueue queue_;
  std::unique_ptr<ServerTxnManager> manager_;
  std::unique_ptr<BroadcastServer> server_;
  std::unique_ptr<ServerWorkload> server_workload_;
  std::unique_ptr<UpdateValidator> validator_;
  std::unique_ptr<TxnProcessor> processor_;
  std::unique_ptr<McOverlay> overlay_;
  std::vector<ServerTxn> pending_server_txns_;
  std::vector<ServerTxn> pending_uplink_txns_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<CommittedServerTxn> committed_log_;  // pooled: every fold, in order
  std::vector<uint8_t> written_this_cycle_;
  uint64_t written_count_ = 0;
  TxnId next_client_update_id_ = 2 * kClientTxnIdBase;
  uint64_t completed_txns_ = 0;
  uint64_t measured_restarts_ = 0;
  bool done_ = false;
  DesResult result_;
};

StatusOr<DesResult> DesReplay::Run() {
  const auto t0 = std::chrono::steady_clock::now();
  BCC_RETURN_IF_ERROR(config_.Validate());
  if (config_.stop_after_cycles == 0 || config_.algorithm != Algorithm::kFMatrix ||
      config_.matrix_mode != MatrixMode::kDense || config_.enable_cache ||
      config_.delta_broadcast || config_.channel_broadcast || config_.num_groups != 0 ||
      (config_.hot_set_size > 0 && config_.hot_broadcast_frequency > 1)) {
    return Status::InvalidArgument("configuration outside the benchmark composition's subset");
  }
  TxnManagerOptions options;
  options.maintain_f_matrix = true;
  options.maintain_mc_vector = true;
  manager_ = std::make_unique<ServerTxnManager>(config_.num_objects, options);
  server_ = std::make_unique<BroadcastServer>(config_.num_objects, config_.Geometry());
  written_this_cycle_.assign(config_.num_objects, 0);

  Rng root(config_.seed);
  server_workload_ = std::make_unique<ServerWorkload>(config_, root.Split());
  if (config_.update_scheme != UpdateScheme::kSequential) {
    processor_ = std::make_unique<TxnProcessor>(config_.num_objects, config_.update_scheme,
                                                config_.update_workers);
    manager_->SetParallelFold(
        [this](uint32_t shards, const std::function<void(uint32_t)>& body) {
          processor_->RunShards(shards, body);
        },
        config_.update_workers);
  }
  std::optional<CycleStampCodec> codec;
  if (config_.use_wire_codec) codec.emplace(config_.timestamp_bits);
  if (config_.client_update_fraction > 0.0) {
    validator_ = std::make_unique<UpdateValidator>(manager_.get());
    if (processor_ != nullptr) {
      overlay_ = std::make_unique<McOverlay>(config_.num_objects);
      validator_->AttachStagedMode(overlay_.get(), [this](ServerTxn&& txn) {
        pending_uplink_txns_.push_back(std::move(txn));
      });
    }
  }
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    clients_.push_back(std::make_unique<Client>(config_, root.Split(), codec));
  }

  BeginCycle(1, 0);
  queue_.ScheduleAt(server_->CycleEndTime(), [this] { StartNextCycle(); });
  queue_.ScheduleAfter(server_workload_->NextInterval(), [this] { ServerCommitEvent(); });
  for (size_t c = 0; c < clients_.size(); ++c) {
    queue_.ScheduleAfter(clients_[c]->workload.NextInterTxnDelay(),
                         [this, c] { SubmitClientTxn(c); });
  }
  while (!done_ && queue_.Step()) {
  }
  FlushServerBatch();
  result_.run_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (processor_ != nullptr) {
    BCC_RETURN_IF_ERROR(VerifySerializable(config_.num_objects, committed_log_));
  }

  result_.digest = SnapshotDigest(server_->snapshot(), config_.timestamp_bits);
  result_.cycles = server_->snapshot().cycle;
  result_.snapshot_columns_copied = manager_->f_matrix().snapshot_columns_copied();
  const uint64_t measured = result_.responses.size();
  result_.restart_ratio =
      measured > 0 ? static_cast<double>(measured_restarts_) / static_cast<double>(measured) : 0;
  return result_;
}

void DesReplay::BeginCycle(Cycle cycle, SimTime start) {
  spans_.set_cycle(cycle);
  Scoped root(spans_, Layer::kCycle);
  {
    // Observing the matrix folds the ending cycle's queued commit batch;
    // BeginCycle would do the same inside the snapshot.
    Scoped fold(spans_, Layer::kServerFold);
    (void)manager_->f_matrix();
  }
  Scoped snapshot(spans_, Layer::kServerSnapshot);
  server_->BeginCycle(cycle, start, *manager_);
}

void DesReplay::MarkWrites(const std::vector<ObjectId>& writes) {
  for (const ObjectId ob : writes) {
    if (written_this_cycle_[ob] == 0) {
      written_this_cycle_[ob] = 1;
      ++written_count_;
    }
  }
}

void DesReplay::Fold(std::vector<CommittedServerTxn> committed, Cycle cycle) {
  {
    Scoped fold(spans_, Layer::kServerFold);
    FoldIntoManager(committed, *manager_, cycle);
  }
  for (CommittedServerTxn& t : committed) committed_log_.push_back(std::move(t));
}

void DesReplay::FlushServerBatch() {
  if (processor_ == nullptr) return;
  const Cycle cycle = server_->snapshot().cycle;
  if (!pending_uplink_txns_.empty()) {
    std::vector<CommittedServerTxn> committed;
    {
      Scoped s(spans_, Layer::kExecSerial);
      committed = processor_->ExecuteSerial(pending_uplink_txns_);
    }
    Fold(std::move(committed), cycle);
    pending_uplink_txns_.clear();
  }
  if (!pending_server_txns_.empty()) {
    std::vector<CommittedServerTxn> committed;
    {
      Scoped s(spans_, Layer::kExecBatch);
      committed = processor_->ExecuteBatch(pending_server_txns_);
    }
    Fold(std::move(committed), cycle);
    pending_server_txns_.clear();
  }
  if (overlay_ != nullptr) overlay_->Clear();
}

void DesReplay::StartNextCycle() {
  if (done_) return;
  FlushServerBatch();
  result_.touched_columns += written_count_;
  written_count_ = 0;
  std::fill(written_this_cycle_.begin(), written_this_cycle_.end(), 0);
  const Cycle next = server_->snapshot().cycle + 1;
  if (next > config_.stop_after_cycles) {
    done_ = true;
    return;
  }
  BeginCycle(next, server_->CycleEndTime());
  queue_.ScheduleAt(server_->CycleEndTime(), [this] { StartNextCycle(); });
}

void DesReplay::ServerCommitEvent() {
  if (done_) return;
  const ServerTxn txn = server_workload_->NextTxn();
  MarkWrites(txn.write_set);
  if (processor_ != nullptr) {
    if (overlay_ != nullptr) overlay_->Stage(txn.write_set, server_->snapshot().cycle);
    pending_server_txns_.push_back(txn);
  } else {
    Scoped s(spans_, Layer::kServerCommit);
    manager_->ExecuteAndCommit(txn, server_->snapshot().cycle);
  }
  ++result_.server_commits;
  queue_.ScheduleAfter(server_workload_->NextInterval(), [this] { ServerCommitEvent(); });
}

void DesReplay::SubmitClientTxn(size_t c) {
  if (done_) return;
  Client& client = *clients_[c];
  client.submit_time = queue_.now();
  client.read_set = client.workload.NextReadSet();
  client.is_update = validator_ != nullptr && client.workload.NextIsUpdate();
  client.write_set =
      client.is_update ? client.workload.NextWriteSet() : std::vector<ObjectId>{};
  client.read_idx = 0;
  client.restarts = 0;
  client.protocol.Reset();
  queue_.ScheduleAfter(client.workload.NextInterOpDelay(), [this, c] { BeginReadOp(c); });
}

void DesReplay::BeginReadOp(size_t c) {
  if (done_) return;
  Client& client = *clients_[c];
  const ObjectId ob = client.read_set[client.read_idx];
  if (const std::optional<SimTime> slot = server_->NextSlotEnd(ob, queue_.now())) {
    queue_.ScheduleAt(*slot, [this, c] { PerformBroadcastRead(c); });
  } else {
    const uint32_t first_slot = server_->schedule().SlotsOf(ob).front();
    queue_.ScheduleAt(server_->CycleEndTime() +
                          static_cast<SimTime>(first_slot + 1) * server_->geometry().slot_bits,
                      [this, c] { PerformBroadcastRead(c); });
  }
}

void DesReplay::PerformBroadcastRead(size_t c) {
  if (done_) return;
  Client& client = *clients_[c];
  const ObjectId ob = client.read_set[client.read_idx];
  bool ok = false;
  {
    spans_.set_cycle(server_->snapshot().cycle);
    Scoped s(spans_, Layer::kClientRead);
    ok = client.protocol.Read(server_->snapshot(), ob).ok();
  }
  if (!ok) {
    OnAbort(c, client.protocol.last_abort());
    return;
  }
  ++result_.broadcast_reads;
  OnReadSuccess(c);
}

void DesReplay::OnReadSuccess(size_t c) {
  Client& client = *clients_[c];
  ++client.read_idx;
  if (client.read_idx == client.read_set.size()) {
    if (client.is_update) {
      queue_.ScheduleAfter(config_.uplink_delay, [this, c] { SendUplinkCommit(c); });
    } else {
      CompleteTxn(c, /*censored=*/false);
    }
    return;
  }
  queue_.ScheduleAfter(client.workload.NextInterOpDelay(), [this, c] { BeginReadOp(c); });
}

void DesReplay::OnAbort(size_t c, AbortInfo info) {
  Client& client = *clients_[c];
  result_.aborts.Record(info.cause);
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

void DesReplay::SendUplinkCommit(size_t c) {
  if (done_) return;
  Client& client = *clients_[c];
  ClientUpdateRequest request;
  request.id = next_client_update_id_++;
  request.reads = client.protocol.reads();
  request.writes = client.write_set;
  bool accepted = false;
  {
    spans_.set_cycle(server_->snapshot().cycle);
    Scoped s(spans_, Layer::kUplinkValidate);
    accepted = validator_->ValidateAndCommit(request, server_->snapshot().cycle).ok();
  }
  if (accepted) {
    MarkWrites(request.writes);
    ++result_.server_commits;
    ++result_.uplink_accepts;
    queue_.ScheduleAfter(config_.uplink_delay, [this, c] { CompleteTxn(c, false); });
  } else {
    ++result_.uplink_rejects;
    const AbortInfo reject = validator_->last_reject();
    queue_.ScheduleAfter(config_.uplink_delay, [this, c, reject] { OnAbort(c, reject); });
  }
}

void DesReplay::CompleteTxn(size_t c, bool censored) {
  Client& client = *clients_[c];
  if (censored) {
    result_.aborts.Record(AbortCause::kCensored);
    ++result_.censored;
  }
  ++result_.client_txns;
  ++completed_txns_;
  if (completed_txns_ > config_.warmup_txns) {
    result_.responses.push_back(static_cast<double>(queue_.now() - client.submit_time));
    measured_restarts_ += client.restarts;
  }
  if (completed_txns_ >= config_.num_client_txns) {
    done_ = true;
    return;
  }
  client.protocol.Reset();
  queue_.ScheduleAfter(client.workload.NextInterTxnDelay(), [this, c] { SubmitClientTxn(c); });
}

}  // namespace

StatusOr<DesResult> RunDesComposition(const SimConfig& config, SpanLog& spans) {
  DesReplay replay(config, spans);
  return replay.Run();
}

}  // namespace bccbench
