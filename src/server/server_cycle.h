// The server side of one broadcast cycle (Section 3): update transactions
// commit during cycle c, their F-Matrix / MC effects are folded at the
// boundary, and cycle c + 1's snapshot puts them on the air. The DES
// (BroadcastSim), the threaded engine (ConcurrentSim) and the UDP daemon
// all drive this one core; see DESIGN.md, "Server cycle core".
//
// Threading: the core is single-writer. Commit, Fold and the commit clock
// run on the engine's server thread; ValidateUplink runs under the engine's
// uplink serialization (the DES event loop, ConcurrentSim's desk mutex, the
// daemon's receive loop). The core adds no locking of its own.

#ifndef BCC_SERVER_SERVER_CYCLE_H_
#define BCC_SERVER_SERVER_CYCLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/statusor.h"
#include "obs/trace.h"
#include "server/broadcast_server.h"
#include "server/exec/txn_processor.h"
#include "server/mc_overlay.h"
#include "server/txn_manager.h"
#include "server/validator.h"
#include "sim/config.h"
#include "sim/workload.h"

namespace bcc {

/// The DES boundary rule. The DES fires events in (time, insertion-order)
/// order, which matters in exactly one place: an event landing on a cycle
/// boundary k*L fires before the boundary's cycle flip iff it was inserted
/// before the flip was — and the flip at k*L is inserted at (k-1)*L, by the
/// previous flip's handler. An event is inserted the moment its parent event
/// fires, so the rule is recursive in the parent's own boundary side.
bool FiresBeforeFlip(SimTime at, SimTime parent_time, bool parent_pre_flip, SimTime cycle_bits);

/// The broadcast cycle an event belongs to: events on a boundary fire in the
/// old cycle when they beat the flip, in the new cycle otherwise.
inline Cycle PhaseOf(SimTime at, bool pre_flip, SimTime cycle_bits) {
  return pre_flip ? at / cycle_bits : at / cycle_bits + 1;
}

/// One run's server: manager, broadcaster, commit stream, pooled update
/// engine and uplink validator, built once from a SimConfig.
class ServerCycle {
 public:
  /// Builds the server side of `config` (which must already be valid): the
  /// manager's maintenance options, the broadcaster with its schedule and
  /// partition, the server workload on `root`'s next split, the pooled
  /// TxnProcessor (update_scheme != kSequential) and, when `uplink`, the
  /// UpdateValidator — staged through an McOverlay in pooled mode.
  static StatusOr<std::unique_ptr<ServerCycle>> Create(const SimConfig& config, Rng& root,
                                                       bool uplink);

  ServerCycle(const ServerCycle&) = delete;
  ServerCycle& operator=(const ServerCycle&) = delete;

  ServerTxnManager& manager() { return *manager_; }
  const ServerTxnManager& manager() const { return *manager_; }
  BroadcastServer& server() { return *server_; }
  const BroadcastServer& server() const { return *server_; }
  /// Whether the uplink validator is armed.
  bool uplink() const { return validator_ != nullptr; }

  /// Snapshots the manager as broadcast cycle `cycle`, starting at `start`.
  void BeginCycle(Cycle cycle, SimTime start);

  /// The server trace ring (not owned; null = tracing off). BeginCycle then
  /// records the cycle slice and broadcast instant, and CommitNext each
  /// commit, in virtual time. The daemon, which traces in wall time, leaves
  /// it unset.
  void set_trace_ring(TraceRing* ring) { trace_ = ring; }

  /// Commits `txn` during broadcast cycle `cycle`. Sequential mode executes
  /// it now; pooled mode stages its MC effect (when the overlay is armed) and
  /// queues it for the next Fold.
  void Commit(const ServerTxn& txn, Cycle cycle);

  /// Validates an uplink transaction during `cycle` (requires uplink()) and
  /// returns whether it was accepted. Direct mode commits an accepted one on
  /// the spot; staged mode queues it for the serial prefix of the next Fold.
  bool ValidateUplink(const ClientUpdateRequest& request, Cycle cycle);
  /// Cause of the most recent ValidateUplink rejection.
  const AbortInfo& last_reject() const { return validator_->last_reject(); }

  /// The cycle-boundary fold (pooled mode; no-op otherwise): accepted
  /// uplinks commit first, serially in acceptance order, then the queued
  /// server batch; both fold into the manager under `cycle` and the overlay
  /// epoch retires.
  void Fold(Cycle cycle);

  /// Called with each transaction's id as it reaches the store, in store
  /// commit order (at Commit or ValidateUplink in direct mode, at Fold in
  /// pooled mode).
  void set_commit_observer(std::function<void(TxnId)> observer) {
    commit_observer_ = std::move(observer);
  }

  /// The commit clock: virtual time of the next server commit event.
  SimTime next_commit_time() const { return next_commit_time_; }

  /// Draws the next server transaction, commits it during `cycle` and
  /// advances the commit clock. Returns the transaction.
  ServerTxn CommitNext(Cycle cycle);

  /// Commits every server transaction whose commit event belongs to `cycle`
  /// under the boundary rule (cycles visited in ascending order), calling
  /// `on_commit(txn, time)` after each. For engines that keep no event queue.
  template <typename OnCommit>
  void CommitCycle(Cycle cycle, OnCommit&& on_commit) {
    while (PhaseOf(next_commit_time_, next_commit_pre_flip_, cycle_bits_) <= cycle) {
      const SimTime at = next_commit_time_;
      on_commit(CommitNext(cycle), at);
    }
  }

 private:
  ServerCycle() = default;
  Status Init(const SimConfig& config, Rng& root, bool uplink);

  void Publish(const std::vector<CommittedServerTxn>& committed, Cycle cycle);

  std::unique_ptr<ServerTxnManager> manager_;
  std::unique_ptr<BroadcastServer> server_;
  std::unique_ptr<ServerWorkload> workload_;
  /// Pooled mode only.
  std::unique_ptr<TxnProcessor> processor_;
  std::vector<ServerTxn> pending_server_txns_;
  /// Uplink mode only; the overlay and its queue in pooled mode only.
  std::unique_ptr<UpdateValidator> validator_;
  std::unique_ptr<McOverlay> overlay_;
  std::vector<ServerTxn> pending_uplink_txns_;
  std::function<void(TxnId)> commit_observer_;
  TraceRing* trace_ = nullptr;

  SimTime cycle_bits_ = 0;
  SimTime next_commit_time_ = 0;
  bool next_commit_pre_flip_ = false;
};

}  // namespace bcc

#endif  // BCC_SERVER_SERVER_CYCLE_H_
