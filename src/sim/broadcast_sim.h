// The closed-loop broadcast-disk simulation of Section 4.
//
// One server (update transactions completing at a fixed rate, executed
// serially) and one or more clients (read-only transactions reading "off
// the air", optionally update transactions committing over the uplink)
// share a simulated broadcast channel clocked in bit-units. Each cycle the
// server broadcasts every object followed by its control-information share;
// a client waits for an object's slot, validates the read against the
// cycle's control snapshot using the configured algorithm, and aborts/
// restarts on a failed read condition.
//
// The paper simulates exactly one client because read-only transactions
// never feed back into the server; with the client-update extension
// (client_update_fraction > 0) multiple clients do interact through the
// server's validator, so num_clients becomes meaningful.

#ifndef BCC_SIM_BROADCAST_SIM_H_
#define BCC_SIM_BROADCAST_SIM_H_

#include <memory>
#include <optional>
#include <vector>

#include "channel/lossy_channel.h"
#include "common/statusor.h"
#include "des/event_queue.h"
#include "history/history.h"
#include "matrix/group_matrix.h"
#include "obs/trace.h"
#include "server/server_cycle.h"
#include "sim/client_txn.h"
#include "sim/config.h"
#include "sim/metrics.h"

namespace bcc {

/// One simulation run. Construct, Run() once, then inspect.
class BroadcastSim {
 public:
  explicit BroadcastSim(SimConfig config);
  ~BroadcastSim();

  /// Executes the run to completion (num_client_txns transactions committed
  /// across all clients).
  StatusOr<SimSummary> Run();

  const SimConfig& config() const { return config_; }
  const ServerTxnManager& manager() const { return core_->manager(); }
  /// Per-client transaction decision logs, in completion order (empty
  /// unless config.record_decisions).
  const std::vector<std::vector<TxnDecision>>& decisions() const { return decisions_; }
  /// Aggregate cache counters across clients (0s when caching is off).
  uint64_t TotalCacheHits() const;
  uint64_t TotalCacheMisses() const;

  /// Reconstructs the paper-semantics global history of the run: per cycle,
  /// client reads (which observe the state at the beginning of the cycle)
  /// precede the server transactions committed during that cycle. Requires
  /// config.record_history.
  StatusOr<History> BuildOracleHistory() const;

  /// End-to-end consistency audit (requires config.record_history):
  ///   1. every value a committed client transaction read matches the
  ///      reads-from relation of the oracle history (currency + atomicity);
  ///   2. the oracle history passes APPROX (mutual consistency);
  ///   3. under Datacycle, the oracle history is conflict serializable.
  Status VerifyOracle() const;

  /// Delta-mode audit (requires config.delta_broadcast, after Run): every
  /// synced client tracker's reconstructed matrix must be entry-wise
  /// congruent mod 2^ts to the server's unbounded-cycle matrix of the final
  /// broadcast cycle — the invariant that makes delta-mode read decisions
  /// bit-identical to full-matrix broadcast. Desynced trackers (possible
  /// only via the delta_desync_at_cycle knob, or through real loss in
  /// channel mode) are skipped, as are channel-mode trackers whose final
  /// cycle's control block was lost.
  Status VerifyDeltaTrackers() const;

  /// One client's channel/receiver counters (requires channel_broadcast).
  const ChannelStats& ClientChannelStats(size_t c) const {
    return clients_[c]->receiver()->stats();
  }

  /// The final broadcast cycle's snapshot (valid after Run). The networked
  /// tier's loopback test digests this as the in-process oracle for the
  /// daemon's end state.
  const CycleSnapshot& final_snapshot() const { return core_->server().snapshot(); }

  /// Attaches an event tracer (not owned; must outlive the sim). Call before
  /// Run: tracks — "server" plus one per client — are registered during
  /// setup. Tracing is purely observational: it consumes no RNG draws and
  /// schedules no events, so enabling it never changes any decision.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  struct ClientTxnLog {
    TxnId id;
    std::vector<ReadRecord> reads;
    std::vector<ObjectVersion> values;
  };

  // Delta-mode per-cycle plumbing: diffs this cycle's snapshot against the
  // previous one into its DeltaControl and feeds it to every client's
  // tracker (directly, or through the receivers in channel mode).
  void AttachAndObserveDelta();

  // Sparse end-of-cycle control-plane step, run when cycle `ending`
  // closes: accounts the cycle's control footprint (matrix.nnz, control
  // bits) and runs scheduled sparse compaction. No-op in dense mode.
  void EndOfCycleMatrixStep(Cycle ending);

  // Channel-mode per-cycle plumbing: packetizes the cycle's broadcast and
  // delivers each client its independently-faulted copy.
  void TransmitCycle();

  // Event handlers (`c` = client index).
  void StartNextCycle();
  void ServerCommitEvent();
  /// Puts client `c`'s next event on the queue.
  void ScheduleClient(size_t c);
  /// Runs client `c`'s pending event; on a completion, records it in global
  /// completion order (metrics, oracle log) and checks the stop condition.
  void StepClient(size_t c);

  SimConfig config_;
  EventQueue queue_;

  std::unique_ptr<ServerCycle> core_;
  std::vector<std::unique_ptr<ClientTxn>> clients_;
  std::optional<FrameCodec> frame_codec_;   // channel mode
  std::unique_ptr<LossyChannel> channel_;   // channel mode
  // The encoded frame vector with its per-frame byte buffers, reused across
  // cycles so steady-state cycles allocate nothing (channel mode).
  std::vector<Frame> frame_scratch_;
  SimMetrics metrics_;
  Tracer* tracer_ = nullptr;        // not owned; null = tracing off

  uint32_t completed_txns_ = 0;
  TxnId next_client_update_id_ = 2 * kClientTxnIdBase;  // disjoint id range
  bool done_ = false;
  bool ran_ = false;

  // Oracle logs (committed read-only client transactions, all clients).
  std::vector<ClientTxnLog> oracle_client_txns_;

  // Per-client decision logs, gathered from the cores after the run
  // (config_.record_decisions only).
  std::vector<std::vector<TxnDecision>> decisions_;
};

/// Convenience: run one configuration and return its summary.
StatusOr<SimSummary> RunSimulation(const SimConfig& config);

/// One side of a differential check: a finished run's server state,
/// per-client decision logs and abort breakdown.
struct RunRecord {
  const char* label;
  const ServerTxnManager& manager;
  const std::vector<std::vector<TxnDecision>>& decisions;
  const AbortBreakdown& abort_causes;
};

/// The comparison every differential check shares (CrossCheck and
/// CrossCheckEngines): value-equal control matrices across
/// representations, equal MC vectors, stores and commit counts, equal abort
/// breakdowns and identical per-client decision logs. Returns Internal
/// naming the first divergence.
Status CompareRuns(const RunRecord& a, const RunRecord& b);

/// Forces the timing-independent cutoff every differential check relies on:
/// the cycle cutoff is the only stop condition (InvalidArgument naming
/// `name` when stop_after_cycles is 0), so both runs see the same prefix of
/// every client's transaction stream; record_decisions is forced on.
Status PrepareCrossCheck(SimConfig& config, const char* name);

/// The DES differential harness: runs `a` and `b` — two configurations that
/// must decide identically, e.g. dense vs sparse matrix, full vs delta
/// control, direct handoff vs a lossless channel — and verifies identical
/// per-client decision logs, server state and summaries (CompareRuns, and
/// every non-channel, non-matrix summary field; the delta accounting fields
/// only when both sides use the same control mode). Per side: a delta run
/// must pass VerifyDeltaTrackers and ship no more control bits than the
/// full-matrix baseline, and a channel with every fault rate at 0 must
/// report no drop, rejection, loss or stall. Both configs get the
/// PrepareCrossCheck cutoff (stop_after_cycles > 0 required). Rejects
/// sparse_compaction_period > 0 on either side: compaction is
/// conservative-safe (audited by VerifyOracle), not decision-identical.
/// Returns Internal naming the first divergence.
Status CrossCheck(SimConfig a, SimConfig b);

}  // namespace bcc

#endif  // BCC_SIM_BROADCAST_SIM_H_
