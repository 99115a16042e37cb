// Steady-state metrics collection for the Section 4 experiments.

#ifndef BCC_SIM_METRICS_H_
#define BCC_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "channel/lossy_channel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "des/event_queue.h"
#include "matrix/control_info.h"
#include "obs/trace.h"

namespace bcc {

/// The observable outcome of one completed client transaction: the read
/// records of the final (committed or censored) attempt plus how many times
/// the transaction aborted and restarted on the way. Two engines that agree
/// on every TxnDecision of every client made identical commit/abort
/// decisions on identical data — the unit of the sequential-vs-concurrent
/// cross-check (see sim/concurrent_sim.h).
struct TxnDecision {
  std::vector<ReadRecord> reads;
  uint32_t restarts = 0;
  bool censored = false;

  friend bool operator==(const TxnDecision& a, const TxnDecision& b) {
    return a.reads == b.reads && a.restarts == b.restarts && a.censored == b.censored;
  }
};

/// One client's counters, kept by its transaction core (sim/client_txn.h)
/// and merged by the engine after the run. Counts commute, so merge order
/// is irrelevant; every abort attempt is counted, never warmup-filtered.
struct ClientTally {
  uint64_t completed = 0;
  uint64_t censored = 0;
  uint64_t restarts = 0;        ///< summed over completed transactions
  uint64_t update_commits = 0;  ///< uplink transactions accepted at validation
  uint64_t update_rejects = 0;  ///< uplink transactions rejected at validation
  uint64_t delta_stalls = 0;    ///< reads stalled on an unusable delta tracker
  AbortBreakdown abort_causes;
  /// Completion order; empty unless config.record_decisions.
  std::vector<TxnDecision> decisions;
};

/// Aggregated results of one simulation run. Response times are bit-units.
struct SimSummary {
  // Steady-state window (transactions after warmup).
  double mean_response_time = 0.0;
  double response_ci_half_width = 0.0;  ///< 95% CI half-width
  double response_p50 = 0.0;
  double response_p95 = 0.0;
  /// Paper's "Transaction Restart Ratio": mean number of aborts+restarts a
  /// transaction suffers before committing.
  double restart_ratio = 0.0;
  uint64_t measured_txns = 0;
  uint64_t total_txns = 0;
  uint64_t total_restarts = 0;

  uint64_t cycles_elapsed = 0;
  uint64_t server_commits = 0;
  SimTime sim_end_time = 0;
  /// Transactions force-completed by the censoring guard (0 in healthy
  /// runs; nonzero flags an off-the-chart configuration, as with Datacycle
  /// at client length 10 in the paper).
  uint64_t censored_txns = 0;

  // Cache extension counters.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  // Client update-transaction extension counters.
  uint64_t client_update_commits = 0;
  uint64_t client_update_rejects = 0;  ///< uplink validation failures

  // Snapshot+delta control broadcast counters (delta_broadcast mode).
  uint64_t delta_cycles = 0;           ///< cycles broadcast in delta mode
  uint64_t delta_refresh_cycles = 0;   ///< of which full refreshes
  uint64_t delta_control_bits = 0;     ///< control bits actually shipped
  uint64_t full_control_bits = 0;      ///< full-matrix baseline (n^2*ts/cycle)
  uint64_t delta_stall_waits = 0;      ///< reads stalled awaiting a refresh

  /// Lossy-channel counters summed over all clients (channel_broadcast mode;
  /// all-zero otherwise).
  ChannelStats channel;

  // Sparse control-matrix counters (matrix_mode == sparse; all-zero
  // otherwise).
  uint64_t matrix_nnz = 0;            ///< final explicit entries in the sparse matrix
  uint64_t matrix_cycles = 0;         ///< cycles with sparse control accounting
  uint64_t matrix_control_bits = 0;   ///< summed sparse control encoding, all cycles
  /// matrix_control_bits / 8 / matrix_cycles — the headline sublinearity
  /// figure of BENCH_10.json.
  double matrix_control_bytes_per_cycle = 0.0;
  uint64_t sparse_compaction_drops = 0;  ///< entries dropped by CompactModulo

  /// Per-cause abort breakdown over the whole run (not warmup-filtered, so
  /// two engines replaying the same decisions report identical tables).
  AbortBreakdown abort_causes;

  std::string ToString() const;
  /// Serializes every field (including the abort breakdown and channel
  /// counters) as a JSON object, for sim_cli --metrics-json.
  std::string ToJson() const;
};

/// Streaming collector fed by the simulator.
class SimMetrics {
 public:
  explicit SimMetrics(uint32_t warmup_txns) : warmup_txns_(warmup_txns) {}

  /// Records one committed client transaction.
  void RecordClientTxn(SimTime submit, SimTime commit, uint32_t restarts, bool censored);

  void RecordServerCommit() { ++server_commits_; }
  void RecordClientUpdateCommit() { ++client_update_commits_; }
  void RecordClientUpdateReject() { ++client_update_rejects_; }

  /// Accounts one delta-mode cycle's control block against the full-matrix
  /// baseline.
  void RecordDeltaCycle(bool refresh, uint64_t control_bits, uint64_t full_bits) {
    ++delta_cycles_;
    if (refresh) ++delta_refresh_cycles_;
    delta_control_bits_ += control_bits;
    full_control_bits_ += full_bits;
  }

  /// Accounts one cycle's sparse control encoding.
  void RecordMatrixCycle(uint64_t control_bits) {
    ++matrix_cycles_;
    matrix_control_bits_ += control_bits;
  }
  void RecordSparseCompaction(uint64_t dropped) { sparse_compaction_drops_ += dropped; }

  /// Folds one client's channel/receiver counters into the run totals.
  void AccumulateChannel(const ChannelStats& stats) { channel_.Accumulate(stats); }

  /// Folds one client's tally (abort causes, uplink outcomes, delta stalls)
  /// into the run totals; accepted uplinks also count as server commits.
  void AccumulateClient(const ClientTally& tally) {
    server_commits_ += tally.update_commits;
    client_update_commits_ += tally.update_commits;
    client_update_rejects_ += tally.update_rejects;
    delta_stall_waits_ += tally.delta_stalls;
    abort_causes_.Accumulate(tally.abort_causes);
  }

  /// Records one abort (or censoring) with its structured cause. Counted for
  /// every attempt of every transaction — never warmup-filtered — so the
  /// breakdown is part of the cross-engine bit-exactness contract.
  void RecordAbort(AbortCause cause) { abort_causes_.Record(cause); }
  const AbortBreakdown& abort_causes() const { return abort_causes_; }

  /// Quantile reservoir size: below this many measured transactions the
  /// p50/p95 are exact; beyond it they come from a deterministic
  /// fixed-seed Algorithm R sample (O(1) memory, engine-independent).
  static constexpr size_t kReservoirCapacity = 4096;

  uint64_t committed_client_txns() const { return total_txns_; }

  /// Finalizes the summary. `cycles` and `end_time` come from the sim.
  SimSummary Summarize(uint64_t cycles, SimTime end_time, uint64_t cache_hits,
                       uint64_t cache_misses) const;

 private:
  uint32_t warmup_txns_;
  uint64_t total_txns_ = 0;
  uint64_t server_commits_ = 0;
  uint64_t censored_ = 0;
  uint64_t total_restarts_measured_ = 0;
  uint64_t client_update_commits_ = 0;
  uint64_t client_update_rejects_ = 0;
  uint64_t delta_cycles_ = 0;
  uint64_t delta_refresh_cycles_ = 0;
  uint64_t delta_control_bits_ = 0;
  uint64_t full_control_bits_ = 0;
  uint64_t delta_stall_waits_ = 0;
  uint64_t matrix_cycles_ = 0;
  uint64_t matrix_control_bits_ = 0;
  uint64_t sparse_compaction_drops_ = 0;
  ChannelStats channel_;
  AbortBreakdown abort_causes_;
  StreamingStats response_;
  StreamingStats restarts_;
  // Response-time reservoir for quantiles (measured window only). Bounded at
  // kReservoirCapacity via Algorithm R; the replacement stream is seeded by a
  // fixed constant (never the workload seed) so the sample — and therefore
  // the reported quantiles — depend only on the sequence of recorded
  // responses, which both engines produce identically.
  std::vector<double> responses_;
  uint64_t reservoir_seen_ = 0;
  Rng reservoir_rng_{0x9d2c5680cafef00dull};
};

}  // namespace bcc

#endif  // BCC_SIM_METRICS_H_
