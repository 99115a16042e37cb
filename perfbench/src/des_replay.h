// The benchmark's own composition of the Section 4 simulation.
//
// BroadcastSim runs a whole simulation inside one call, so its layers cannot
// be timed from outside. This replay runs the same event loop from the
// public pieces BroadcastSim is built from — ServerWorkload, ClientWorkload,
// ServerTxnManager, BroadcastServer, ReadOnlyTxnProtocol, UpdateValidator,
// McOverlay, TxnProcessor — in the same event order and with the same RNG
// split, and wraps every layer call in a span. With the sequential server it
// reaches exactly BroadcastSim's end state (same digest, same abort causes,
// same response times); the benchmark checks that on every run.
//
// Supported: F-Matrix, dense control matrix, direct in-process broadcast
// (no cache, delta, channel, multi-speed disk or groups), sequential or
// pooled server, read-only and uplink update clients.
#ifndef BCCBENCH_DES_REPLAY_H_
#define BCCBENCH_DES_REPLAY_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "obs/trace.h"
#include "server/broadcast_server.h"
#include "sim/config.h"
#include "spans.h"

namespace bccbench {

struct DesResult {
  uint64_t digest = 0;  ///< final snapshot (values + matrix residues)
  uint64_t cycles = 0;
  uint64_t server_commits = 0;  ///< workload commits + accepted uplinks
  uint64_t client_txns = 0;     ///< completed, censored included
  uint64_t censored = 0;
  bcc::AbortBreakdown aborts;
  /// Post-warmup response times in bit-units, in completion order.
  std::vector<double> responses;
  /// Mean restarts per post-warmup transaction (the paper's ratio).
  double restart_ratio = 0;
  uint64_t uplink_accepts = 0;
  uint64_t uplink_rejects = 0;
  uint64_t broadcast_reads = 0;  ///< successful ReadOnlyTxnProtocol::Read calls
  uint64_t touched_columns = 0;  ///< sum over cycles of distinct written columns
  uint64_t snapshot_columns_copied = 0;
  /// Wall time of the simulation itself: set-up through the final fold,
  /// without the serializability check.
  double run_s = 0;
};

/// Runs `config` (which must set stop_after_cycles) through the composition.
/// Pooled runs also check every committed batch with VerifySerializable.
bcc::StatusOr<DesResult> RunDesComposition(const bcc::SimConfig& config, SpanLog& spans);

/// Digest of a cycle snapshot's values and dense matrix residues, the same
/// digest the networked tier compares (net/state_digest.h).
uint64_t SnapshotDigest(const bcc::CycleSnapshot& snap, unsigned timestamp_bits);

}  // namespace bccbench

#endif  // BCCBENCH_DES_REPLAY_H_
