// Property suite for the sparse control-matrix tier (DESIGN.md §4l).
//
// The sparse matrix is a pure representation change, so its contract is
// bit-identity: across seeds, timestamp widths (including the ts = 2 and
// ts = 3 wraparound regimes), delta broadcast, and the lossy channel, every
// client decision, the final store, and the final control matrix must equal
// the dense oracle's exactly.

#include <gtest/gtest.h>

#include <vector>

#include "net/state_digest.h"
#include "sim/broadcast_sim.h"
#include "sim/concurrent_sim.h"

namespace bcc {
namespace {

// Small but conflict-rich: short cycles, write-heavy server stream, a shared
// hot range via the short object array. ~50 cycles keeps the 25-seed sweep
// (two full runs per seed) inside a few seconds.
SimConfig SmallSparseConfig() {
  SimConfig config;
  config.algorithm = Algorithm::kFMatrix;
  config.matrix_mode = MatrixMode::kSparse;
  config.num_objects = 24;
  config.object_size_bits = 64;
  config.client_txn_length = 3;
  config.server_txn_length = 4;
  config.server_txn_interval = 3000;
  config.mean_inter_op_delay = 800;
  config.mean_inter_txn_delay = 1500;
  config.num_client_txns = 1000000;  // cutoff comes from stop_after_cycles
  config.warmup_txns = 1;
  config.timestamp_bits = 8;
  config.stop_after_cycles = 50;
  return config;
}

// ---------------------------------------------------------------------------
// Sparse bit-identity vs the dense oracle
// ---------------------------------------------------------------------------

TEST(SparseParityTest, TwentyFiveSeedsBitIdenticalToDense) {
  // Seed sweep rotating the broadcast mode: plain full-matrix broadcast,
  // snapshot+delta, and delta over the lossy channel (real loss, so delta
  // desync/resync is exercised too — the sparse run replays the identical
  // seeded fault pattern because the frames are byte-identical).
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SimConfig config = SmallSparseConfig();
    config.seed = seed;
    switch (seed % 3) {
      case 0:
        break;
      case 1:
        config.delta_broadcast = true;
        config.delta_refresh_period = 8;
        break;
      case 2:
        config.delta_broadcast = true;
        config.delta_refresh_period = 8;
        config.channel_broadcast = true;
        config.channel_frame_bits = 512;
        config.channel_loss_rate = 0.05;
        break;
    }
    const Status status = CrossCheckSparseMode(config);
    EXPECT_TRUE(status.ok()) << "seed " << seed << ": " << status.ToString();
  }
}

TEST(SparseParityTest, WraparoundTinyStamps) {
  // ts = 2 and ts = 3 wrap the stamp window several times within the run;
  // the windowed decode is common to both representations, so decisions must
  // stay bit-identical through every wraparound.
  for (const unsigned ts_bits : {2u, 3u}) {
    const uint64_t window = uint64_t{1} << ts_bits;
    SimConfig config = SmallSparseConfig();
    config.num_objects = 12;
    config.client_txn_length = 2;
    config.timestamp_bits = ts_bits;
    config.stop_after_cycles = 6 * window;
    config.seed = 31 + ts_bits;
    const Status status = CrossCheckSparseMode(config);
    EXPECT_TRUE(status.ok()) << "ts=" << ts_bits << ": " << status.ToString();

    SimConfig delta = config;
    delta.delta_broadcast = true;
    delta.delta_refresh_period = window - 1;  // the legal maximum
    const Status delta_status = CrossCheckSparseMode(delta);
    EXPECT_TRUE(delta_status.ok()) << "ts=" << ts_bits << " delta: " << delta_status.ToString();
  }
}

TEST(SparseParityTest, ParityHoldsWithClientUpdates) {
  // Uplink update transactions mutate the manager mid-cycle; the sparse
  // incremental maintenance must track the dense path commit-for-commit.
  SimConfig config = SmallSparseConfig();
  config.num_clients = 3;
  config.client_update_fraction = 0.4;
  config.server_txn_length = 2;
  config.seed = 77;
  const Status status = CrossCheckSparseMode(config);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(SparseParityTest, CompactionIsConservativeAndAccounted) {
  // Compaction aliases stale entries upward; the server's dependency fold
  // then mixes aliased and in-window values, so a compacted run is
  // conservative-safe, NOT bit-identical to dense. The cross-check must
  // refuse it, and the end-to-end oracle audit is the correctness check:
  // every read a committed transaction performed is still consistent.
  SimConfig config = SmallSparseConfig();
  config.timestamp_bits = 4;
  config.stop_after_cycles = 120;
  config.sparse_compaction_period = 6;
  EXPECT_FALSE(CrossCheckSparseMode(config).ok())
      << "the cross-check must reject compacted runs (conservative, not identical)";

  for (const uint64_t seed : {9u, 33u}) {
    SimConfig run = config;
    run.seed = seed;
    run.record_history = true;
    BroadcastSim sim(run);
    const auto summary = sim.Run();
    ASSERT_TRUE(summary.ok()) << "seed " << seed << ": " << summary.status().ToString();
    EXPECT_GT(summary->sparse_compaction_drops, 0u)
        << "seed " << seed << ": compaction never dropped an entry; the property was vacuous";
    const Status oracle = sim.VerifyOracle();
    EXPECT_TRUE(oracle.ok()) << "seed " << seed << ": " << oracle.ToString();
  }
}

TEST(SparseParityTest, FinalDigestsMatchDense) {
  // The networked tier's end-state digest (values + ts-bit matrix residues)
  // must be representation-independent, so a sparse daemon can be audited
  // against a dense in-process oracle.
  SimConfig sparse = SmallSparseConfig();
  sparse.seed = 13;
  SimConfig dense = sparse;
  dense.matrix_mode = MatrixMode::kDense;

  BroadcastSim sparse_sim(sparse);
  ASSERT_TRUE(sparse_sim.Run().ok());
  BroadcastSim dense_sim(dense);
  ASSERT_TRUE(dense_sim.Run().ok());

  const CycleStampCodec codec(sparse.timestamp_bits);
  const uint64_t sparse_digest =
      DigestMatrixResidues(sparse_sim.manager().sparse_f_matrix(), codec);
  const uint64_t dense_digest = DigestMatrixResidues(dense_sim.manager().f_matrix(), codec);
  EXPECT_EQ(sparse_digest, dense_digest);
}

TEST(SparseConcurrentTest, EnginesAgreeInSparseMode) {
  // The cross-engine contract (sequential DES vs epoch-threaded engine)
  // holds with the sparse representation on both sides.
  for (const uint64_t seed : {7u, 13u}) {
    SimConfig config = SmallSparseConfig();
    config.num_clients = 2;
    config.seed = seed;
    const Status status = CrossCheckEngines(config);
    EXPECT_TRUE(status.ok()) << "seed " << seed << ": " << status.ToString();
  }
}

// ---------------------------------------------------------------------------
// Sparse accounting
// ---------------------------------------------------------------------------

TEST(SparseModeTest, ReportsFootprintAndPassesOracle) {
  SimConfig config = SmallSparseConfig();
  config.record_history = true;
  config.stop_after_cycles = 0;
  config.num_client_txns = 300;
  config.seed = 4;
  BroadcastSim sim(config);
  const auto summary = sim.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->matrix_nnz, 0u);
  // The final cycle may still be open when the txn-count cutoff fires, so
  // the accounting can trail the elapsed count by at most one.
  EXPECT_GE(summary->matrix_cycles + 1, summary->cycles_elapsed);
  EXPECT_LE(summary->matrix_cycles, summary->cycles_elapsed);
  EXPECT_GT(summary->matrix_control_bytes_per_cycle, 0.0);
  EXPECT_LE(summary->matrix_nnz,
            static_cast<uint64_t>(config.num_objects) * config.num_objects);
  EXPECT_TRUE(sim.VerifyOracle().ok());
}

// ---------------------------------------------------------------------------
// Mode plumbing and validation
// ---------------------------------------------------------------------------

TEST(MatrixModeConfigTest, ParseMatrixOptionRoundTrips) {
  SimConfig config;
  ASSERT_TRUE(ParseMatrixOption("sparse", &config).ok());
  EXPECT_EQ(config.matrix_mode, MatrixMode::kSparse);
  ASSERT_TRUE(ParseMatrixOption("dense", &config).ok());
  EXPECT_EQ(config.matrix_mode, MatrixMode::kDense);
  ASSERT_TRUE(ParseMatrixOption("group:8", &config).ok());
  EXPECT_EQ(config.num_groups, 8u);
  EXPECT_FALSE(ParseMatrixOption("group:", &config).ok());
  EXPECT_FALSE(ParseMatrixOption("group:x", &config).ok());
  EXPECT_FALSE(ParseMatrixOption("banana", &config).ok());
  // The retired hierarchical mode is an unknown spelling like any other.
  const Status hier = ParseMatrixOption("hier", &config);
  EXPECT_TRUE(hier.IsInvalidArgument());
  EXPECT_EQ(hier.message(), "--matrix must be one of dense, sparse, group:<g>");
}

TEST(MatrixModeConfigTest, ValidateRejectsUnsupportedCombinations) {
  SimConfig sparse = SmallSparseConfig();
  sparse.enable_cache = true;
  sparse.cache_currency_bound = 100000;
  EXPECT_FALSE(sparse.Validate().ok()) << "sparse + cache must be rejected";

  SimConfig compaction = SmallSparseConfig();
  compaction.sparse_compaction_period = 4;
  compaction.use_wire_codec = false;
  EXPECT_FALSE(compaction.Validate().ok()) << "compaction requires the wire codec";
}

TEST(MatrixModeConfigTest, ConcurrentSimRejectsCompaction) {
  SimConfig compaction = SmallSparseConfig();
  compaction.sparse_compaction_period = 4;
  ASSERT_TRUE(compaction.Validate().ok());
  ConcurrentSim compaction_sim(compaction);
  EXPECT_FALSE(compaction_sim.Run().ok());
}

}  // namespace
}  // namespace bcc
