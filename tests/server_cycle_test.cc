#include "server/server_cycle.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/broadcast_sim.h"

namespace bcc {
namespace {

constexpr SimTime kL = 1000;  // cycle length for the boundary-rule cases

TEST(ServerCycleTest, BoundaryRuleFollowsDesInsertionOrder) {
  // Off a boundary the timestamp alone decides.
  EXPECT_FALSE(FiresBeforeFlip(kL + 5, 0, false, kL));
  EXPECT_EQ(PhaseOf(kL + 5, false, kL), 2u);
  // Inserted at t = 0 together with the flip at L, but after it.
  EXPECT_FALSE(FiresBeforeFlip(kL, 0, false, kL));
  EXPECT_EQ(PhaseOf(kL, false, kL), 2u);
  // Inserted at t = 0, before the flip at 2L (inserted at L): the commit
  // fires in the cycle that is ending.
  EXPECT_TRUE(FiresBeforeFlip(2 * kL, 0, false, kL));
  EXPECT_EQ(PhaseOf(2 * kL, true, kL), 2u);
  // Inserted at L by a parent that itself beat the flip at L.
  EXPECT_TRUE(FiresBeforeFlip(2 * kL, kL, true, kL));
  EXPECT_FALSE(FiresBeforeFlip(2 * kL, kL, false, kL));
}

SimConfig SmallConfig() {
  SimConfig config;
  config.num_objects = 16;
  config.object_size_bits = 2048;
  config.seed = 7;
  config.stop_after_cycles = 12;
  config.num_client_txns = 1u << 30;
  return config;
}

// The commit clock replays the DES commit stream: the same transactions in
// the same cycles, boundary ties included.
TEST(ServerCycleTest, CommitClockReproducesTheDesCommitStream) {
  for (const uint64_t multiple : {0u, 1u, 2u, 3u}) {
    SCOPED_TRACE("interval multiple " + std::to_string(multiple) + " (0 = exponential)");
    SimConfig config = SmallConfig();
    if (multiple > 0) {
      config.server_interval_exponential = false;
      config.server_txn_interval =
          multiple * BroadcastServer(config.num_objects, config.Geometry()).CycleLengthBits();
    }
    BroadcastSim sim(config);
    const StatusOr<SimSummary> summary = sim.Run();
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();

    Rng root(config.seed);
    StatusOr<std::unique_ptr<ServerCycle>> core = ServerCycle::Create(config, root, false);
    ASSERT_TRUE(core.ok()) << core.status().ToString();
    ServerCycle& cycle = **core;
    const SimTime length = cycle.server().CycleLengthBits();
    uint64_t commits = 0;
    for (Cycle c = 1; c <= config.stop_after_cycles; ++c) {
      cycle.BeginCycle(c, (c - 1) * length);
      cycle.CommitCycle(c, [&](const ServerTxn&, SimTime) { ++commits; });
      cycle.Fold(c);
    }
    EXPECT_EQ(commits, summary->server_commits);
    EXPECT_TRUE(cycle.manager().store().committed() == sim.manager().store().committed());
    EXPECT_TRUE(cycle.manager().f_matrix() == sim.manager().f_matrix());
    EXPECT_EQ(cycle.manager().commit_cycles(), sim.manager().commit_cycles());
  }
}

ServerTxn Txn(TxnId id, std::vector<ObjectId> reads, std::vector<ObjectId> writes) {
  ServerTxn txn;
  txn.id = id;
  txn.read_set = std::move(reads);
  txn.write_set = std::move(writes);
  return txn;
}

ClientUpdateRequest Uplink(TxnId id, std::vector<ReadRecord> reads, std::vector<ObjectId> writes) {
  ClientUpdateRequest request;
  request.id = id;
  request.reads = std::move(reads);
  request.writes = std::move(writes);
  return request;
}

TEST(ServerCycleTest, SequentialModeCommitsOnTheSpot) {
  Rng root(7);
  StatusOr<std::unique_ptr<ServerCycle>> core = ServerCycle::Create(SmallConfig(), root, true);
  ASSERT_TRUE(core.ok());
  ServerCycle& cycle = **core;
  std::vector<TxnId> order;
  cycle.set_commit_observer([&](TxnId id) { order.push_back(id); });

  cycle.Commit(Txn(1, {0}, {1}), 1);
  EXPECT_EQ(cycle.manager().num_committed(), 1u);
  EXPECT_EQ(cycle.manager().mc_vector().At(1), 1u);
  // Object 1 was overwritten in cycle 1, so a read of it at cycle 1 is stale.
  EXPECT_FALSE(cycle.ValidateUplink(Uplink(100, {{1, 1}}, {2}), 1));
  EXPECT_TRUE(cycle.ValidateUplink(Uplink(101, {{0, 1}}, {3}), 1));
  EXPECT_EQ(cycle.manager().num_committed(), 2u);
  cycle.Fold(1);
  EXPECT_EQ(order, (std::vector<TxnId>{1, 101}));
}

TEST(ServerCycleTest, PooledFoldRunsUplinkPrefixThenBatchThenRetiresTheOverlay) {
  SimConfig config = SmallConfig();
  config.update_scheme = UpdateScheme::kOcc;
  config.update_workers = 2;
  Rng root(config.seed);
  StatusOr<std::unique_ptr<ServerCycle>> core = ServerCycle::Create(config, root, true);
  ASSERT_TRUE(core.ok());
  ServerCycle& cycle = **core;
  std::vector<TxnId> order;
  cycle.set_commit_observer([&](TxnId id) { order.push_back(id); });

  cycle.Commit(Txn(1, {0}, {1}), 1);
  cycle.Commit(Txn(2, {4}, {5}), 1);
  // Nothing reaches the store before the fold, but the overlay already shows
  // the staged writes to the validator.
  EXPECT_EQ(cycle.manager().num_committed(), 0u);
  EXPECT_FALSE(cycle.ValidateUplink(Uplink(100, {{1, 1}}, {2}), 1));
  EXPECT_EQ(cycle.last_reject().ob_j, 1u);
  EXPECT_TRUE(cycle.ValidateUplink(Uplink(101, {{0, 1}}, {3}), 1));
  EXPECT_TRUE(order.empty());

  cycle.Fold(1);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 101u);  // the accepted uplink first, then the batch
  EXPECT_EQ(cycle.manager().num_committed(), 3u);
  EXPECT_EQ(cycle.manager().mc_vector().At(3), 1u);
  // The folded epoch is retired: a cycle-2 read of object 1 is current.
  EXPECT_TRUE(cycle.ValidateUplink(Uplink(102, {{1, 2}}, {6}), 2));
}

}  // namespace
}  // namespace bcc
