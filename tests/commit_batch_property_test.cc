// Randomized oracle tests for the cycle-fused maintenance path (PR 5):
//   - FMatrix::ApplyCommitBatch over a cycle's commits is bit-identical to
//     applying ApplyCommit sequentially in the same order (DESIGN.md §4g);
//   - ServerTxnManager's lazy batch (flush on cycle advance or observation)
//     is indistinguishable from the per-commit oracle at every observation;
//   - copy-on-write snapshots equal deep copies taken at the same instant and
//     stay bit-identical under arbitrary later commits;
//   - per-cycle snapshot cost scales with touched columns, not n².

#include "common/cycle_stamp.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "matrix/f_matrix.h"
#include "per_commit_oracle.h"
#include "server/txn_manager.h"

namespace bcc {
namespace {

// A random read/write-set pair: empty, read-only, and write-only commits and
// duplicate write-set entries are all generated (duplicates are legal for the
// raw matrix op even though ServerTxn sets are duplicate-free).
CommitSets RandomCommit(Rng& rng, uint32_t n) {
  CommitSets c;
  const uint32_t max_set = n < 6 ? n : 6;
  c.read_set = rng.SampleWithoutReplacement(n, static_cast<uint32_t>(rng.NextBounded(max_set + 1)));
  c.write_set =
      rng.SampleWithoutReplacement(n, static_cast<uint32_t>(rng.NextBounded(max_set + 1)));
  if (!c.write_set.empty() && rng.NextBernoulli(0.25)) {
    c.write_set.push_back(c.write_set[rng.NextBounded(c.write_set.size())]);
  }
  return c;
}

std::vector<CommitSets> RandomBatch(Rng& rng, uint32_t n, uint32_t max_commits) {
  std::vector<CommitSets> batch(rng.NextBounded(max_commits + 1));
  for (CommitSets& c : batch) c = RandomCommit(rng, n);
  return batch;
}

// Warms both matrices identically so batches start from a non-trivial state.
void Warm(Rng& rng, FMatrix& a, FMatrix& b, uint32_t n, Cycle cycles) {
  for (Cycle cycle = 1; cycle <= cycles; ++cycle) {
    const CommitSets c = RandomCommit(rng, n);
    a.ApplyCommit(c.read_set, c.write_set, cycle);
    b.ApplyCommit(c.read_set, c.write_set, cycle);
  }
}

TEST(CommitBatchPropertyTest, BatchMatchesSequentialAcrossSeeds) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(seed);
    const uint32_t n = static_cast<uint32_t>(rng.NextInt(1, 64));
    FMatrix batched(n), sequential(n);
    Warm(rng, batched, sequential, n, rng.NextBounded(20));

    // Several consecutive cycles, each fused as one batch on one side and
    // replayed commit-by-commit on the other.
    Cycle cycle = 100;
    for (int round = 0; round < 4; ++round, ++cycle) {
      const std::vector<CommitSets> batch = RandomBatch(rng, n, 12);
      batched.ApplyCommitBatch(batch, cycle);
      for (const CommitSets& c : batch) {
        sequential.ApplyCommit(c.read_set, c.write_set, cycle);
      }
      ASSERT_TRUE(batched == sequential)
          << "seed " << seed << " n " << n << " cycle " << cycle << " batch of " << batch.size();
    }
  }
}

TEST(CommitBatchPropertyTest, BatchMatchesSequentialUnderWraparoundStamps) {
  // ts ∈ {2, 3}: absolute cycles run far past the 2^ts stamp window, so the
  // wire residues every entry would broadcast wrap repeatedly. Batch and
  // sequential maintenance must agree on the raw matrix AND on every encoded
  // residue at every cycle.
  for (const unsigned ts : {2u, 3u}) {
    const CycleStampCodec codec(ts);
    for (uint64_t seed = 0; seed < 10; ++seed) {
      Rng rng(0x1000 * ts + seed);
      const uint32_t n = static_cast<uint32_t>(rng.NextInt(2, 24));
      FMatrix batched(n), sequential(n);
      const Cycle last = 4 * codec.max_cycles();  // several full wraps
      for (Cycle cycle = 1; cycle <= last; ++cycle) {
        const std::vector<CommitSets> batch = RandomBatch(rng, n, 4);
        batched.ApplyCommitBatch(batch, cycle);
        for (const CommitSets& c : batch) {
          sequential.ApplyCommit(c.read_set, c.write_set, cycle);
        }
        ASSERT_TRUE(batched == sequential) << "ts " << ts << " seed " << seed << " cycle " << cycle;
        for (ObjectId j = 0; j < n; ++j) {
          for (ObjectId i = 0; i < n; ++i) {
            ASSERT_EQ(codec.Encode(batched.At(i, j)), codec.Encode(sequential.At(i, j)));
          }
        }
      }
    }
  }
}

TEST(CommitBatchPropertyTest, ManagerBatchingMatchesPerCommitOracle) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(0xbeef + seed);
    const uint32_t n = static_cast<uint32_t>(rng.NextInt(2, 32));
    ServerTxnManager batched(n);
    PerCommitOracle oracle(n);

    TxnId next_id = 1;
    Cycle cycle = 1;
    for (int step = 0; step < 120; ++step) {
      ServerTxn txn;
      txn.id = next_id++;
      const uint32_t max_set = n < 4 ? n : 4;
      txn.read_set =
          rng.SampleWithoutReplacement(n, 1 + static_cast<uint32_t>(rng.NextBounded(max_set)));
      txn.write_set =
          rng.SampleWithoutReplacement(n, 1 + static_cast<uint32_t>(rng.NextBounded(max_set)));
      batched.ExecuteAndCommit(txn, cycle);
      oracle.ExecuteAndCommit(txn, cycle);
      // Random mid-cycle observations: each forces the lazy batch to flush,
      // and must expose exactly the sequential-maintenance state.
      if (rng.NextBernoulli(0.2)) {
        ASSERT_TRUE(batched.f_matrix() == oracle.f_matrix()) << "seed " << seed << " step " << step;
      }
      if (rng.NextBernoulli(0.1)) {
        ASSERT_TRUE(batched.SnapshotControl() == oracle.f_matrix());
      }
      if (rng.NextBernoulli(0.3)) ++cycle;  // commits cluster randomly per cycle
    }
    EXPECT_TRUE(batched.f_matrix() == oracle.f_matrix()) << "seed " << seed;
    EXPECT_TRUE(batched.mc_vector() == oracle.mc_vector()) << "seed " << seed;
  }
}

TEST(CommitBatchPropertyTest, CoWSnapshotsEqualDeepCopiesUnderInterleavedCommits) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(0xc0de + seed);
    const uint32_t n = static_cast<uint32_t>(rng.NextInt(1, 48));
    FMatrix m(n);
    // Each snapshot is paired with a deep copy taken at the same instant; all
    // pairs must still match after every later mutation (CoW immutability).
    std::vector<std::pair<FMatrixSnapshot, FMatrix>> pinned;
    Cycle cycle = 1;
    for (int step = 0; step < 60; ++step) {
      if (rng.NextBernoulli(0.5)) {
        m.ApplyCommitBatch(RandomBatch(rng, n, 6), cycle++);
      } else {
        const CommitSets c = RandomCommit(rng, n);
        m.ApplyCommit(c.read_set, c.write_set, cycle++);
      }
      if (rng.NextBernoulli(0.3)) pinned.emplace_back(m.Snapshot(), m);
    }
    pinned.emplace_back(m.Snapshot(), m);
    for (const auto& [snap, deep] : pinned) {
      ASSERT_TRUE(snap == deep) << "seed " << seed;
      ASSERT_TRUE(snap.Materialize() == deep) << "seed " << seed;
    }
  }
}

TEST(CommitBatchPropertyTest, SnapshotCostScalesWithTouchedColumns) {
  const uint32_t n = 256;
  FMatrix m(n);
  Rng rng(42);
  const CommitSets warm = RandomCommit(rng, n);
  m.ApplyCommit(warm.read_set, warm.write_set, 1);
  (void)m.Snapshot();
  const uint64_t after_first = m.snapshot_columns_copied();
  EXPECT_EQ(after_first, n);  // first snapshot pays the full column count once

  // An unchanged matrix re-snapshots for free.
  (void)m.Snapshot();
  EXPECT_EQ(m.snapshot_columns_copied(), after_first);

  // Steady state: each cycle touches |union WS| columns and the next snapshot
  // copies exactly that many, independent of n.
  uint64_t copied = after_first;
  for (Cycle cycle = 2; cycle < 30; ++cycle) {
    std::vector<CommitSets> batch(3);
    std::vector<uint8_t> touched(n, 0);
    for (CommitSets& c : batch) {
      c.read_set = rng.SampleWithoutReplacement(n, 3);
      c.write_set = rng.SampleWithoutReplacement(n, 3);
      for (const ObjectId w : c.write_set) touched[w] = 1;
    }
    m.ApplyCommitBatch(batch, cycle);
    (void)m.Snapshot();
    uint64_t touched_count = 0;
    for (const uint8_t t : touched) touched_count += t;
    EXPECT_EQ(m.snapshot_columns_copied() - copied, touched_count) << "cycle " << cycle;
    copied = m.snapshot_columns_copied();
  }
}

}  // namespace
}  // namespace bcc
