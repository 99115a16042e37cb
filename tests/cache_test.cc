#include "client/cache.h"

#include <gtest/gtest.h>

#include "client/read_txn.h"

namespace bcc {
namespace {

CacheEntry MakeEntry(uint64_t value, Cycle cycle, SimTime cached_time) {
  CacheEntry e;
  e.version = ObjectVersion{value, 1, cycle};
  e.cycle = cycle;
  e.cached_time = cached_time;
  e.mc_entry = cycle;
  return e;
}

TEST(QuasiCacheTest, MissOnEmpty) {
  QuasiCache cache(0, 1000);
  EXPECT_FALSE(cache.Lookup(0, 0).has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(QuasiCacheTest, HitWithinCurrencyBound) {
  QuasiCache cache(0, 1000);
  cache.Insert(3, MakeEntry(7, 2, 100));
  auto hit = cache.Lookup(3, 1100);  // age 1000 == bound: still fresh
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->version.value, 7u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(QuasiCacheTest, StaleEntriesDropLocally) {
  QuasiCache cache(0, 1000);
  cache.Insert(3, MakeEntry(7, 2, 100));
  EXPECT_FALSE(cache.Lookup(3, 1101).has_value());  // age 1001 > T
  EXPECT_EQ(cache.stale_drops(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QuasiCacheTest, PerObjectCurrencyBounds) {
  QuasiCache cache(0, 1000);
  cache.SetCurrencyBound(5, 50);
  cache.Insert(5, MakeEntry(1, 1, 0));
  cache.Insert(6, MakeEntry(2, 1, 0));
  EXPECT_FALSE(cache.Lookup(5, 100).has_value());  // tight bound
  EXPECT_TRUE(cache.Lookup(6, 100).has_value());   // default bound
}

TEST(QuasiCacheTest, LruEvictionAtCapacity) {
  QuasiCache cache(2, 1000000);
  cache.Insert(0, MakeEntry(1, 1, 0));
  cache.Insert(1, MakeEntry(2, 1, 0));
  ASSERT_TRUE(cache.Lookup(0, 1).has_value());  // touch 0: 1 becomes LRU
  cache.Insert(2, MakeEntry(3, 1, 0));          // evicts 1
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Lookup(0, 2).has_value());
  EXPECT_FALSE(cache.Lookup(1, 2).has_value());
  EXPECT_TRUE(cache.Lookup(2, 2).has_value());
}

TEST(QuasiCacheTest, InsertOverwritesInPlace) {
  QuasiCache cache(2, 1000000);
  cache.Insert(0, MakeEntry(1, 1, 0));
  cache.Insert(0, MakeEntry(9, 3, 10));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup(0, 11);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->version.value, 9u);
  EXPECT_EQ(hit->cycle, 3u);
}

TEST(QuasiCacheTest, ClearResetsContents) {
  QuasiCache cache(0, 1000);
  cache.Insert(0, MakeEntry(1, 1, 0));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(0, 1).has_value());
}

// Cache-served reads through the protocol (Section 3.3 semantics).
class CachedReadTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kObjects = 4;

  CachedReadTest()
      : mgr_(kObjects),
        server_(kObjects, ComputeGeometry(Algorithm::kFMatrix, kObjects, 100, 8)) {}

  const CycleSnapshot& Snap(Cycle c) {
    server_.BeginCycle(c, c * 1000, mgr_);
    return server_.snapshot();
  }

  CacheEntry EntryFor(ObjectId ob, const CycleSnapshot& snap) {
    CacheEntry e;
    e.version = snap.values[ob];
    e.cycle = snap.cycle;
    e.cached_time = snap.start_time;
    std::vector<Cycle> scratch;
    const auto col = snap.f_matrix.Column(ob, scratch);
    e.column.assign(col.begin(), col.end());
    e.mc_entry = snap.mc_vector.At(ob);
    return e;
  }

  ServerTxnManager mgr_;
  BroadcastServer server_;
};

TEST_F(CachedReadTest, FMatrixCachedReadValidatesAgainstStoredColumn) {
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 1);
  const CacheEntry cached = EntryFor(0, Snap(2));  // cache ob0 at cycle 2

  // Later transaction reads fresh ob1 at cycle 5, then the cached ob0.
  mgr_.ExecuteAndCommit(ServerTxn{2, {}, {1}}, 3);
  ReadOnlyTxnProtocol p(Algorithm::kFMatrix);
  const CycleSnapshot& now = Snap(5);
  ASSERT_TRUE(p.Read(now, 1).ok());
  auto v = p.ReadFromCache(cached, 0, now);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->writer, 1u);
  // The cached read is recorded at its cached cycle.
  EXPECT_EQ(p.reads().back().cycle, 2u);
}

TEST_F(CachedReadTest, FMatrixCachedReadAbortsOnDependency) {
  // Cache ob1 at cycle 4 whose value depends on an overwrite of ob0 that
  // happened after the transaction read ob0.
  ReadOnlyTxnProtocol p(Algorithm::kFMatrix);
  ASSERT_TRUE(p.Read(Snap(1), 0).ok());          // read ob0 at cycle 1
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 1);   // overwrite ob0
  mgr_.ExecuteAndCommit(ServerTxn{2, {0}, {1}}, 2);  // ob1 depends on it
  const CacheEntry cached = EntryFor(1, Snap(4));
  EXPECT_TRUE(p.ReadFromCache(cached, 1, Snap(5)).status().IsAborted());
}

TEST_F(CachedReadTest, RMatrixCachedReadUsesStoredEntry) {
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {2}}, 1);
  const CacheEntry cached = EntryFor(2, Snap(2));
  ReadOnlyTxnProtocol p(Algorithm::kRMatrix);
  // Fresh read at cycle 6 first.
  mgr_.ExecuteAndCommit(ServerTxn{2, {}, {3}}, 4);
  const CycleSnapshot& now = Snap(6);
  ASSERT_TRUE(p.Read(now, 0).ok());
  // ob2 is unchanged since it was cached (current MC(2)=1 < cached cycle 2)
  // and nothing we read was overwritten: the cached read is served and is
  // recorded as a fresh read at the current cycle.
  auto v = p.ReadFromCache(cached, 2, now);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(p.reads().back().cycle, 6u);
}

TEST_F(CachedReadTest, RMatrixRejectsStaleCachedValue) {
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {2}}, 1);
  const CacheEntry cached = EntryFor(2, Snap(2));
  // ob2 is overwritten after caching: the reduced vector cannot vouch for
  // the stale value, so the cached read must be refused.
  mgr_.ExecuteAndCommit(ServerTxn{2, {}, {2}}, 3);
  ReadOnlyTxnProtocol p(Algorithm::kRMatrix);
  EXPECT_TRUE(p.ReadFromCache(cached, 2, Snap(5)).status().IsAborted());
}

TEST_F(CachedReadTest, FMatrixStaleCachedReadAfterFreshReadChecksReverseDirection) {
  // The fresh read's value depends on a write to the cached object that
  // happened AFTER the cached cycle: serving the stale cache entry would
  // create a cycle, so the protocol must refuse even though the paper's
  // forward condition alone would pass.
  const CacheEntry cached = EntryFor(0, Snap(1));        // ob0 as of cycle 1
  mgr_.ExecuteAndCommit(ServerTxn{1, {}, {0}}, 2);       // ob0 overwritten
  mgr_.ExecuteAndCommit(ServerTxn{2, {0}, {1}}, 3);      // ob1 depends on it
  ReadOnlyTxnProtocol p(Algorithm::kFMatrix);
  ASSERT_TRUE(p.Read(Snap(5), 1).ok());                  // fresh ob1
  EXPECT_TRUE(p.ReadFromCache(cached, 0, Snap(5)).status().IsAborted());
}

TEST_F(CachedReadTest, DatacycleRejectsCacheReads) {
  const CacheEntry cached = EntryFor(0, Snap(1));
  ReadOnlyTxnProtocol p(Algorithm::kDatacycle);
  EXPECT_TRUE(p.ReadFromCache(cached, 0, Snap(2)).status().IsAborted());
}

}  // namespace
}  // namespace bcc
