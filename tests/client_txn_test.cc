// The client transaction core (sim/client_txn.h): its slot-timing rule,
// its abort attribution, and the one trace emission both in-process engines
// share.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "server/broadcast_server.h"
#include "sim/broadcast_sim.h"
#include "sim/client_txn.h"
#include "sim/concurrent_sim.h"

namespace bcc {
namespace {

TEST(ClientTxnTest, NextReadEndWaitsForTheSlotOrWrapsToTheNextCycle) {
  // Four slots of 100 bits starting at t = 1000: object 2's slot ends at 1300.
  const BroadcastSchedule flat = BroadcastSchedule::Flat(4);
  EXPECT_EQ(NextReadEnd(flat, 100, 1000, 2, 1000), 1300u);
  EXPECT_EQ(NextReadEnd(flat, 100, 1000, 2, 1300), 1300u);  // ends exactly now
  // Past object 2's slot: its slot in the next cycle (starting at 1400).
  EXPECT_EQ(NextReadEnd(flat, 100, 1000, 2, 1301), 1700u);
  // A hot object appearing twice per cycle catches its second appearance.
  const StatusOr<BroadcastSchedule> hot = BroadcastSchedule::FromFrequencies({2, 1, 1});
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();
  const std::vector<uint32_t>& slots = hot->SlotsOf(0);
  ASSERT_EQ(slots.size(), 2u);
  const SimTime after_first = static_cast<SimTime>(slots[0] + 1) * 100 + 1;
  EXPECT_EQ(NextReadEnd(*hot, 100, 0, 0, after_first), static_cast<SimTime>(slots[1] + 1) * 100);
}

TEST(ClientTxnTest, BroadcastServerNextSlotEndForwardsWithinTheCycle) {
  SimConfig config;
  config.num_objects = 8;
  config.object_size_bits = 256;
  BroadcastServer server(config.num_objects, config.Geometry());
  ServerTxnManager manager(config.num_objects, TxnManagerOptions{});
  server.BeginCycle(1, 0, manager);
  const SimTime slot = config.Geometry().slot_bits;
  for (ObjectId ob = 0; ob < config.num_objects; ++ob) {
    for (SimTime at = 0; at <= server.CycleEndTime(); at += slot / 2) {
      const SimTime end = NextReadEnd(server.schedule(), slot, 0, ob, at);
      const std::optional<SimTime> in_cycle = server.NextSlotEnd(ob, at);
      if (end <= server.CycleEndTime()) {
        ASSERT_TRUE(in_cycle.has_value()) << "ob" << ob << " at " << at;
        EXPECT_EQ(*in_cycle, end);
      } else {
        EXPECT_FALSE(in_cycle.has_value()) << "ob" << ob << " at " << at;
      }
    }
  }
}

TEST(ClientTxnTest, AbortAttributionPrefersLossThenDesyncThenTheProtocol) {
  const AbortInfo conflict{AbortCause::kControlConflict, 1, 2, 3, 4};
  EXPECT_EQ(AttributeAbort(conflict, false, false), conflict);
  AbortInfo loss = conflict;
  loss.cause = AbortCause::kChannelLoss;
  EXPECT_EQ(AttributeAbort(conflict, true, false), loss);
  EXPECT_EQ(AttributeAbort(conflict, true, true), loss);
  AbortInfo desync = conflict;
  desync.cause = AbortCause::kDesyncStall;
  EXPECT_EQ(AttributeAbort(conflict, false, true), desync);
}

TEST(ClientTxnTest, CheckReadStallInDirectMode) {
  EXPECT_EQ(CheckReadStall(nullptr, nullptr, 0, 1), ReadStall::kNone);
  DeltaMatrixTracker tracker(4, CycleStampCodec(8));
  // A tracker that has never observed a control block cannot vouch for any
  // cycle.
  EXPECT_EQ(CheckReadStall(&tracker, nullptr, 0, 1), ReadStall::kDeltaDesync);
}

// The concurrent engine's cross-check shape (multi-client, cycle cutoff),
// as in obs_sim_test.
SimConfig EpochConfig(uint64_t seed) {
  SimConfig config;
  config.algorithm = Algorithm::kFMatrix;
  config.num_objects = 16;
  config.object_size_bits = 256;
  config.client_txn_length = 3;
  config.server_txn_length = 4;
  config.server_txn_interval = 1500;
  config.mean_inter_op_delay = 512;
  config.mean_inter_txn_delay = 1024;
  config.num_clients = 4;
  config.seed = seed;
  config.stop_after_cycles = 40;
  config.num_client_txns = std::numeric_limits<uint32_t>::max();
  config.warmup_txns = 1;
  return config;
}

void ExpectSameTracks(const Tracer& des, const Tracer& conc, const std::string& run) {
  ASSERT_EQ(des.num_tracks(), conc.num_tracks()) << run;
  for (size_t t = 0; t < des.num_tracks(); ++t) {
    const std::string where = run + " track " + des.track_name(t);
    EXPECT_EQ(des.track_name(t), conc.track_name(t)) << where;
    EXPECT_EQ(des.track(t).dropped(), 0u) << where << ": ring too small to compare";
    const std::vector<TraceEvent> a = des.track(t).Snapshot();
    const std::vector<TraceEvent> b = conc.track(t).Snapshot();
    ASSERT_EQ(a.size(), b.size()) << where;
    for (size_t i = 0; i < a.size(); ++i) {
      const std::string at = where + " event " + std::to_string(i);
      ASSERT_EQ(TraceEventTypeName(a[i].type), TraceEventTypeName(b[i].type)) << at;
      ASSERT_EQ(a[i].time, b[i].time) << at;
      ASSERT_EQ(a[i].cycle, b[i].cycle) << at;
      ASSERT_EQ(a[i].object, b[i].object) << at;
      ASSERT_EQ(a[i].value, b[i].value) << at;
      ASSERT_EQ(a[i].duration, b[i].duration) << at;
      ASSERT_EQ(a[i].abort, b[i].abort) << at;
    }
  }
}

// Named ConcurrentSim* so the TSan CI job (ctest -R 'ConcurrentSim') runs it
// under the race detector.
TEST(ConcurrentSimTraceTest, ClientTracksMatchTheDesEventForEvent) {
  struct Mode {
    const char* name;
    bool channel;
    double loss;
  };
  const Mode modes[] = {{"direct", false, 0.0}, {"lossless", true, 0.0}, {"loss5", true, 0.05}};
  for (const uint64_t seed : {7u, 11u, 1234u}) {
    for (const Mode& mode : modes) {
      SimConfig config = EpochConfig(seed);
      config.channel_broadcast = mode.channel;
      config.channel_loss_rate = mode.loss;
      const std::string run = std::string(mode.name) + " seed " + std::to_string(seed);

      Tracer des_tracer(/*capacity_per_track=*/1 << 15);
      BroadcastSim des(config);
      des.set_tracer(&des_tracer);
      ASSERT_TRUE(des.Run().ok()) << run;

      Tracer conc_tracer(/*capacity_per_track=*/1 << 15);
      ConcurrentSim conc(config);
      conc.set_tracer(&conc_tracer);
      ASSERT_TRUE(conc.Run().ok()) << run;

      EXPECT_GT(des_tracer.TotalRecorded(), 0u) << run;
      ExpectSameTracks(des_tracer, conc_tracer, run);
    }
  }
}

}  // namespace
}  // namespace bcc
