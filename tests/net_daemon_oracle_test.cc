// Daemon-vs-oracle tests (label: net): the real daemon engine and one client
// runtime run in-process over loopback UDP, and the daemon's commit count and
// state digest must equal the in-process BroadcastSim oracle's.
//
//   - Boundary commits: with a fixed server interval that is a multiple of
//     the cycle length, every commit lands exactly on a cycle boundary, where
//     the DES event order (not the timestamp alone) decides its cycle.
//   - Malformed uplinks: UPDATEs naming objects outside the session, writing
//     an object twice, or reading a future cycle are rejected before
//     validation and leave the server state untouched.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client_runtime.h"
#include "net/datagram.h"
#include "net/net_config.h"
#include "net/server_daemon.h"
#include "net/socket.h"
#include "net/state_digest.h"
#include "server/broadcast_server.h"
#include "sim/broadcast_sim.h"

namespace bcc {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The geometry the networked tier normalizes every config to.
SimConfig NetSim() {
  SimConfig sim;
  sim.num_objects = 16;
  sim.object_size_bits = 2048;
  sim.seed = 7;
  sim.num_clients = 1;
  sim.stop_after_cycles = 12;
  sim.channel_broadcast = true;
  sim.use_wire_codec = true;
  sim.algorithm = Algorithm::kFMatrix;
  return sim;
}

struct Oracle {
  uint64_t digest = 0;
  uint64_t server_commits = 0;
};

Oracle RunOracle(const SimConfig& sim) {
  BroadcastSim oracle(sim);
  const StatusOr<SimSummary> summary = oracle.Run();
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  const CycleSnapshot& snap = oracle.final_snapshot();
  EXPECT_EQ(snap.cycle, sim.stop_after_cycles);
  Oracle out;
  out.digest = DigestMatrixResidues(snap.f_matrix, CycleStampCodec(sim.timestamp_bits),
                                    DigestValues(snap.values));
  out.server_commits = summary.ok() ? summary->server_commits : 0;
  return out;
}

/// Runs the daemon and one client on threads. `before_clients` runs once the
/// daemon's uplink endpoint is known, before the client says HELLO.
void RunSession(const SimConfig& sim, const std::string& tag, ServerReport* server_report,
                ClientReport* client_report,
                const std::function<void(const std::string&)>& before_clients = {},
                bool server_metrics = false) {
  const std::string endpoint_file = ::testing::TempDir() + "/bcc_" + tag + ".ep";
  ::unlink(endpoint_file.c_str());
  NetConfig server_net;
  server_net.listen = "127.0.0.1:0";
  server_net.endpoint_file = endpoint_file;
  server_net.expected_clients = 1;
  server_net.pace_cycles_per_sec = 100;
  server_net.max_wall_ms = 60000;
  server_net.metrics = server_metrics;
  Status server_status = Status::OK();
  std::thread server([&] { server_status = RunServerDaemon(server_net, sim, server_report); });

  std::string endpoint;
  for (int i = 0; i < 400 && endpoint.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    endpoint = ReadFile(endpoint_file);
  }
  while (!endpoint.empty() && (endpoint.back() == '\n' || endpoint.back() == '\r')) {
    endpoint.pop_back();
  }
  EXPECT_FALSE(endpoint.empty()) << "daemon never wrote its endpoint file";
  if (!endpoint.empty() && before_clients) before_clients(endpoint);

  NetConfig client_net;
  client_net.connect = endpoint;
  client_net.client_id = 1;
  client_net.max_wall_ms = 60000;
  const Status client_status = RunClientRuntime(client_net, sim, client_report);
  server.join();
  EXPECT_TRUE(server_status.ok()) << server_status.ToString();
  EXPECT_TRUE(client_status.ok()) << client_status.ToString();
}

// Interval L puts every commit on a boundary whose flip was inserted at the
// same instant as the commit, after it; 2L and 3L insert the commit before
// the flip, so the DES commits it into the cycle that is ending. A strict
// `t < cycle * L` rule gets the latter wrong (5 commits instead of 6 at 2L).
TEST(NetDaemonOracleTest, BoundaryCommitsMatchTheDesOracle) {
  for (const uint64_t multiple : {1u, 2u, 3u}) {
    SCOPED_TRACE("server interval = " + std::to_string(multiple) + " cycle lengths");
    SimConfig sim = NetSim();
    sim.server_interval_exponential = false;
    sim.server_txn_interval =
        multiple * BroadcastServer(sim.num_objects, sim.Geometry()).CycleLengthBits();
    const Oracle oracle = RunOracle(sim);
    ASSERT_GT(oracle.server_commits, 0u);

    ServerReport server_report;
    ClientReport client_report;
    RunSession(sim, "boundary" + std::to_string(multiple), &server_report, &client_report);
    EXPECT_EQ(server_report.server_commits, oracle.server_commits);
    EXPECT_EQ(server_report.digest, oracle.digest);
    EXPECT_EQ(client_report.digest, oracle.digest);
  }
}

// The daemon's control plane in sparse representation, with full-matrix and
// snapshot+delta control: the on-air bytes and the end state are
// representation-independent, so the daemon's and the client's digests must
// equal the dense DES oracle's. Telemetry is on so the sparse-only matrix
// gauges run too.
TEST(NetDaemonOracleTest, SparseDaemonMatchesTheDenseOracle) {
  for (const bool delta : {false, true}) {
    SCOPED_TRACE(delta ? "delta control" : "full control");
    SimConfig sim = NetSim();
    sim.delta_broadcast = delta;
    sim.delta_refresh_period = 5;
    const Oracle oracle = RunOracle(sim);
    ASSERT_GT(oracle.server_commits, 0u);

    SimConfig sparse = sim;
    sparse.matrix_mode = MatrixMode::kSparse;
    ServerReport server_report;
    ClientReport client_report;
    RunSession(sparse, delta ? "sparse_delta" : "sparse_full", &server_report, &client_report,
               {}, /*server_metrics=*/true);
    EXPECT_EQ(server_report.server_commits, oracle.server_commits);
    EXPECT_EQ(server_report.digest, oracle.digest);
    EXPECT_EQ(client_report.digest, oracle.digest);
    EXPECT_NE(server_report.metrics_json.find("\"matrix.nnz\""), std::string::npos);
  }
}

TEST(NetDaemonOracleTest, MalformedUpdatesAreRejectedBeforeValidation) {
  const SimConfig sim = NetSim();
  const Oracle oracle = RunOracle(sim);

  std::vector<std::vector<uint8_t>> malformed;
  UpdateMsg future_read;  // no cycle has been broadcast yet
  future_read.seq = 1;
  future_read.reads = {ReadRecord{0, 5}};
  future_read.writes = {1};
  malformed.push_back(EncodeUpdate(future_read));
  UpdateMsg duplicate_write;
  duplicate_write.seq = 2;
  duplicate_write.writes = {3, 3};
  malformed.push_back(EncodeUpdate(duplicate_write));
  UpdateMsg out_of_range;
  out_of_range.seq = 3;
  out_of_range.writes = {0x7ffffff0};
  malformed.push_back(EncodeUpdate(out_of_range));
  EXPECT_EQ(malformed.back().size(), 19u);

  uint32_t replies = 0;
  uint32_t accepted = 0;
  ServerReport server_report;
  ClientReport client_report;
  RunSession(sim, "malformed", &server_report, &client_report, [&](const std::string& ep) {
    UdpSocket sock;
    ASSERT_TRUE(sock.Open().ok());
    ASSERT_TRUE(sock.Bind(Endpoint{"127.0.0.1", 0}).ok());
    const StatusOr<Endpoint> target = ParseEndpoint(ep);
    ASSERT_TRUE(target.ok());
    const StatusOr<SockAddr> addr = ResolveEndpoint(*target);
    ASSERT_TRUE(addr.ok());
    for (const std::vector<uint8_t>& d : malformed) ASSERT_TRUE(sock.SendTo(d, *addr).ok());
    for (int attempt = 0; attempt < 250 && replies < malformed.size(); ++attempt) {
      const StatusOr<std::vector<InDatagram>> batch = sock.RecvBatch(8, 65536);
      if (batch.ok()) {
        for (const InDatagram& d : *batch) {
          const StatusOr<UpdateReplyMsg> reply = DecodeUpdateReply(d.bytes);
          if (!reply.ok()) continue;
          ++replies;
          accepted += reply->accepted ? 1 : 0;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  EXPECT_EQ(replies, malformed.size());
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(server_report.uplink_malformed, malformed.size());
  EXPECT_EQ(server_report.uplink_accepts, 0u);
  EXPECT_EQ(server_report.digest, oracle.digest);
  EXPECT_EQ(client_report.digest, oracle.digest);
}

}  // namespace
}  // namespace bcc
