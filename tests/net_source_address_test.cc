// Source-address tests for the networked tier (label: net).
//
//   - Port-0 binds: every socket bound to 127.0.0.1:0 must get its own
//     ephemeral port. SO_REUSEADDR on such a bind lets Linux hand two live
//     sockets the same port, so a client's uplink could share a port with
//     another client's and receive its replies.
//   - STATS attribution: the daemon files a client's final STATS under the
//     address that sent HELLO, not under the client_index the datagram
//     claims. A sender that never registered cannot replace a real report.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
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
#include "sim/broadcast_sim.h"

namespace bcc {
namespace {

TEST(UdpSocketTest, PortZeroBindsGetDistinctPorts) {
  constexpr size_t kSockets = 1000;
  std::vector<std::unique_ptr<UdpSocket>> sockets;
  std::set<uint16_t> ports;
  for (size_t i = 0; i < kSockets; ++i) {
    auto sock = std::make_unique<UdpSocket>();
    ASSERT_TRUE(sock->Open().ok());
    ASSERT_TRUE(sock->Bind(Endpoint{"127.0.0.1", 0}).ok());
    const StatusOr<Endpoint> bound = sock->local_endpoint();
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ports.insert(bound->port);
    sockets.push_back(std::move(sock));  // held open until the end
  }
  EXPECT_EQ(ports.size(), kSockets) << "two live sockets share an ephemeral port";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(NetStatsAttributionTest, ForgedStatsFromUnregisteredAddressAreDropped) {
  SimConfig sim;
  sim.num_objects = 16;
  sim.object_size_bits = 2048;
  sim.seed = 7;
  sim.num_clients = 1;
  sim.stop_after_cycles = 12;
  sim.channel_broadcast = true;
  sim.use_wire_codec = true;

  BroadcastSim oracle(sim);
  ASSERT_TRUE(oracle.Run().ok());
  const CycleSnapshot& snap = oracle.final_snapshot();
  const CycleStampCodec codec(sim.timestamp_bits);
  const uint64_t expected = DigestMatrixResidues(snap.f_matrix, codec, DigestValues(snap.values));

  const std::string endpoint_file = ::testing::TempDir() + "/bcc_forged_stats.ep";
  ::unlink(endpoint_file.c_str());
  NetConfig server_net;
  server_net.listen = "127.0.0.1:0";
  server_net.endpoint_file = endpoint_file;
  server_net.expected_clients = 1;
  server_net.pace_cycles_per_sec = 100;
  server_net.max_wall_ms = 60000;
  ServerReport server_report;
  Status server_status = Status::OK();
  std::thread server([&] { server_status = RunServerDaemon(server_net, sim, &server_report); });

  std::string endpoint;
  for (int i = 0; i < 400 && endpoint.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    endpoint = ReadFile(endpoint_file);
  }
  while (!endpoint.empty() && (endpoint.back() == '\n' || endpoint.back() == '\r')) {
    endpoint.pop_back();
  }
  // No ASSERT until both threads are joined: a joinable std::thread that
  // goes out of scope ends the program.
  EXPECT_FALSE(endpoint.empty()) << "daemon never wrote its endpoint file";
  StatusOr<SockAddr> daemon_addr = Status::Internal("no daemon endpoint");
  if (const StatusOr<Endpoint> target = ParseEndpoint(endpoint); target.ok()) {
    daemon_addr = ResolveEndpoint(*target);
  }

  // The forger never says HELLO; it claims index 0 with a wrong digest every
  // 100 us until the session ends. The real STATS answers the daemon's
  // STATS_REQ, a loopback round trip later, so a forged one is queued
  // ahead of it. The flood stops after 3 s even if the session has not
  // ended: the daemon drains its socket until it is empty, so a build slower
  // than the flood (a sanitizer build) would otherwise never get past it.
  StatsMsg forged;
  forged.client_index = 0;
  forged.digest = ~expected;
  const std::vector<uint8_t> forged_bytes = EncodeStats(forged);
  std::atomic<bool> session_over{false};
  uint64_t forged_sent = 0;
  std::thread forger([&] {
    UdpSocket sock;
    if (!daemon_addr.ok() || !sock.Open().ok() || !sock.Bind(Endpoint{"127.0.0.1", 0}).ok()) {
      return;
    }
    const auto flood_end = std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (!session_over.load() && std::chrono::steady_clock::now() < flood_end) {
      if (sock.SendTo(forged_bytes, *daemon_addr).ok()) ++forged_sent;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  NetConfig client_net;
  client_net.connect = endpoint;
  client_net.client_id = 1;
  client_net.max_wall_ms = 60000;
  ClientReport client_report;
  const Status client_status = RunClientRuntime(client_net, sim, &client_report);
  server.join();
  session_over.store(true);
  forger.join();

  ASSERT_TRUE(server_status.ok()) << server_status.ToString();
  ASSERT_TRUE(client_status.ok()) << client_status.ToString();
  EXPECT_GT(forged_sent, 0u);
  EXPECT_EQ(server_report.digest, expected);
  EXPECT_EQ(client_report.digest, expected);
  ASSERT_EQ(server_report.clients.size(), 1u);
  EXPECT_EQ(server_report.clients[0].digest, expected);
}

}  // namespace
}  // namespace bcc
