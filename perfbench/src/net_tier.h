// Networked-tier harness for the net_table1 workload.
//
// NetSession runs the real engines — RunServerDaemon plus one
// RunClientRuntime per client, each on its own thread, over 127.0.0.1 UDP —
// and measures them from outside: a poller thread sends METRICS_REQ to the
// daemon (answered even with telemetry off) to learn when the HELLO barrier
// ends and which cycle is on the air, and reads each engine thread's CPU
// clock at the same instants. Set-up, the broadcast phase and the final
// STATS collection are thereby timed apart.
//
// RunNetComposition drives the same seeded inputs through the tier's public
// entry points on one thread — commit replay, snapshot, frame encode,
// datagram pack, sendmmsg to one socket per client, recvmmsg + decode,
// ChannelReceiver ingest and the client read slots — with a span around
// every call, for the traced run's per-layer breakdown.
#ifndef BCCBENCH_NET_TIER_H_
#define BCCBENCH_NET_TIER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/statusor.h"
#include "net/client_runtime.h"
#include "net/server_daemon.h"
#include "obs/trace.h"
#include "sim/config.h"
#include "spans.h"

namespace bccbench {

struct NetWorkload {
  bcc::SimConfig sim;  ///< Table 1 geometry; num_clients and stop_after_cycles set
  double pace_cycles_per_sec = 6.0;
  uint32_t txns_per_cycle = 32;
  uint32_t dgram_bytes = 1400;
  std::string run_dir;  ///< writable directory for the daemon's endpoint file
};

struct NetSessionResult {
  double setup_s = 0;          ///< launch until the HELLO barrier released cycle 1
  uint64_t window_cycles = 0;  ///< broadcast cycles inside the measured window
  double window_s = 0;
  double serverd_cpu_s_per_cycle = 0;          ///< daemon thread CPU, median segment
  std::vector<double> client_cpu_s_per_cycle;  ///< per client thread, the same
  bcc::ServerReport server;
  std::vector<bcc::ClientReport> clients;
};

/// One daemon + clients session. The engine threads write into this object,
/// so it joins them all before it is destroyed.
class NetSession {
 public:
  explicit NetSession(const NetWorkload& workload) : w_(workload) {}
  ~NetSession() { Join(); }
  NetSession(const NetSession&) = delete;
  NetSession& operator=(const NetSession&) = delete;

  /// Launches the daemon and client threads and times set-up; with
  /// `measure_broadcast` also the broadcast window. Returns once the daemon
  /// has finished. The clients linger about a second after their final
  /// STATS; Finish waits for them.
  bcc::Status Run(bool measure_broadcast);

  /// Joins the client threads; returns the first engine error.
  bcc::Status Finish();

  /// setup_s and the window are valid after Run, the reports after Finish.
  const NetSessionResult& result() const { return out_; }

  /// True when Run failed because two of the process's UDP sockets were
  /// bound to the same ephemeral port (UdpSocket::Bind sets SO_REUSEADDR
  /// before it binds port 0). Such a session cannot pass its HELLO barrier.
  bool port_collision() const { return port_collision_; }

 private:
  void Join();

  const NetWorkload w_;
  NetSessionResult out_;
  std::string endpoint_;
  bcc::Status server_status_;
  std::vector<bcc::Status> client_status_;
  std::atomic<bool> daemon_done_{false};
  bool port_collision_ = false;
  std::vector<std::thread> threads_;  // [0] is the daemon
};

struct NetCompositionResult {
  uint64_t server_digest = 0;
  std::vector<uint64_t> client_digests;
  uint64_t cycles = 0;
  uint64_t frames = 0;      ///< frames encoded, summed over cycles
  uint64_t datagrams = 0;   ///< datagrams handed to sendmmsg (all clients)
  uint64_t wire_bytes = 0;  ///< bytes handed to sendmmsg (all clients)
  uint64_t server_commits = 0;
  uint64_t touched_columns = 0;
  uint64_t snapshot_columns_copied = 0;
  uint64_t reads = 0;  ///< successful reads, all clients
  uint64_t client_commits = 0;
  bcc::AbortBreakdown aborts;
  double thread_cpu_s = 0;  ///< CPU of the whole composition
};

bcc::StatusOr<NetCompositionResult> RunNetComposition(const NetWorkload& workload,
                                                      SpanLog& spans);

}  // namespace bccbench

#endif  // BCCBENCH_NET_TIER_H_
