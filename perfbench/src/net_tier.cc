#include "net_tier.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "channel/frame.h"
#include "client/read_txn.h"
#include "client/receiver.h"
#include "common/format.h"
#include "common/rng.h"
#include "des_replay.h"
#include "net/datagram.h"
#include "net/net_config.h"
#include "net/socket.h"
#include "net/state_digest.h"
#include "server/broadcast_server.h"
#include "server/txn_manager.h"
#include "sim/workload.h"

namespace bccbench {

using namespace bcc;

namespace {

using Clock = std::chrono::steady_clock;

// The HELLO barrier normally takes a few milliseconds; this ends a failed
// one early, for daemon and clients alike.
constexpr uint64_t kHelloTimeoutMs = 5000;
// Broadcast cycles per segment of the CPU-per-cycle median.
constexpr uint64_t kSegmentCycles = 12;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds on `clock`; nullopt once the thread behind it has exited.
std::optional<double> CpuSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return std::nullopt;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

clockid_t ThreadCpuClock(std::thread& t) {
  clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
  if (pthread_getcpuclockid(t.native_handle(), &clock) != 0) return CLOCK_THREAD_CPUTIME_ID;
  return clock;
}

/// The file's first line once it is completely written (newline included),
/// else "".
std::string ReadCompleteLine(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const size_t end = text.find('\n');
  return end == std::string::npos ? "" : text.substr(0, end);
}

/// Binds `socket` to an ephemeral loopback port without SO_REUSEADDR.
/// UdpSocket::Bind sets SO_REUSEADDR, and Linux may then hand two sockets
/// the same ephemeral port; the benchmark's own sockets stay out of that.
Status BindLoopbackExclusive(UdpSocket& socket) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(socket.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal(StrFormat("bind: %s", std::strerror(errno)));
  }
  return Status::OK();
}

/// True when two of this process's bound UDP sockets share a local port.
/// UdpSocket::Bind sets SO_REUSEADDR before it binds port 0, and Linux then
/// checks a new ephemeral port only against sockets without that option, so
/// two engine sockets can be given the same port.
bool UdpPortsCollide() {
  rlimit limit{};
  getrlimit(RLIMIT_NOFILE, &limit);
  const int max_fd = static_cast<int>(std::min<rlim_t>(limit.rlim_cur, 65536));
  std::set<uint16_t> ports;
  for (int fd = 0; fd < max_fd; ++fd) {
    int type = 0;
    socklen_t type_len = sizeof(type);
    sockaddr_in addr{};
    socklen_t addr_len = sizeof(addr);
    if (getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &type_len) != 0 || type != SOCK_DGRAM ||
        getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0 ||
        addr.sin_family != AF_INET || addr.sin_port == 0) {
      continue;
    }
    if (!ports.insert(ntohs(addr.sin_port)).second) return true;
  }
  return false;
}

/// The `"cycle":N` field of a METRICS envelope.
std::optional<uint64_t> EnvelopeCycle(const std::string& json) {
  const size_t at = json.find("\"cycle\":");
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(json.c_str() + at + 8, nullptr, 10);
}

/// METRICS_REQ poller bound to its own loopback port.
class DaemonPoller {
 public:
  Status Open(const std::string& daemon_endpoint) {
    BCC_RETURN_IF_ERROR(socket_.Open());
    BCC_RETURN_IF_ERROR(BindLoopbackExclusive(socket_));
    BCC_ASSIGN_OR_RETURN(const Endpoint ep, ParseEndpoint(daemon_endpoint));
    BCC_ASSIGN_OR_RETURN(daemon_, ResolveEndpoint(ep));
    return Status::OK();
  }

  Status Request() {
    MetricsReqMsg req;
    req.token = ++token_;
    return socket_.SendTo(EncodeMetricsReq(req), daemon_).status();
  }

  /// Waits up to `timeout_ms` for replies; returns the newest cycle seen.
  StatusOr<std::optional<uint64_t>> Await(int timeout_ms) {
    pollfd pfd{socket_.fd(), POLLIN, 0};
    ::poll(&pfd, 1, timeout_ms);
    BCC_ASSIGN_OR_RETURN(const std::vector<InDatagram> batch, socket_.RecvBatch(16, 65536));
    std::optional<uint64_t> newest;
    for (const InDatagram& d : batch) {
      const StatusOr<MetricsMsg> msg = DecodeMetrics(d.bytes);
      if (!msg.ok()) continue;
      const std::optional<uint64_t> cycle = EnvelopeCycle(msg->json);
      if (cycle && (!newest || *cycle > *newest)) newest = cycle;
    }
    return newest;
  }

 private:
  UdpSocket socket_;
  SockAddr daemon_;
  uint32_t token_ = 0;
};

}  // namespace

void NetSession::Join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

Status NetSession::Finish() {
  Join();
  BCC_RETURN_IF_ERROR(server_status_);
  for (const Status& s : client_status_) BCC_RETURN_IF_ERROR(s);
  return Status::OK();
}

Status NetSession::Run(bool measure_broadcast) {
  static std::atomic<uint32_t> session_counter{0};
  const uint32_t num_clients = w_.sim.num_clients;
  const uint64_t cycles = w_.sim.stop_after_cycles;
  const std::string endpoint_file =
      StrFormat("%s/endpoint_%d_%u", w_.run_dir.c_str(), static_cast<int>(getpid()),
                session_counter.fetch_add(1));
  std::remove(endpoint_file.c_str());

  NetConfig server_net;
  server_net.listen = "127.0.0.1:0";
  server_net.endpoint_file = endpoint_file;
  server_net.expected_clients = num_clients;
  server_net.dgram_bytes = w_.dgram_bytes;
  server_net.pace_cycles_per_sec = w_.pace_cycles_per_sec;
  // Watchdogs sized to the session, so a failed session cannot hold the
  // process past its time limit: the broadcast plus 15 s of slack.
  const uint64_t watchdog_ms =
      static_cast<uint64_t>(1000.0 * static_cast<double>(cycles) / w_.pace_cycles_per_sec) + 15000;
  server_net.max_wall_ms = watchdog_ms;
  server_net.hello_timeout_ms = kHelloTimeoutMs;

  out_.clients.resize(num_clients);
  client_status_.resize(num_clients);
  const Clock::time_point t0 = Clock::now();
  threads_.emplace_back([this, server_net] {
    server_status_ = RunServerDaemon(server_net, w_.sim, &out_.server);
    daemon_done_ = true;
  });
  const clockid_t daemon_clock = ThreadCpuClock(threads_.back());

  while (endpoint_.empty()) {
    if (daemon_done_) return Status::Internal("daemon exited before binding: " + server_status_.ToString());
    if (SecondsSince(t0) > 20) return Status::Internal("daemon never wrote its endpoint file");
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    endpoint_ = ReadCompleteLine(endpoint_file);
  }
  std::remove(endpoint_file.c_str());

  std::vector<clockid_t> client_clocks;
  for (uint32_t c = 0; c < num_clients; ++c) {
    threads_.emplace_back([this, c, watchdog_ms] {
      NetConfig client_net;
      client_net.connect = endpoint_;
      client_net.client_id = c + 1;
      client_net.txns_per_cycle = w_.txns_per_cycle;
      client_net.max_wall_ms = watchdog_ms;
      client_net.hello_timeout_ms = kHelloTimeoutMs;
      client_status_[c] = RunClientRuntime(client_net, w_.sim, &out_.clients[c]);
    });
    client_clocks.push_back(ThreadCpuClock(threads_.back()));
  }

  DaemonPoller poller;
  BCC_RETURN_IF_ERROR(poller.Open(endpoint_));

  // One observation: wall time, the cycle the daemon reported, and every
  // engine thread's CPU clock read right after the reply arrived.
  struct Sample {
    double t = 0;
    uint64_t cycle = 0;
    double daemon_cpu = 0;
    std::vector<double> client_cpu;
  };
  auto take = [&](uint64_t cycle) -> std::optional<Sample> {
    Sample s;
    s.t = SecondsSince(t0);
    s.cycle = cycle;
    const std::optional<double> d = CpuSeconds(daemon_clock);
    if (!d) return std::nullopt;
    s.daemon_cpu = *d;
    for (const clockid_t clock : client_clocks) {
      const std::optional<double> c = CpuSeconds(clock);
      if (!c) return std::nullopt;
      s.client_cpu.push_back(*c);
    }
    return s;
  };

  // Set-up ends when the daemon leaves the HELLO barrier: the last reply
  // still reporting cycle 0 comes from the pacing poll right before cycle 1
  // starts. A request goes out about every millisecond so that edge is
  // sharp, but never while one is outstanding (up to 20 ms), so a slow
  // daemon's socket never fills with requests and crowds out the HELLOs.
  // A barrier still closed after a second is checked once a second, while
  // every engine socket is still open, for a port collision (UdpPortsCollide).
  double last_zero_s = -1;
  double next_collision_check_s = 1;
  std::optional<Sample> start;
  while (!start) {
    if (SecondsSince(t0) > next_collision_check_s) {
      next_collision_check_s += 1;
      if (UdpPortsCollide()) {
        port_collision_ = true;
        return Status::Aborted("two engine sockets were given the same ephemeral port");
      }
    }
    if (daemon_done_) {
      // A one-cycle session can finish between two polls.
      if (!measure_broadcast && last_zero_s >= 0 && server_status_.ok()) break;
      return Status::Internal("daemon ended during set-up: " + server_status_.ToString());
    }
    if (SecondsSince(t0) > 30) return Status::Internal("HELLO barrier never completed");
    BCC_RETURN_IF_ERROR(poller.Request());
    BCC_ASSIGN_OR_RETURN(const std::optional<uint64_t> cycle, poller.Await(20));
    if (cycle && *cycle == 0) last_zero_s = SecondsSince(t0);
    if (cycle && *cycle >= 1) start = take(*cycle);
    std::this_thread::sleep_for(std::chrono::microseconds(900));
  }
  out_.setup_s = last_zero_s >= 0 ? last_zero_s : start->t;

  if (measure_broadcast) {
    // Broadcast phase: from the first reply that reported a cycle on the air
    // to the last reply before broadcasting ended. The daemon answers from
    // the pacing wait that follows a cycle's work, so the window holds the
    // work of cycles start.cycle+1 .. end.cycle and none of the STATS phase.
    std::vector<Sample> samples{*start};
    while (samples.back().cycle < cycles && !daemon_done_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const Status sent = poller.Request();
      const StatusOr<std::optional<uint64_t>> cycle =
          sent.ok() ? poller.Await(100) : StatusOr<std::optional<uint64_t>>(sent);
      if (!cycle.ok()) {
        if (daemon_done_) break;  // the daemon's port closed under the poll
        return cycle.status();
      }
      if (!*cycle || **cycle <= samples.back().cycle) continue;
      if (std::optional<Sample> s = take(**cycle)) samples.push_back(*std::move(s));
    }
    const Sample& end = samples.back();
    if (end.cycle < start->cycle + cycles / 2) {
      return Status::Internal("broadcast window too short to measure");
    }
    out_.window_s = end.t - start->t;
    out_.window_cycles = end.cycle - start->cycle;

    // CPU per cycle: the median over consecutive segments of the window, so
    // a slow phase of the host moves a few segments, not the result. A
    // trailing partial segment is left out; a window shorter than one
    // segment is taken whole.
    std::vector<double> daemon_rates;
    std::vector<std::vector<double>> client_rates(num_clients);
    auto add_segment = [&](const Sample& a, const Sample& b) {
      const double n = static_cast<double>(b.cycle - a.cycle);
      daemon_rates.push_back((b.daemon_cpu - a.daemon_cpu) / n);
      for (uint32_t c = 0; c < num_clients; ++c) {
        client_rates[c].push_back((b.client_cpu[c] - a.client_cpu[c]) / n);
      }
    };
    size_t from = 0;
    for (size_t to = 1; to < samples.size(); ++to) {
      if (samples[to].cycle - samples[from].cycle < kSegmentCycles) continue;
      add_segment(samples[from], samples[to]);
      from = to;
    }
    if (daemon_rates.empty()) add_segment(*start, end);
    out_.serverd_cpu_s_per_cycle = Median(daemon_rates);
    for (const std::vector<double>& rates : client_rates) {
      out_.client_cpu_s_per_cycle.push_back(Median(rates));
    }
  }

  threads_[0].join();  // the daemon ends after the final STATS collection
  return server_status_;
}

namespace {

/// One read-transaction slot, advanced one read per ingested cycle exactly
/// as the client runtime's slots are.
struct Slot {
  explicit Slot(CycleStampCodec codec) : protocol(Algorithm::kFMatrix, codec) {}
  ReadOnlyTxnProtocol protocol;
  std::vector<ObjectId> read_set;
  size_t read_idx = 0;
};

struct CompClient {
  UdpSocket socket;
  SockAddr addr;
  std::unique_ptr<ChannelReceiver> receiver;
  std::unique_ptr<ClientWorkload> workload;
  std::vector<std::unique_ptr<Slot>> slots;
  std::map<uint16_t, std::vector<Frame>> dgrams;  // this cycle, by dgram_seq
  uint16_t cycle_frames = 0;
};

/// Receives every queued datagram of `cycle` into the client's buffer.
Status Drain(CompClient& client, Cycle cycle, SpanLog& spans) {
  Scoped span(spans, Layer::kNetRecv);
  for (;;) {
    BCC_ASSIGN_OR_RETURN(const std::vector<InDatagram> batch, client.socket.RecvBatch(64, 65536));
    if (batch.empty()) return Status::OK();
    for (const InDatagram& d : batch) {
      BCC_ASSIGN_OR_RETURN(CycleDataMsg msg, DecodeCycleData(d.bytes));
      if (msg.header.cycle != cycle) continue;
      client.cycle_frames = msg.header.cycle_frames;
      client.dgrams.emplace(msg.header.dgram_seq, std::move(msg.frames));
    }
  }
}

}  // namespace

StatusOr<NetCompositionResult> RunNetComposition(const NetWorkload& w, SpanLog& spans) {
  SimConfig sim = w.sim;
  BCC_RETURN_IF_ERROR(NormalizeNetSimConfig(&sim));
  if (sim.delta_broadcast || sim.matrix_mode != MatrixMode::kDense ||
      sim.update_scheme != UpdateScheme::kSequential || sim.client_update_fraction > 0) {
    return Status::InvalidArgument("net composition supports the read-only dense sequential tier");
  }
  const CycleStampCodec stamp_codec(sim.timestamp_bits);
  const FrameCodec frame_codec(stamp_codec, sim.channel_frame_bits);
  const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID).value_or(0);

  TxnManagerOptions options;
  options.maintain_f_matrix = true;
  options.maintain_mc_vector = true;
  ServerTxnManager manager(sim.num_objects, options);
  BroadcastServer server(sim.num_objects, sim.Geometry());
  Rng root(sim.seed);
  ServerWorkload workload(sim, root.Split());
  SimTime next_commit_vt = workload.NextInterval();

  UdpSocket server_socket;
  BCC_RETURN_IF_ERROR(server_socket.Open());
  BCC_RETURN_IF_ERROR(BindLoopbackExclusive(server_socket));
  std::vector<std::unique_ptr<CompClient>> clients;
  for (uint32_t c = 0; c < sim.num_clients; ++c) {
    auto client = std::make_unique<CompClient>();
    BCC_RETURN_IF_ERROR(client->socket.Open());
    BCC_RETURN_IF_ERROR(BindLoopbackExclusive(client->socket));
    BCC_RETURN_IF_ERROR(client->socket.SetRecvBufferBytes(1u << 22));
    BCC_ASSIGN_OR_RETURN(const Endpoint ep, client->socket.local_endpoint());
    BCC_ASSIGN_OR_RETURN(client->addr, ResolveEndpoint(ep));
    client->receiver = std::make_unique<ChannelReceiver>(sim.num_objects, frame_codec, nullptr);
    client->workload = std::make_unique<ClientWorkload>(sim, root.Split());
    for (uint32_t s = 0; s < w.txns_per_cycle; ++s) {
      auto slot = std::make_unique<Slot>(stamp_codec);
      slot->protocol.set_value_override(&client->receiver->values());
      slot->protocol.set_control_override(&client->receiver->matrix());
      slot->read_set = client->workload->NextReadSet();
      client->slots.push_back(std::move(slot));
    }
    clients.push_back(std::move(client));
  }

  NetCompositionResult result;
  std::vector<Frame> frames;
  std::vector<uint8_t> written(sim.num_objects, 0);
  const SimTime cycle_bits = server.CycleLengthBits();
  constexpr size_t kSendChunk = 32;  // datagrams per client between drains
  for (Cycle cycle = 1; cycle <= sim.stop_after_cycles; ++cycle) {
    spans.set_cycle(cycle);
    {
      Scoped root_span(spans, Layer::kCycle);
      {
        Scoped s(spans, Layer::kServerFold);
        (void)manager.f_matrix();
      }
      {
        Scoped s(spans, Layer::kServerSnapshot);
        server.BeginCycle(cycle, static_cast<SimTime>(cycle - 1) * cycle_bits, manager);
      }
      {
        Scoped s(spans, Layer::kChannelEncode);
        EncodeCycleFramesInto(server.snapshot(), frame_codec, sim.object_size_bits, frames);
      }
      result.frames += frames.size();
      std::vector<std::vector<uint8_t>> dgrams;
      {
        Scoped s(spans, Layer::kNetPack);
        dgrams = PackCycleDatagrams(cycle, frames, w.dgram_bytes);
      }
      for (size_t first = 0; first < dgrams.size(); first += kSendChunk) {
        const size_t last = std::min(dgrams.size(), first + kSendChunk);
        std::vector<OutDatagram> batch;
        for (size_t d = first; d < last; ++d) {
          for (const auto& client : clients) {
            batch.push_back(OutDatagram{dgrams[d], client->addr});
            result.wire_bytes += dgrams[d].size();
          }
        }
        {
          Scoped s(spans, Layer::kNetSend);
          BCC_ASSIGN_OR_RETURN(const size_t sent, server_socket.SendBatch(batch));
          result.datagrams += sent;
        }
        for (auto& client : clients) BCC_RETURN_IF_ERROR(Drain(*client, cycle, spans));
      }
    }

    CycleSnapshot shell;  // the overrides route every lookup to the receiver
    shell.cycle = cycle;
    for (auto& client : clients) {
      Transmission tx;
      for (auto& [seq, dgram_frames] : client->dgrams) {
        for (Frame& frame : dgram_frames) {
          Delivery d;
          d.frame = std::move(frame);
          tx.frames.push_back(std::move(d));
        }
      }
      tx.sent = client->cycle_frames;
      tx.dropped = tx.sent - std::min<uint64_t>(tx.sent, tx.frames.size());
      client->dgrams.clear();
      {
        Scoped s(spans, Layer::kClientIngest);
        client->receiver->IngestCycle(cycle, tx);
      }
      for (auto& slot : client->slots) {
        const ObjectId ob = slot->read_set[slot->read_idx];
        if (!client->receiver->ControlUsable(ob, cycle) ||
            !client->receiver->DataUsable(ob, cycle)) {
          continue;  // stalled on loss: retry next cycle
        }
        bool ok = false;
        {
          Scoped s(spans, Layer::kClientRead);
          ok = slot->protocol.Read(shell, ob).ok();
        }
        if (!ok) {
          result.aborts.Record(slot->protocol.last_abort().cause);
          slot->protocol.Reset();
          slot->read_idx = 0;
          continue;
        }
        ++result.reads;
        if (++slot->read_idx < slot->read_set.size()) continue;
        ++result.client_commits;
        slot->read_set = client->workload->NextReadSet();
        slot->read_idx = 0;
        slot->protocol.Reset();
      }
    }

    // The cycle's commits go on the air at the next cycle's snapshot.
    const SimTime cycle_end = static_cast<SimTime>(cycle) * cycle_bits;
    uint64_t touched = 0;
    while (next_commit_vt < cycle_end) {
      const ServerTxn txn = workload.NextTxn();
      for (const ObjectId ob : txn.write_set) {
        if (written[ob] == 0) {
          written[ob] = 1;
          ++touched;
        }
      }
      {
        Scoped s(spans, Layer::kServerCommit);
        manager.ExecuteAndCommit(txn, cycle);
      }
      ++result.server_commits;
      next_commit_vt += workload.NextInterval();
    }
    result.touched_columns += touched;
    std::fill(written.begin(), written.end(), 0);
  }

  result.cycles = sim.stop_after_cycles;
  result.server_digest = SnapshotDigest(server.snapshot(), sim.timestamp_bits);
  for (const auto& client : clients) {
    result.client_digests.push_back(DigestMatrixResidues(
        client->receiver->matrix(), stamp_codec, DigestValues(client->receiver->values())));
  }
  result.snapshot_columns_copied = manager.f_matrix().snapshot_columns_copied();
  result.thread_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID).value_or(0) - cpu0;
  return result;
}

}  // namespace bccbench
