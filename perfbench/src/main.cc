// bccbench: the repository benchmark.
//
//   bccbench --workload <des_table1|des_uplink_pooled|net_table1> --seed <n>
//            --seconds <s> --trace <0|1> [--run-dir <dir>] [--inject-mismatch]
//
// With --trace 0 it runs the workload's real engine (BroadcastSim, or the
// UDP daemon plus client runtimes) untraced and prints the end-to-end
// metrics; with --trace 1 it also drives the same seeded inputs through the
// benchmark's own span-instrumented composition of the layers and prints the
// per-layer metrics. Every run first passes its correctness gate; a failed
// gate prints "correct": false and exits 1. --inject-mismatch feeds the
// digest gate a wrong reference (the oracle or composition runs with another
// seed) to show the gate fires.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "des_replay.h"
#include "net_tier.h"
#include "sim/broadcast_sim.h"
#include "spans.h"

namespace bccbench {
namespace {

using namespace bcc;
using Clock = std::chrono::steady_clock;

// ---- workload geometry ------------------------------------------------------
// Cycle counts size one engine run at about a third of a second on a 4-core
// x86 box, so a measured run holds dozens of repetitions spread over its
// whole length and reports their median. The host's speed drifts over
// seconds; a median over the whole run follows its centre, not one phase.
constexpr uint64_t kTable1Cycles = 6000;
constexpr uint64_t kPooledCycles = 2000;
constexpr uint32_t kMinDesReps = 3;
constexpr uint32_t kSetupRunsPerRep = 10;      // one-cycle runs after each repetition
constexpr uint32_t kCompositionReps = 6;       // repetitions replayed by the composition
constexpr uint64_t kOraclePrefixCycles = 40;  // VerifyOracle prefix
constexpr uint32_t kNetClients = 3;
constexpr double kNetPace = 6.0;              // cycles/s offered, open loop
constexpr uint32_t kNetTxnsPerCycle = 160;    // read slots per client
constexpr uint32_t kNetSetupSessions = 9;     // one-cycle set-up sessions
constexpr double kBitUnitsPerSecond = 65536;  // Table 1: 64 Kbit/s channel

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool inject_mismatch = false;
  std::string run_dir = ".bench_build/run";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "bccbench: %s\nusage: bccbench --workload <des_table1|des_uplink_pooled|"
               "net_table1> --seed <n> --seconds <s> --trace <0|1> [--run-dir <dir>] "
               "[--inject-mismatch]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-mismatch") {
      args.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "des_table1" && args.workload != "des_uplink_pooled" &&
      args.workload != "net_table1") {
    Usage("unknown or missing --workload");
  }
  if (!have_seed) Usage("missing --seed");
  if (args.seconds < 1) Usage("--seconds must be >= 1");
  return args;
}

// ---- small helpers ----------------------------------------------------------

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double CpuNow(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of a sample (q in (0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// Progress line on stderr, stamped with seconds since start.
void Note(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "bccbench [%7.2fs] %s\n", Seconds(Clock::now() - start), what.c_str());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool SameRel(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a)); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports: gate outcome, operation counts, metrics.
struct Report {
  bool correct = true;
  std::string failure;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

int Emit(const Report& r) {
  if (!r.correct) std::fprintf(stderr, "bccbench: CORRECTNESS GATE FAILED: %s\n", r.failure.c_str());
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + r.metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

// ---- per-layer metrics ------------------------------------------------------

/// Everything a traced composition run measured, summed over its repetitions.
struct LayerSums {
  std::array<LayerTotals, kNumLayers> totals{};
  uint64_t cycles = 0;
  uint32_t clients = 1;
  uint32_t num_objects = 0;
  unsigned timestamp_bits = 8;
  uint64_t frames = 0;
  uint64_t datagrams = 0;
  uint64_t wire_bytes = 0;
  uint64_t touched_columns = 0;
  uint64_t snapshot_columns_copied = 0;
  uint64_t reads = 0;
  uint64_t txns = 0;
  AbortBreakdown aborts;
  uint64_t uplink_accepts = 0;
  uint64_t uplink_rejects = 0;

  void AddSpans(const SpanLog& log) {
    const auto t = log.Totals();
    for (size_t i = 0; i < kNumLayers; ++i) {
      totals[i].calls += t[i].calls;
      totals[i].self_ns += t[i].self_ns;
    }
  }
};

void AddLayerMetrics(const LayerSums& s, double tracing_overhead, Report& r) {
  const double cycles = static_cast<double>(std::max<uint64_t>(s.cycles, 1));
  const double clients = static_cast<double>(std::max<uint32_t>(s.clients, 1));
  auto self_us = [&](Layer l) {
    return static_cast<double>(s.totals[static_cast<size_t>(l)].self_ns) / 1000.0;
  };
  auto per_call_us = [&](Layer l) {
    const uint64_t calls = s.totals[static_cast<size_t>(l)].calls;
    return calls == 0 ? 0.0 : self_us(l) / static_cast<double>(calls);
  };
  auto per_txn = [&](AbortCause cause) {
    return s.txns == 0 ? 0.0
                       : static_cast<double>(s.aborts.Count(cause)) / static_cast<double>(s.txns);
  };
  const uint64_t verdicts = s.uplink_accepts + s.uplink_rejects;
  r.Add("channel.encode_us_per_cycle", self_us(Layer::kChannelEncode) / cycles, "us");
  r.Add("channel.frames_per_cycle", static_cast<double>(s.frames) / cycles, "count");
  r.Add("net.pack_us_per_cycle", self_us(Layer::kNetPack) / cycles, "us");
  r.Add("net.send_us_per_cycle", self_us(Layer::kNetSend) / cycles, "us");
  r.Add("net.datagrams_per_cycle", static_cast<double>(s.datagrams) / cycles, "count");
  r.Add("net.wire_bytes_per_cycle", static_cast<double>(s.wire_bytes) / cycles, "bytes");
  r.Add("net.recv_us_per_cycle", self_us(Layer::kNetRecv) / cycles / clients, "us");
  r.Add("client.ingest_us_per_cycle", self_us(Layer::kClientIngest) / cycles / clients, "us");
  r.Add("server.commit_us", per_call_us(Layer::kServerCommit), "us");
  r.Add("server.fold_us_per_cycle", self_us(Layer::kServerFold) / cycles, "us");
  r.Add("server.snapshot_us_per_cycle", self_us(Layer::kServerSnapshot) / cycles, "us");
  r.Add("matrix.touched_columns_per_cycle", static_cast<double>(s.touched_columns) / cycles,
        "count");
  r.Add("matrix.snapshot_columns_copied_per_cycle",
        static_cast<double>(s.snapshot_columns_copied) / cycles, "count");
  // Computed by the simulator's accounting (n^2 stamps of ts bits), not sent.
  r.Add("matrix.control_bytes_accounted_per_cycle",
        static_cast<double>(s.num_objects) * s.num_objects * s.timestamp_bits / 8.0, "bytes");
  r.Add("client.read_us", per_call_us(Layer::kClientRead), "us");
  r.Add("client.reads_per_cycle", static_cast<double>(s.reads) / cycles, "count");
  for (const AbortCause cause : {AbortCause::kControlConflict, AbortCause::kUplinkReject,
                                 AbortCause::kChannelLoss, AbortCause::kCensored}) {
    r.Add("client.aborts_by_cause." + std::string(AbortCauseName(cause)), per_txn(cause),
          "1/txn");
  }
  r.Add("server.uplink_validate_us", per_call_us(Layer::kUplinkValidate), "us");
  r.Add("server.uplink_accept_ratio",
        verdicts == 0 ? 0.0
                      : static_cast<double>(s.uplink_accepts) / static_cast<double>(verdicts),
        "share");
  r.Add("exec.serial_us_per_cycle", self_us(Layer::kExecSerial) / cycles, "us");
  r.Add("exec.batch_us_per_cycle", self_us(Layer::kExecBatch) / cycles, "us");
  r.Add("obs.tracing_overhead_frac", tracing_overhead, "share");
}

// ---- DES workloads ----------------------------------------------------------

SimConfig DesConfig(const std::string& workload, uint64_t seed) {
  SimConfig c;  // Table 1 defaults: 300 x 1 KB, F-Matrix, ts = 8
  c.seed = seed;
  c.num_client_txns = UINT32_MAX;  // the run is cut by cycles, never by txns
  if (workload == "des_table1") {
    c.stop_after_cycles = kTable1Cycles;
  } else {
    c.stop_after_cycles = kPooledCycles;
    c.num_clients = 4;
    c.client_update_fraction = 0.2;
    c.update_scheme = UpdateScheme::kOcc;
    c.update_workers = 2;
  }
  return c;
}

struct EngineRun {
  double wall_s = 0;
  double thread_cpu_s = 0;
  double process_cpu_s = 0;
  SimSummary summary;
  uint64_t digest = 0;
};

StatusOr<EngineRun> RunEngine(const SimConfig& config) {
  EngineRun run;
  const double thread0 = CpuNow(CLOCK_THREAD_CPUTIME_ID);
  const double process0 = CpuNow(CLOCK_PROCESS_CPUTIME_ID);
  const Clock::time_point t0 = Clock::now();
  BroadcastSim sim(config);
  BCC_ASSIGN_OR_RETURN(run.summary, sim.Run());
  run.wall_s = Seconds(Clock::now() - t0);
  run.thread_cpu_s = CpuNow(CLOCK_THREAD_CPUTIME_ID) - thread0;
  run.process_cpu_s = CpuNow(CLOCK_PROCESS_CPUTIME_ID) - process0;
  run.digest = SnapshotDigest(sim.final_snapshot(), config.timestamp_bits);
  return run;
}

/// The sequential composition must land on exactly the engine's end state.
std::string CompareWithEngine(const DesResult& comp, const EngineRun& engine) {
  const SimSummary& s = engine.summary;
  if (comp.digest != engine.digest) return "composition digest differs from BroadcastSim";
  if (comp.server_commits != s.server_commits) return "composition commit count differs";
  if (comp.aborts.counts != s.abort_causes.counts) return "composition abort causes differ";
  if (comp.client_txns != s.total_txns) return "composition transaction count differs";
  if (!SameRel(comp.restart_ratio, s.restart_ratio)) return "composition restart ratio differs";
  double mean = 0;
  for (const double x : comp.responses) mean += x;
  if (!comp.responses.empty()) mean /= static_cast<double>(comp.responses.size());
  if (!SameRel(mean, s.mean_response_time)) return "composition response times differ";
  return "";
}

/// Pins the calling thread, and every thread it starts later, to the last
/// CPU it may run on. Returns false when the affinity calls fail.
bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

/// Seed of repetition `k`: repetition k's inputs are a pure function of
/// --seed and k. How many repetitions fit into --seconds depends on the host.
uint64_t RepSeed(uint64_t seed, uint32_t k) { return seed + k * 0x9E3779B97F4A7C15ull; }

int RunDes(const Args& args) {
  Report r;
  const bool sequential = args.workload == "des_table1";
  const SimConfig config = DesConfig(args.workload, args.seed);
  // The DES runs on one CPU, the pooled engine's workers included. On a
  // virtualised host each cross-CPU wake-up of an idle worker costs a
  // hypervisor reschedule; unpinned, the pooled rate swung 4x between runs
  // with the host's steal time, pinned it holds within a few percent.
  if (!PinToOneCpu()) Note("could not pin to one CPU; DES timings will be noisier");

  // Measured phase: engine runs on derived seeds until --seconds have
  // passed. They run before the gates and the composition, whose memory is
  // the benchmark's, not the engine's. After each one come a few set-up
  // runs (construction through the end of cycle 1) on the same inputs, so
  // set-up is sampled across the whole run too.
  const double cycles = static_cast<double>(config.stop_after_cycles);
  std::vector<double> setups, thread_cpu_ms, process_cpu_ms;
  std::vector<EngineRun> runs;
  double restarts = 0, measured_txns = 0, peak_rss_mb = 0;
  Note("measured runs");
  const Clock::time_point measure_start = Clock::now();
  for (uint32_t k = 0; k < kMinDesReps || Seconds(Clock::now() - measure_start) < args.seconds;
       ++k) {
    SimConfig rep = config;
    rep.seed = RepSeed(args.seed, k);
    StatusOr<EngineRun> run = RunEngine(rep);
    if (run.ok() && k == 0 && sequential) {
      // Same seed, same summary: the first repetition also runs twice.
      const StatusOr<EngineRun> again = RunEngine(rep);
      if (!again.ok() || again->summary.ToJson() != run->summary.ToJson() ||
          again->digest != run->digest) {
        r.Fail("same-seed engine runs produced different summaries");
      }
      run = again;
    }
    if (!run.ok()) {
      r.Fail("engine run: " + run.status().ToString());
      return Emit(r);
    }
    if (run->summary.cycles_elapsed != config.stop_after_cycles) r.Fail("run cut at the wrong cycle");
    thread_cpu_ms.push_back(run->thread_cpu_s * 1000 / cycles);
    process_cpu_ms.push_back(run->process_cpu_s * 1000 / cycles);
    restarts += run->summary.restart_ratio * static_cast<double>(run->summary.measured_txns);
    measured_txns += static_cast<double>(run->summary.measured_txns);
    r.attempted += run->summary.total_txns;
    r.failed += run->summary.censored_txns;
    runs.push_back(*std::move(run));
    // Read once the first repetition is done, before later runs fragment
    // the heap: the engine's own footprint plus the process baseline.
    if (k == 0) peak_rss_mb = PeakRssMb();

    SimConfig one = rep;
    one.stop_after_cycles = 1;
    for (uint32_t i = 0; i < kSetupRunsPerRep; ++i) {
      const StatusOr<EngineRun> setup = RunEngine(one);
      if (!setup.ok()) {
        r.Fail("set-up run: " + setup.status().ToString());
        return Emit(r);
      }
      setups.push_back(setup->wall_s);
    }
  }
  const uint32_t reps = static_cast<uint32_t>(runs.size());
  const double setup_s = Median(setups);
  std::vector<double> rate;
  for (const EngineRun& run : runs) {
    rate.push_back((cycles - 1) / std::max(run.wall_s - setup_s, 1e-9));
  }
  std::string per_run = "per-run cycles/s:";
  for (const double x : rate) per_run += " " + std::to_string(static_cast<int>(x));
  Note(per_run);

  // Gate: a recorded prefix passes the end-to-end consistency oracle
  // (reads-from agreement + APPROX).
  Note("gate: VerifyOracle on a recorded prefix");
  {
    SimConfig prefix = config;
    prefix.stop_after_cycles = kOraclePrefixCycles;
    prefix.record_history = true;
    BroadcastSim sim(prefix);
    const StatusOr<SimSummary> summary = sim.Run();
    const Status verdict = summary.ok() ? sim.VerifyOracle() : summary.status();
    if (!verdict.ok()) r.Fail("VerifyOracle on the recorded prefix: " + verdict.ToString());
  }

  // The first repetitions' inputs again, through the benchmark's composition
  // (span-traced with --trace 1). Sequential: it must reach the engine's
  // exact end state. Pooled: its folds must be serializable (the pooled
  // order depends on thread timing, so end states legitimately differ
  // between runs); it then stands in as a statistically equivalent run for
  // the response-time sample, which BroadcastSim does not expose.
  Note("composition runs");
  std::vector<double> responses;
  double comp_wall = 0, engine_wall = 0;
  LayerSums sums;
  sums.num_objects = config.num_objects;
  sums.timestamp_bits = config.timestamp_bits;
  SpanLog last_spans(true);
  const uint32_t comp_reps = std::min(reps, kCompositionReps);
  for (uint32_t k = 0; k < comp_reps; ++k) {
    SimConfig comp_config = config;
    comp_config.seed = RepSeed(args.seed, k) ^ (args.inject_mismatch ? 1 : 0);
    SpanLog spans(args.trace);
    const StatusOr<DesResult> comp = RunDesComposition(comp_config, spans);
    if (!comp.ok()) {
      r.Fail("composition: " + comp.status().ToString());
      return Emit(r);
    }
    if (sequential) {
      const std::string diff = CompareWithEngine(*comp, runs[k]);
      if (!diff.empty()) r.Fail(diff);
    }
    comp_wall += comp->run_s;
    engine_wall += runs[k].wall_s;
    responses.insert(responses.end(), comp->responses.begin(), comp->responses.end());
    sums.AddSpans(spans);
    sums.cycles += comp->cycles;
    sums.touched_columns += comp->touched_columns;
    sums.snapshot_columns_copied += comp->snapshot_columns_copied;
    sums.reads += comp->broadcast_reads;
    sums.txns += comp->client_txns;
    for (size_t i = 0; i < kNumAbortCauses; ++i) sums.aborts.counts[i] += comp->aborts.counts[i];
    sums.uplink_accepts += comp->uplink_accepts;
    sums.uplink_rejects += comp->uplink_rejects;
    if (args.trace) last_spans = std::move(spans);
  }

  const double to_ms = 1000.0 / kBitUnitsPerSecond;  // simulated bit-units -> ms
  std::printf("%s seed=%llu: %u runs of %llu cycles, setup %.3f ms (median of %zu), %.0f "
              "cycles/s; simulated response p50 %.1f ms, p99 %.1f ms over %zu post-warmup "
              "txns of %u composition runs\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), reps,
              static_cast<unsigned long long>(config.stop_after_cycles), setup_s * 1000,
              setups.size(), Median(rate), Quantile(responses, 0.50) * to_ms,
              Quantile(responses, 0.99) * to_ms, responses.size(), comp_reps);
  if (args.trace) {
    const std::string path =
        args.run_dir + "/spans_" + args.workload + "_" + std::to_string(args.seed) + ".csv";
    if (!last_spans.WriteCsv(path)) std::fprintf(stderr, "bccbench: cannot write %s\n", path.c_str());
    AddLayerMetrics(sums, comp_wall / engine_wall - 1.0, r);
    return Emit(r);
  }
  r.Add("setup_s", setup_s, "s");
  r.Add("peak_rss_mb", peak_rss_mb, "MB");
  r.Add("cycles_per_s", Median(rate), "cycles/s");
  r.Add("restart_ratio", measured_txns > 0 ? restarts / measured_txns : 0, "aborts/txn");
  // The DES hosts server and clients in one process: serverd = all its
  // threads, client = the engine thread that runs every client step.
  r.Add("serverd_cpu_ms_per_cycle", Median(process_cpu_ms), "ms");
  r.Add("client_cpu_ms_per_cycle", Median(thread_cpu_ms), "ms");
  r.Add("response_p50_ms", Quantile(responses, 0.50) * to_ms, "ms");
  r.Add("response_p99_ms", Quantile(responses, 0.99) * to_ms, "ms");
  r.Add("frame_delivery_frac", 1.0, "share");  // direct in-process handoff
  return Emit(r);
}

// ---- networked workload -----------------------------------------------------

NetWorkload NetTable1(const Args& args, uint64_t cycles) {
  NetWorkload w;
  w.sim.seed = args.seed;  // Table 1 geometry: 300 x 1 KB objects, ts = 8
  w.sim.num_clients = kNetClients;
  w.sim.num_client_txns = UINT32_MAX;
  w.sim.stop_after_cycles = cycles;
  w.pace_cycles_per_sec = kNetPace;
  w.txns_per_cycle = kNetTxnsPerCycle;
  w.run_dir = args.run_dir;
  return w;
}

/// Runs one session to its end and joins its threads. A session whose engine
/// sockets were given the same ephemeral port (NetSession::port_collision)
/// never passes its HELLO barrier; it is relaunched on the same inputs, at
/// most kMaxRelaunches times per run, and counted in `relaunches`.
constexpr uint32_t kMaxRelaunches = 3;
Status RunSession(const NetWorkload& w, bool measure_broadcast,
                  std::unique_ptr<NetSession>& session, uint32_t& relaunches) {
  for (;;) {
    session = std::make_unique<NetSession>(w);
    Status status = session->Run(measure_broadcast);
    const Status finished = session->Finish();
    if (status.ok()) status = finished;
    if (status.ok() || !session->port_collision() || relaunches >= kMaxRelaunches) return status;
    ++relaunches;
    Note("relaunching the session: " + status.ToString());
  }
}

int RunNet(const Args& args) {
  Report r;
  const uint64_t cycles = static_cast<uint64_t>(std::llround(kNetPace * args.seconds));
  const NetWorkload w = NetTable1(args, cycles);
  uint32_t relaunches = 0;

  Note("measured session");
  std::unique_ptr<NetSession> session;
  const Status status = RunSession(w, true, session, relaunches);
  if (!status.ok()) {
    r.Fail("session: " + status.ToString());
    return Emit(r);
  }
  const NetSessionResult* run = &session->result();
  // Read before the set-up sessions, the oracle and the composition run.
  const double peak_rss_mb = PeakRssMb();

  // Set-up is the median over several one-cycle sessions, run one after
  // another with every thread on one CPU. Four threads meet at the HELLO
  // barrier, and on a virtualised host a wake-up across CPUs waits on the
  // hypervisor: unpinned, set-up swung between 1.3 and 2.9 ms with the
  // host's load. The rest of the run (oracle, composition) stays pinned.
  if (!PinToOneCpu()) Note("could not pin to one CPU; set-up will be noisier");
  std::vector<double> setups;
  Note("set-up sessions");
  for (uint32_t i = 0; i < kNetSetupSessions; ++i) {
    std::unique_ptr<NetSession> one;
    const Status s = RunSession(NetTable1(args, 1), false, one, relaunches);
    if (!s.ok()) {
      r.Fail("set-up session: " + s.ToString());
      return Emit(r);
    }
    setups.push_back(one->result().setup_s);
  }

  // Gate: every client reassembled the daemon's end state, and the daemon's
  // end state is the in-process DES oracle's for the same seed and cycles.
  SimConfig oracle_config = w.sim;
  if (args.inject_mismatch) oracle_config.seed ^= 1;
  const StatusOr<EngineRun> oracle = RunEngine(oracle_config);
  if (!oracle.ok()) {
    r.Fail("oracle: " + oracle.status().ToString());
  } else if (oracle->digest != run->server.digest) {
    r.Fail("daemon digest differs from the in-process BroadcastSim oracle");
  }
  if (run->server.cycles != cycles) r.Fail("daemon broadcast the wrong number of cycles");
  uint64_t sent = 0, dropped = 0, commits = 0, aborts = 0;
  size_t worst = 0;
  for (size_t c = 0; c < run->clients.size(); ++c) {
    const ClientReport& cr = run->clients[c];
    if (cr.digest != run->server.digest) r.Fail("a client digest differs from the daemon's");
    sent += cr.channel.frames_sent;
    dropped += cr.channel.frames_dropped;
    commits += cr.commits;
    aborts += cr.aborts;
    const ClientReport& w_cr = run->clients[worst];
    if (cr.p99_us > w_cr.p99_us || (cr.p99_us == w_cr.p99_us && cr.p50_us > w_cr.p50_us)) worst = c;
  }
  r.attempted = sent;
  r.failed = dropped;
  const ClientReport& worst_client = run->clients[worst];
  double client_cpu_ms = 0;
  for (const double cpu : run->client_cpu_s_per_cycle) {
    client_cpu_ms = std::max(client_cpu_ms, cpu * 1000);
  }
  const double serverd_cpu_ms = run->serverd_cpu_s_per_cycle * 1000;
  std::printf("net_table1 seed=%llu: %llu cycles at %.1f/s offered, setup %.3f ms (median of "
              "%zu), window %llu cycles in %.3f s; frame_loss_frac %.6f (%llu of %llu frames "
              "dropped); worst client %zu: p50 %.1f ms, p99 %.1f ms over %llu txns; wire bytes "
              "%llu; sessions relaunched after a port collision: %u\n",
              static_cast<unsigned long long>(args.seed), static_cast<unsigned long long>(cycles),
              kNetPace, Median(setups) * 1000, setups.size(),
              static_cast<unsigned long long>(run->window_cycles), run->window_s,
              sent == 0 ? 0.0 : static_cast<double>(dropped) / static_cast<double>(sent),
              static_cast<unsigned long long>(dropped), static_cast<unsigned long long>(sent),
              worst, worst_client.p50_us / 1000.0, worst_client.p99_us / 1000.0,
              static_cast<unsigned long long>(worst_client.commits),
              static_cast<unsigned long long>(run->server.bytes_sent), relaunches);

  if (args.trace) {
    SpanLog spans(true);
    const StatusOr<NetCompositionResult> traced = RunNetComposition(w, spans);
    if (!traced.ok()) {
      r.Fail("traced composition: " + traced.status().ToString());
      return Emit(r);
    }
    if (traced->server_digest != run->server.digest) {
      r.Fail("traced run's end-state digest differs from the untraced run's");
    }
    for (const uint64_t d : traced->client_digests) {
      if (d != traced->server_digest) r.Fail("a traced client digest differs from the server's");
    }
    const std::string path =
        args.run_dir + "/spans_" + args.workload + "_" + std::to_string(args.seed) + ".csv";
    if (!spans.WriteCsv(path)) std::fprintf(stderr, "bccbench: cannot write %s\n", path.c_str());
    LayerSums sums;
    sums.AddSpans(spans);
    sums.cycles = traced->cycles;
    sums.clients = kNetClients;
    sums.num_objects = w.sim.num_objects;
    sums.timestamp_bits = w.sim.timestamp_bits;
    sums.frames = traced->frames;
    sums.datagrams = traced->datagrams;
    sums.wire_bytes = traced->wire_bytes;
    sums.touched_columns = traced->touched_columns;
    sums.snapshot_columns_copied = traced->snapshot_columns_copied;
    sums.reads = traced->reads;
    sums.txns = traced->client_commits;
    sums.aborts = traced->aborts;
    double untraced_cpu_ms = serverd_cpu_ms;
    for (const double cpu : run->client_cpu_s_per_cycle) untraced_cpu_ms += cpu * 1000;
    const double traced_cpu_ms = traced->thread_cpu_s * 1000 / static_cast<double>(traced->cycles);
    AddLayerMetrics(sums, traced_cpu_ms / untraced_cpu_ms - 1.0, r);
    return Emit(r);
  }

  r.Add("setup_s", Median(setups), "s");
  r.Add("peak_rss_mb", peak_rss_mb, "MB");
  r.Add("cycles_per_s", static_cast<double>(run->window_cycles) / run->window_s, "cycles/s");
  r.Add("restart_ratio",
        commits == 0 ? 0.0 : static_cast<double>(aborts) / static_cast<double>(commits),
        "aborts/txn");
  r.Add("serverd_cpu_ms_per_cycle", serverd_cpu_ms, "ms");
  r.Add("client_cpu_ms_per_cycle", client_cpu_ms, "ms");
  r.Add("response_p50_ms", worst_client.p50_us / 1000.0, "ms");
  r.Add("response_p99_ms", worst_client.p99_us / 1000.0, "ms");
  r.Add("frame_delivery_frac",
        sent == 0 ? 0.0 : 1.0 - static_cast<double>(dropped) / static_cast<double>(sent), "share");
  return Emit(r);
}

}  // namespace
}  // namespace bccbench

int main(int argc, char** argv) {
  const bccbench::Args args = bccbench::ParseArgs(argc, argv);
  return args.workload == "net_table1" ? bccbench::RunNet(args) : bccbench::RunDes(args);
}
