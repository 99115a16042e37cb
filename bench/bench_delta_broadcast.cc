// Snapshot+delta control broadcast accounting and server-side cost.
//
// Section "cycles": drives the server commit pipeline (ServerWorkload ->
// ServerTxnManager -> DeltaBroadcaster) across broadcast cycles at several
// update rates and reports, per cycle, the control bits a delta-mode
// broadcast ships against the full-matrix baseline. The run FAILS (exit 1)
// if any cycle's delta control costs more than the full matrix — that
// inequality is an invariant of the refresh policy, not a tuning goal.
//
// Section "commit_cost": per-commit ApplyCommit cost and the per-cycle diff
// cost at constant write-set size as the database grows. The delta diff
// compares two consecutive cycle snapshots and skips every column whose page
// they share, so it costs O(n) pointer compares plus O(n * changed columns)
// instead of the O(n^2) full rescan.
//
// Flags (parsed here; bench_common's ParseFlags rejects --smoke):
//   --smoke      tiny run for CI build sanity
//   --csv        additionally dump machine-readable rows
//   --seed=N     override the base seed

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "matrix/wire.h"
#include "server/delta_broadcast.h"
#include "server/txn_manager.h"
#include "sim/config.h"
#include "sim/workload.h"

namespace bcc::bench {
namespace {

struct Flags {
  bool smoke = false;
  bool csv = false;
  uint64_t seed = 42;
};

Flags ParseDeltaFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      flags.smoke = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      flags.csv = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      flags.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s (known: --smoke --csv --seed=N)\n", argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

double NsPerOp(std::chrono::steady_clock::time_point t0, std::chrono::steady_clock::time_point t1,
               uint64_t ops) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(ops);
}

/// Section "cycles": full vs delta control bits per broadcast cycle.
/// Returns false if any cycle violates delta_bits <= full_bits.
bool RunCyclesSection(const Flags& flags) {
  const uint32_t n = 300;
  const unsigned ts = 8;
  const uint64_t refresh_period = 16;
  const uint64_t cycles = flags.smoke ? 8 : 64;
  const auto geometry = ComputeGeometry(Algorithm::kFMatrix, n, 8 * 1024, ts);

  std::printf("== cycles: control bits on the air, full vs delta (n=%u, ts=%u, refresh=%llu)\n", n,
              ts, static_cast<unsigned long long>(refresh_period));
  std::printf("%10s %6s %8s %8s %8s %12s %12s %8s\n", "interval", "cycle", "commits", "entries",
              "refresh", "delta_bits", "full_bits", "ratio");

  bool ok = true;
  for (const uint64_t interval : {50000ull, 250000ull, 1000000ull}) {
    SimConfig config;
    config.num_objects = n;
    config.timestamp_bits = ts;
    config.server_txn_interval = interval;
    config.seed = flags.seed;
    ServerWorkload workload(config, Rng(flags.seed));
    ServerTxnManager manager(n);
    DeltaBroadcaster broadcaster(n, CycleStampCodec(ts), refresh_period);

    uint64_t total_delta = 0, total_full = 0;
    SimTime next_commit = workload.NextInterval();
    for (Cycle cycle = 1; cycle <= cycles; ++cycle) {
      const SimTime cycle_end = cycle * geometry.cycle_bits;
      uint32_t commits = 0;
      while (next_commit <= cycle_end) {
        manager.ExecuteAndCommit(workload.NextTxn(), cycle);
        ++commits;
        next_commit += workload.NextInterval();
      }
      const DeltaControl ctl = broadcaster.BuildControl(manager.SnapshotControl(), cycle);
      total_delta += ctl.control_bits;
      total_full += ctl.full_bits;
      if (ctl.control_bits > ctl.full_bits) {
        std::fprintf(stderr, "INVARIANT VIOLATED: cycle %llu delta %llu > full %llu\n",
                     static_cast<unsigned long long>(cycle),
                     static_cast<unsigned long long>(ctl.control_bits),
                     static_cast<unsigned long long>(ctl.full_bits));
        ok = false;
      }
      if (flags.csv) {
        std::printf("csv,cycles,%llu,%llu,%u,%zu,%d,%llu,%llu\n",
                    static_cast<unsigned long long>(interval),
                    static_cast<unsigned long long>(cycle), commits, ctl.entries.size(),
                    ctl.full_refresh ? 1 : 0, static_cast<unsigned long long>(ctl.control_bits),
                    static_cast<unsigned long long>(ctl.full_bits));
      } else {
        std::printf("%10llu %6llu %8u %8zu %8s %12llu %12llu %8.4f\n",
                    static_cast<unsigned long long>(interval),
                    static_cast<unsigned long long>(cycle), commits, ctl.entries.size(),
                    ctl.full_refresh ? (ctl.scheduled ? "sched" : "adapt") : "-",
                    static_cast<unsigned long long>(ctl.control_bits),
                    static_cast<unsigned long long>(ctl.full_bits),
                    static_cast<double>(ctl.control_bits) / static_cast<double>(ctl.full_bits));
      }
    }
    std::printf("-- interval=%llu: total delta %llu / full %llu bits (%.2f%%)\n",
                static_cast<unsigned long long>(interval),
                static_cast<unsigned long long>(total_delta),
                static_cast<unsigned long long>(total_full),
                100.0 * static_cast<double>(total_delta) / static_cast<double>(total_full));
  }
  return ok;
}

/// Section "commit_cost": ApplyCommit, plus the per-cycle snapshot-pair diff
/// against the full rescan, across database sizes at a constant write-set
/// size.
void RunCommitCostSection(const Flags& flags) {
  const unsigned ts = 8;
  const uint32_t ws_size = 4, rs_size = 4;
  const uint64_t commits = flags.smoke ? 500 : 20000;
  const uint64_t commits_per_cycle = 8;
  const CycleStampCodec codec(ts);
  const std::vector<uint32_t> sizes =
      flags.smoke ? std::vector<uint32_t>{64, 256} : std::vector<uint32_t>{64, 128, 256, 512, 1024};

  std::printf("\n== commit_cost: per-commit maintenance and per-cycle diff (ws=%u, %llu commits, "
              "%llu commits/cycle)\n",
              ws_size, static_cast<unsigned long long>(commits),
              static_cast<unsigned long long>(commits_per_cycle));
  std::printf("%6s %14s %16s %16s\n", "n", "commit_ns", "pairdiff_ns/cyc", "fullscan_ns/cyc");

  for (const uint32_t n : sizes) {
    Rng rng(flags.seed + n);
    std::vector<std::vector<ObjectId>> reads(commits), writes(commits);
    for (uint64_t t = 0; t < commits; ++t) {
      reads[t] = rng.SampleWithoutReplacement(n, rs_size);
      writes[t] = rng.SampleWithoutReplacement(n, ws_size);
    }

    FMatrix base(n);
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t t = 0; t < commits; ++t) base.ApplyCommit(reads[t], writes[t], t + 1);
    auto t1 = std::chrono::steady_clock::now();
    const double commit_ns = NsPerOp(t0, t1, commits);

    // One cycle's worth of commits between two snapshots; the previous one
    // stays held, as the broadcaster holds its diff base.
    FMatrix cur = base;
    const ControlSnapshot prev_snap = cur.Snapshot();
    for (uint64_t t = 0; t < commits_per_cycle; ++t) {
      cur.ApplyCommit(reads[t], writes[t], commits + t + 1);
    }
    const ControlSnapshot cur_snap = cur.Snapshot();
    const uint64_t reps = flags.smoke ? 50 : 2000;
    size_t sink = 0;
    t0 = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < reps; ++r) {
      sink += DeltaCodec::DiffColumns(prev_snap, cur_snap, codec).size();
    }
    t1 = std::chrono::steady_clock::now();
    const double pairdiff_ns = NsPerOp(t0, t1, reps);
    t0 = std::chrono::steady_clock::now();
    for (uint64_t r = 0; r < reps; ++r) sink += DeltaCodec::Diff(base, cur, codec).size();
    t1 = std::chrono::steady_clock::now();
    const double fullscan_ns = NsPerOp(t0, t1, reps);

    if (flags.csv) {
      std::printf("csv,commit_cost,%u,%.1f,%.1f,%.1f\n", n, commit_ns, pairdiff_ns, fullscan_ns);
    } else {
      std::printf("%6u %14.1f %16.1f %16.1f\n", n, commit_ns, pairdiff_ns, fullscan_ns);
    }
    if (sink == 0) std::printf("(empty diffs)\n");  // keep the timed calls observable
  }
}

int Main(int argc, char** argv) {
  const Flags flags = ParseDeltaFlags(argc, argv);
  const bool ok = RunCyclesSection(flags);
  RunCommitCostSection(flags);
  if (!ok) {
    std::fprintf(stderr, "delta control exceeded the full-matrix baseline; see above\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bcc::bench

int main(int argc, char** argv) { return bcc::bench::Main(argc, argv); }
