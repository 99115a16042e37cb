#include "sim/metrics.h"

#include <algorithm>

#include "common/format.h"
#include "obs/json.h"

namespace bcc {

std::string SimSummary::ToString() const {
  std::string out = StrFormat(
      "response=%.3e +-%.2e (p50=%.3e p95=%.3e) restarts/txn=%.3f txns=%llu "
      "cycles=%llu serverCommits=%llu censored=%llu",
      mean_response_time, response_ci_half_width, response_p50, response_p95, restart_ratio,
      static_cast<unsigned long long>(measured_txns),
      static_cast<unsigned long long>(cycles_elapsed),
      static_cast<unsigned long long>(server_commits),
      static_cast<unsigned long long>(censored_txns));
  if (cache_hits > 0 || cache_misses > 0) {
    out += StrFormat(" cacheHits=%llu cacheMisses=%llu",
                     static_cast<unsigned long long>(cache_hits),
                     static_cast<unsigned long long>(cache_misses));
  }
  if (client_update_commits > 0 || client_update_rejects > 0) {
    out += StrFormat(" clientUpdateCommits=%llu clientUpdateRejects=%llu",
                     static_cast<unsigned long long>(client_update_commits),
                     static_cast<unsigned long long>(client_update_rejects));
  }
  if (abort_causes.TotalAborts() > 0 || abort_causes.Count(AbortCause::kCensored) > 0) {
    out += StrFormat(" aborts(%s)", abort_causes.ToString().c_str());
  }
  if (delta_cycles > 0) {
    out += StrFormat(" deltaCycles=%llu refreshes=%llu deltaBits=%llu fullBits=%llu stalls=%llu",
                     static_cast<unsigned long long>(delta_cycles),
                     static_cast<unsigned long long>(delta_refresh_cycles),
                     static_cast<unsigned long long>(delta_control_bits),
                     static_cast<unsigned long long>(full_control_bits),
                     static_cast<unsigned long long>(delta_stall_waits));
  }
  if (matrix_cycles > 0) {
    out += StrFormat(" matrixNnz=%llu matrixBytes/cycle=%.3e",
                     static_cast<unsigned long long>(matrix_nnz),
                     matrix_control_bytes_per_cycle);
    if (sparse_compaction_drops > 0) {
      out += StrFormat(" compactionDrops=%llu",
                       static_cast<unsigned long long>(sparse_compaction_drops));
    }
  }
  if (channel.frames_sent > 0) {
    out += StrFormat(
        " channel(sent=%llu dropped=%llu corrupted=%llu rejected=%llu stalls=%llu "
        "resyncs=%llu desyncs=%llu lossAborts=%llu)",
        static_cast<unsigned long long>(channel.frames_sent),
        static_cast<unsigned long long>(channel.frames_dropped),
        static_cast<unsigned long long>(channel.frames_corrupted + channel.frames_truncated),
        static_cast<unsigned long long>(channel.frames_rejected),
        static_cast<unsigned long long>(channel.stalls),
        static_cast<unsigned long long>(channel.resyncs),
        static_cast<unsigned long long>(channel.tracker_desyncs),
        static_cast<unsigned long long>(channel.loss_attributed_aborts));
  }
  return out;
}

void SimMetrics::RecordClientTxn(SimTime submit, SimTime commit, uint32_t restarts,
                                 bool censored) {
  ++total_txns_;
  censored_ += censored;
  if (total_txns_ <= warmup_txns_) return;
  const double response = static_cast<double>(commit - submit);
  response_.Add(response);
  // Algorithm R reservoir: exact while under capacity, then each later
  // response replaces a uniformly random slot with probability cap/seen. The
  // RNG is fixed-seeded and consumed only on the over-capacity path, so runs
  // that never exceed the reservoir are bit-identical to the old exact sort.
  ++reservoir_seen_;
  if (responses_.size() < kReservoirCapacity) {
    responses_.push_back(response);
  } else {
    const uint64_t slot = reservoir_rng_.NextBounded(reservoir_seen_);
    if (slot < kReservoirCapacity) responses_[slot] = response;
  }
  restarts_.Add(static_cast<double>(restarts));
  total_restarts_measured_ += restarts;
}

SimSummary SimMetrics::Summarize(uint64_t cycles, SimTime end_time, uint64_t cache_hits,
                                 uint64_t cache_misses) const {
  SimSummary s;
  s.mean_response_time = response_.mean();
  s.response_ci_half_width = response_.ConfidenceHalfWidth(0.95);
  s.restart_ratio = restarts_.mean();
  s.measured_txns = response_.count();
  s.total_txns = total_txns_;
  s.total_restarts = total_restarts_measured_;
  s.cycles_elapsed = cycles;
  s.server_commits = server_commits_;
  s.sim_end_time = end_time;
  s.censored_txns = censored_;
  s.cache_hits = cache_hits;
  s.cache_misses = cache_misses;
  s.client_update_commits = client_update_commits_;
  s.client_update_rejects = client_update_rejects_;
  s.delta_cycles = delta_cycles_;
  s.delta_refresh_cycles = delta_refresh_cycles_;
  s.delta_control_bits = delta_control_bits_;
  s.full_control_bits = full_control_bits_;
  s.delta_stall_waits = delta_stall_waits_;
  s.matrix_cycles = matrix_cycles_;
  s.matrix_control_bits = matrix_control_bits_;
  if (matrix_cycles_ > 0) {
    s.matrix_control_bytes_per_cycle =
        static_cast<double>(matrix_control_bits_) / 8.0 / static_cast<double>(matrix_cycles_);
  }
  s.sparse_compaction_drops = sparse_compaction_drops_;
  s.channel = channel_;
  s.abort_causes = abort_causes_;
  if (!responses_.empty()) {
    std::vector<double> sorted = responses_;
    std::sort(sorted.begin(), sorted.end());
    auto quantile = [&sorted](double p) {
      const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
      return sorted[idx];
    };
    s.response_p50 = quantile(0.5);
    s.response_p95 = quantile(0.95);
  }
  return s;
}

std::string SimSummary::ToJson() const {
  JsonWriter w;
  w.BeginObject()
      .Key("mean_response_time")
      .Value(mean_response_time)
      .Key("response_ci_half_width")
      .Value(response_ci_half_width)
      .Key("response_p50")
      .Value(response_p50)
      .Key("response_p95")
      .Value(response_p95)
      .Key("restart_ratio")
      .Value(restart_ratio)
      .Key("measured_txns")
      .Value(measured_txns)
      .Key("total_txns")
      .Value(total_txns)
      .Key("total_restarts")
      .Value(total_restarts)
      .Key("cycles_elapsed")
      .Value(cycles_elapsed)
      .Key("server_commits")
      .Value(server_commits)
      .Key("sim_end_time")
      .Value(sim_end_time)
      .Key("censored_txns")
      .Value(censored_txns)
      .Key("cache_hits")
      .Value(cache_hits)
      .Key("cache_misses")
      .Value(cache_misses)
      .Key("client_update_commits")
      .Value(client_update_commits)
      .Key("client_update_rejects")
      .Value(client_update_rejects)
      .Key("delta_cycles")
      .Value(delta_cycles)
      .Key("delta_refresh_cycles")
      .Value(delta_refresh_cycles)
      .Key("delta_control_bits")
      .Value(delta_control_bits)
      .Key("full_control_bits")
      .Value(full_control_bits)
      .Key("delta_stall_waits")
      .Value(delta_stall_waits)
      .Key("matrix_nnz")
      .Value(matrix_nnz)
      .Key("matrix_cycles")
      .Value(matrix_cycles)
      .Key("matrix_control_bits")
      .Value(matrix_control_bits)
      .Key("matrix_control_bytes_per_cycle")
      .Value(matrix_control_bytes_per_cycle)
      .Key("sparse_compaction_drops")
      .Value(sparse_compaction_drops);
  w.Key("abort_causes").BeginObject();
  for (size_t c = 1; c < kNumAbortCauses; ++c) {
    w.Key(AbortCauseName(static_cast<AbortCause>(c))).Value(abort_causes.counts[c]);
  }
  w.Key("total").Value(abort_causes.TotalAborts()).EndObject();
  w.Key("channel")
      .BeginObject()
      .Key("frames_sent")
      .Value(channel.frames_sent)
      .Key("frames_dropped")
      .Value(channel.frames_dropped)
      .Key("frames_corrupted")
      .Value(channel.frames_corrupted)
      .Key("frames_truncated")
      .Value(channel.frames_truncated)
      .Key("frames_delivered")
      .Value(channel.frames_delivered)
      .Key("frames_rejected")
      .Value(channel.frames_rejected)
      .Key("frames_delivered_corrupt")
      .Value(channel.frames_delivered_corrupt)
      .Key("data_losses")
      .Value(channel.data_losses)
      .Key("control_losses")
      .Value(channel.control_losses)
      .Key("stalls")
      .Value(channel.stalls)
      .Key("resyncs")
      .Value(channel.resyncs)
      .Key("tracker_desyncs")
      .Value(channel.tracker_desyncs)
      .Key("loss_attributed_aborts")
      .Value(channel.loss_attributed_aborts)
      .EndObject();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace bcc
