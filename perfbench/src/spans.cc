#include "spans.h"

#include <cstdio>

namespace bccbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCycle:
      return "cycle";
    case Layer::kServerCommit:
      return "server.commit";
    case Layer::kServerFold:
      return "server.fold";
    case Layer::kServerSnapshot:
      return "server.snapshot";
    case Layer::kUplinkValidate:
      return "server.uplink_validate";
    case Layer::kExecSerial:
      return "exec.serial";
    case Layer::kExecBatch:
      return "exec.batch";
    case Layer::kChannelEncode:
      return "channel.encode";
    case Layer::kNetPack:
      return "net.pack";
    case Layer::kNetSend:
      return "net.send";
    case Layer::kNetRecv:
      return "net.recv";
    case Layer::kClientIngest:
      return "client.ingest";
    case Layer::kClientRead:
      return "client.read";
  }
  return "?";
}

std::array<LayerTotals, kNumLayers> SpanLog::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoSpan) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::array<LayerTotals, kNumLayers> totals{};
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = totals[static_cast<size_t>(spans_[i].layer)];
    ++t.calls;
    t.self_ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
  }
  return totals;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "layer,cycle,parent,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%lld,%lld,%lld\n", LayerName(s.layer),
                 static_cast<unsigned long long>(s.cycle),
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace bccbench
