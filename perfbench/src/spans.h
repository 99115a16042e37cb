// In-memory span log for the traced benchmark run.
//
// The benchmark drives each layer through its public entry points and wraps
// every call in a span: layer name, start, end, the enclosing span, and the
// broadcast cycle the call served (the id shared by all spans of one cycle).
// Spans stay in memory while the run executes and are written out once at
// the end. A layer's self time is its span's duration minus the part its
// child spans cover.
#ifndef BCCBENCH_SPANS_H_
#define BCCBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace bccbench {

/// One benchmark-visible layer boundary (the public call a span wraps).
enum class Layer : uint8_t {
  kCycle,           ///< one broadcast cycle's server step (root span)
  kServerCommit,    ///< ServerTxnManager::ExecuteAndCommit
  kServerFold,      ///< commit-batch fold: manager flush / FoldIntoManager
  kServerSnapshot,  ///< BroadcastServer::BeginCycle
  kUplinkValidate,  ///< UpdateValidator::ValidateAndCommit
  kExecSerial,      ///< TxnProcessor::ExecuteSerial
  kExecBatch,       ///< TxnProcessor::ExecuteBatch
  kChannelEncode,   ///< EncodeCycleFramesInto
  kNetPack,         ///< PackCycleDatagrams
  kNetSend,         ///< UdpSocket::SendBatch
  kNetRecv,         ///< UdpSocket::RecvBatch + DecodeCycleData
  kClientIngest,    ///< ChannelReceiver::IngestCycle
  kClientRead,      ///< ReadOnlyTxnProtocol::Read
};
inline constexpr size_t kNumLayers = 13;

const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t cycle = 0;
  uint32_t parent = 0;
  Layer layer = Layer::kCycle;
};

/// Per-layer totals over every span recorded so far.
struct LayerTotals {
  uint64_t calls = 0;
  int64_t self_ns = 0;
};

class SpanLog {
 public:
  static constexpr uint32_t kNoSpan = UINT32_MAX;

  /// A disabled log records nothing; Open/Close cost one branch.
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_cycle(uint64_t cycle) { cycle_ = cycle; }

  uint32_t Open(Layer layer) {
    if (!enabled_) return kNoSpan;
    const uint32_t index = static_cast<uint32_t>(spans_.size());
    Span span;
    span.cycle = cycle_;
    span.parent = stack_.empty() ? kNoSpan : stack_.back();
    span.layer = layer;
    span.start_ns = NowNs();
    spans_.push_back(span);
    stack_.push_back(index);
    return index;
  }

  void Close(uint32_t index) {
    if (index == kNoSpan) return;
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time and call count per layer.
  std::array<LayerTotals, kNumLayers> Totals() const;

  /// Writes every span as CSV (layer,cycle,parent,start_ns,end_ns). Returns
  /// false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  uint64_t cycle_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

/// RAII span: opens on construction, closes at scope exit.
class Scoped {
 public:
  Scoped(SpanLog& log, Layer layer) : log_(log), index_(log.Open(layer)) {}
  ~Scoped() { log_.Close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  uint32_t index_;
};

}  // namespace bccbench

#endif  // BCCBENCH_SPANS_H_
