// Seeded Table 1 broadcast snapshots (n = 300 objects of 1 KB) shared by the
// frame-codec golden, differential and fuzz tests. Every mode the encoder
// knows is covered: full mode over the dense and the sparse matrix, and
// snapshot+delta mode with a delta block or a full refresh.

#ifndef BCC_TESTS_CODEC_CORPUS_H_
#define BCC_TESTS_CODEC_CORPUS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "matrix/f_matrix.h"
#include "matrix/sparse_f_matrix.h"
#include "matrix/wire.h"
#include "server/broadcast_server.h"
#include "server/delta_broadcast.h"

namespace bcc {

inline constexpr uint32_t kCorpusObjects = 300;              // Table 1 n
inline constexpr uint64_t kCorpusObjectBits = 8 * 1024;      // Table 1 object size
inline constexpr Cycle kCorpusCycle = 70001;

enum class CorpusMode { kFullDense, kFullSparse, kDelta, kRefresh };

inline std::string CorpusModeName(CorpusMode mode) {
  switch (mode) {
    case CorpusMode::kFullDense:
      return "full_dense";
    case CorpusMode::kFullSparse:
      return "full_sparse";
    case CorpusMode::kDelta:
      return "delta";
    case CorpusMode::kRefresh:
      return "refresh";
  }
  return "?";
}

/// Column-major stamps: about a third stamped within the last 200 cycles,
/// the rest at cycle 0.
inline std::vector<Cycle> CorpusStamps(Rng& rng) {
  std::vector<Cycle> stamps(static_cast<size_t>(kCorpusObjects) * kCorpusObjects, 0);
  for (Cycle& c : stamps) {
    if (rng.NextBounded(3) == 0) c = kCorpusCycle - 1 - rng.NextBounded(200);
  }
  return stamps;
}

inline FMatrix CorpusMatrix(const std::vector<Cycle>& stamps) {
  FMatrix m(kCorpusObjects);
  for (ObjectId j = 0; j < kCorpusObjects; ++j) {
    for (ObjectId i = 0; i < kCorpusObjects; ++i) {
      m.Set(i, j, stamps[static_cast<size_t>(j) * kCorpusObjects + i]);
    }
  }
  return m;
}

/// The beginning-of-cycle snapshot of cycle kCorpusCycle for `mode`.
inline CycleSnapshot CorpusSnapshot(CorpusMode mode, unsigned ts_bits, uint64_t seed) {
  Rng rng(seed);
  CycleSnapshot snap;
  snap.cycle = kCorpusCycle;
  snap.values.resize(kCorpusObjects);
  for (ObjectVersion& v : snap.values) {
    v.value = rng.NextU64();
    v.writer = static_cast<TxnId>(rng.NextU64());
    v.cycle = kCorpusCycle - 1 - rng.NextBounded(500);
  }
  std::vector<Cycle> stamps = CorpusStamps(rng);
  const FMatrix prev = CorpusMatrix(stamps);
  for (int k = 0; k < 400; ++k) stamps[rng.NextBounded(stamps.size())] = kCorpusCycle - 1;
  const FMatrix cur = CorpusMatrix(stamps);
  if (mode == CorpusMode::kFullSparse) {
    snap.f_matrix = SparseFMatrix::FromDense(cur);
    return snap;
  }
  snap.f_matrix = cur.Snapshot();
  if (mode == CorpusMode::kDelta || mode == CorpusMode::kRefresh) {
    DeltaControl delta;
    delta.cycle = kCorpusCycle;
    delta.base_cycle = kCorpusCycle - 1;
    delta.full_refresh = mode == CorpusMode::kRefresh;
    if (!delta.full_refresh) delta.entries = DeltaCodec::Diff(prev, cur, CycleStampCodec(ts_bits));
    snap.delta = std::move(delta);
  }
  return snap;
}

}  // namespace bcc

#endif  // BCC_TESTS_CODEC_CORPUS_H_
