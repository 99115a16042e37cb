// Byte-identity oracle for whole broadcast cycles: hashes every frame byte
// EncodeCycleFrames produces for seeded Table 1 snapshots, in every control
// mode, at several stamp widths and two frame sizes. The constants were
// captured from the per-bit codec this word-level one replaced; a mismatch
// means the on-air bytes changed.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "channel/frame.h"
#include "codec_corpus.h"

namespace bcc {
namespace {

uint64_t Fnv1a(uint64_t h, uint8_t byte) { return (h ^ byte) * 0x100000001b3ull; }

/// FNV-1a over the frame count, then each frame's size and bytes.
uint64_t HashFrames(const std::vector<Frame>& frames) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int k = 0; k < 8; ++k) h = Fnv1a(h, static_cast<uint8_t>(frames.size() >> (8 * k)));
  for (const Frame& f : frames) {
    for (int k = 0; k < 8; ++k) h = Fnv1a(h, static_cast<uint8_t>(f.bytes.size() >> (8 * k)));
    for (const uint8_t b : f.bytes) h = Fnv1a(h, b);
  }
  return h;
}

struct GoldenCycle {
  CorpusMode mode;
  unsigned ts_bits;
  uint64_t frame_bits;
  size_t frames;
  uint64_t hash;
};

void PrintTo(const GoldenCycle& g, std::ostream* os) {
  *os << CorpusModeName(g.mode) << "_ts" << g.ts_bits << "_f" << g.frame_bits;
}

class FrameGoldenTest : public ::testing::TestWithParam<GoldenCycle> {};

TEST_P(FrameGoldenTest, CycleBytesMatchThePerBitCodec) {
  const GoldenCycle& g = GetParam();
  const FrameCodec codec(CycleStampCodec(g.ts_bits), g.frame_bits);
  const CycleSnapshot snap = CorpusSnapshot(g.mode, g.ts_bits, /*seed=*/1999 + g.ts_bits);
  const std::vector<Frame> frames = EncodeCycleFrames(snap, codec, kCorpusObjectBits);
  char actual[160];
  std::snprintf(actual, sizeof(actual), "%s ts=%u frame_bits=%" PRIu64 ": %zu frames, hash 0x%016" PRIx64,
                CorpusModeName(g.mode).c_str(), g.ts_bits, g.frame_bits, frames.size(),
                HashFrames(frames));
  EXPECT_EQ(frames.size(), g.frames) << actual;
  EXPECT_EQ(HashFrames(frames), g.hash) << actual;
}

constexpr GoldenCycle kGolden[] = {
    {CorpusMode::kFullDense, 1, 512, 6301, 0x30bbbba8114c4831ull},
    {CorpusMode::kFullDense, 1, 1000, 3001, 0xd9e5bcd815cf7ff0ull},
    {CorpusMode::kFullDense, 3, 512, 6901, 0xc98b7b87042a0438ull},
    {CorpusMode::kFullDense, 3, 1000, 3301, 0xaaf0b5d7ffc81235ull},
    {CorpusMode::kFullDense, 8, 512, 7801, 0x2e7f23205ef812c1ull},
    {CorpusMode::kFullDense, 8, 1000, 3901, 0x06dc4d5a567c6a31ull},
    {CorpusMode::kFullDense, 13, 512, 9001, 0x715c4fc85978eb0aull},
    {CorpusMode::kFullDense, 13, 1000, 4501, 0xbc4c5e5b9034fb46ull},
    {CorpusMode::kFullDense, 32, 512, 13801, 0xa379712a5a90da83ull},
    {CorpusMode::kFullDense, 32, 1000, 6301, 0x68a31e89d4aeb52dull},
    {CorpusMode::kFullSparse, 1, 512, 6301, 0x30bbbba8114c4831ull},
    {CorpusMode::kFullSparse, 1, 1000, 3001, 0xd9e5bcd815cf7ff0ull},
    {CorpusMode::kFullSparse, 3, 512, 6901, 0xc98b7b87042a0438ull},
    {CorpusMode::kFullSparse, 3, 1000, 3301, 0xaaf0b5d7ffc81235ull},
    {CorpusMode::kFullSparse, 8, 512, 7801, 0x2e7f23205ef812c1ull},
    {CorpusMode::kFullSparse, 8, 1000, 3901, 0x06dc4d5a567c6a31ull},
    {CorpusMode::kFullSparse, 13, 512, 9001, 0x715c4fc85978eb0aull},
    {CorpusMode::kFullSparse, 13, 1000, 4501, 0xbc4c5e5b9034fb46ull},
    {CorpusMode::kFullSparse, 32, 512, 13801, 0xa379712a5a90da83ull},
    {CorpusMode::kFullSparse, 32, 1000, 6301, 0x68a31e89d4aeb52dull},
    {CorpusMode::kDelta, 1, 512, 6019, 0x857812449b020031ull},
    {CorpusMode::kDelta, 1, 1000, 2710, 0xe160ec49ee5e9dd7ull},
    {CorpusMode::kDelta, 3, 512, 6021, 0xb089b6cbc3966679ull},
    {CorpusMode::kDelta, 3, 1000, 3011, 0xc1f448f68dd25b09ull},
    {CorpusMode::kDelta, 8, 512, 6026, 0xe09788e06f4b806full},
    {CorpusMode::kDelta, 8, 1000, 3013, 0x25711f4a20dcea16ull},
    {CorpusMode::kDelta, 13, 512, 6032, 0x019cca3ec2e0831full},
    {CorpusMode::kDelta, 13, 1000, 3015, 0x13a33cfed54b0924ull},
    {CorpusMode::kDelta, 32, 512, 6352, 0xef955393f4ecdbfaull},
    {CorpusMode::kDelta, 32, 1000, 3024, 0xf3c897dc882dee91ull},
    {CorpusMode::kRefresh, 1, 512, 6214, 0xb2467b23ef976485ull},
    {CorpusMode::kRefresh, 1, 1000, 2800, 0xf0977aff18a45213ull},
    {CorpusMode::kRefresh, 3, 512, 6643, 0xdb3c856158775442ull},
    {CorpusMode::kRefresh, 3, 1000, 3299, 0x2da211522fd79c46ull},
    {CorpusMode::kRefresh, 8, 512, 7732, 0xc4ae1f1d39642354ull},
    {CorpusMode::kRefresh, 8, 1000, 3798, 0xd35f1fa3a9c22c3full},
    {CorpusMode::kRefresh, 13, 512, 8848, 0x87ca502a3a46cae9ull},
    {CorpusMode::kRefresh, 13, 1000, 4303, 0xc4a5bde08abc9369ull},
    {CorpusMode::kRefresh, 32, 512, 13648, 0x90bfb45e364fca0bull},
    {CorpusMode::kRefresh, 32, 1000, 6274, 0xf52f0dc785cdb72cull},
};

INSTANTIATE_TEST_SUITE_P(TableOne, FrameGoldenTest, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<GoldenCycle>& info) {
                           std::string name = CorpusModeName(info.param.mode);
                           name += "_ts" + std::to_string(info.param.ts_bits);
                           name += "_f" + std::to_string(info.param.frame_bits);
                           return name;
                         });

}  // namespace
}  // namespace bcc
