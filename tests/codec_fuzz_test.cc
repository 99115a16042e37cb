// Seeded mutational fuzz suite for the broadcast decoders. Golden frames and
// datagrams of seeded Table 1 cycles are mutated — bit flips, truncation,
// extension, splicing, and length/sequence field edits with the CRC
// re-sealed so the framing checks decide — and fed to every decoder a
// client runs on received bytes. The word-level loads are where an
// out-of-bounds read would come from, so the suite runs under ASan + UBSan
// in CI; here it asserts the decoders' documented contracts and that the
// frame decoder agrees with the per-bit reference on every mutant. The
// iteration budget is fixed, so every run sees the same inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "channel/frame.h"
#include "client/delta_tracker.h"
#include "client/receiver.h"
#include "codec_corpus.h"
#include "common/rng.h"
#include "matrix/wire.h"
#include "net/datagram.h"
#include "reference_codec.h"

namespace bcc {
namespace {

// Mutants per corpus, and whole damaged cycles per receiver test: about two
// seconds on one core of a RelWithDebInfo build.
constexpr int kMutants = 40000;
constexpr int kDamagedCycles = 100;
constexpr size_t kDatagramBytes = 1400;
// kCycleData field offsets: magic u16 + kind u8, then cycle u64, dgram_seq,
// dgram_count, frame_count, cycle_frames and frame_bytes as u16.
constexpr size_t kFrameCountOffset = 3 + 8 + 2 + 2;
constexpr size_t kFrameBytesOffset = kFrameCountOffset + 2 + 2;

struct Corpus {
  FrameCodec codec;
  std::vector<Frame> frames;
  std::vector<std::vector<uint8_t>> datagrams;
};

Corpus MakeCorpus(CorpusMode mode, unsigned ts_bits, uint64_t frame_bits) {
  Corpus c{FrameCodec(CycleStampCodec(ts_bits), frame_bits), {}, {}};
  c.frames = EncodeCycleFrames(CorpusSnapshot(mode, ts_bits, /*seed=*/77), c.codec,
                               kCorpusObjectBits);
  c.datagrams = PackCycleDatagrams(kCorpusCycle, c.frames, kDatagramBytes);
  return c;
}

void PutU16(std::vector<uint8_t>& bytes, size_t at, uint16_t v) {
  if (at + 2 > bytes.size()) return;
  bytes[at] = static_cast<uint8_t>(v);
  bytes[at + 1] = static_cast<uint8_t>(v >> 8);
}

/// One random mutation of `bytes`; `other` is a splice donor.
void Mutate(Rng& rng, std::vector<uint8_t>& bytes, const std::vector<uint8_t>& other) {
  switch (rng.NextBounded(4)) {
    case 0:  // bit flips
      for (uint64_t k = 1 + rng.NextBounded(8); k > 0 && !bytes.empty(); --k) {
        bytes[rng.NextBounded(bytes.size())] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      break;
    case 1:  // truncation
      bytes.resize(rng.NextBounded(bytes.size() + 1));
      break;
    case 2:  // extension
      for (uint64_t k = 1 + rng.NextBounded(16); k > 0; --k) {
        bytes.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      break;
    default: {  // splice: a prefix of this, the tail of the donor
      const size_t cut = rng.NextBounded(bytes.size() + 1);
      const size_t from = rng.NextBounded(other.size() + 1);
      bytes.resize(cut);
      bytes.insert(bytes.end(), other.begin() + static_cast<std::ptrdiff_t>(from), other.end());
      break;
    }
  }
}

/// Rewrites a frame's header fields at random and re-seals its CRC, so the
/// frame reaches the header checks instead of failing the CRC.
void EditHeader(Rng& rng, const FrameCodec& codec, Frame& frame) {
  const unsigned ts = codec.stamp_codec().bits();
  // kind 3 bits at ts, stream 20, seq 16, last 1, payload length 16.
  const unsigned offsets[] = {ts, ts + 3, ts + 23, ts + 39, ts + 40};
  const unsigned widths[] = {3, 20, 16, 1, 16};
  const size_t field = rng.NextBounded(5);
  for (unsigned b = 0; b < widths[field]; ++b) {
    const unsigned bit = offsets[field] + b;
    frame.bytes[bit / 8] &= static_cast<uint8_t>(~(1u << (bit % 8)));
    if (rng.NextBounded(2) == 0) frame.bytes[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
  }
  const size_t body = frame.bytes.size() - 4;
  const uint32_t crc = Crc32(std::span<const uint8_t>(frame.bytes.data(), body));
  for (int k = 0; k < 4; ++k) frame.bytes[body + k] = static_cast<uint8_t>(crc >> (8 * k));
}

/// Every payload decoder on `bytes` read as `bits` bits; none may crash or
/// return anything outside its contract.
void DecodePayloads(const FrameCodec& codec, const std::vector<uint8_t>& bytes, uint64_t bits) {
  const Payload payload{bytes, bits};
  const StatusOr<CycleIndex> index = DecodeIndexPayload(payload);
  if (index.ok()) {
    EXPECT_LE(index->control_mode, CycleIndex::kControlRefresh);
  }
  (void)DecodeObjectPayload(payload);
  const StatusOr<std::vector<Cycle>> stamps =
      UnpackStamps(bytes, kCorpusObjects, codec.stamp_codec(), kCorpusCycle);
  if (stamps.ok()) {
    ASSERT_EQ(stamps->size(), kCorpusObjects);
    for (const Cycle c : *stamps) EXPECT_LE(c, kCorpusCycle);
  }
  const StatusOr<std::vector<DeltaCodec::Entry>> entries =
      DeltaCodec::Unpack(bytes, kCorpusObjects, codec.stamp_codec());
  if (entries.ok()) {
    for (const DeltaCodec::Entry& e : *entries) {
      EXPECT_LT(e.row, kCorpusObjects);
      EXPECT_LT(e.col, kCorpusObjects);
    }
  }
}

TEST(CodecFuzzTest, MutatedFramesNeverCrashTheDecoders) {
  Rng rng(0xF00D);
  for (const Corpus& c : {MakeCorpus(CorpusMode::kFullDense, 8, 512),
                          MakeCorpus(CorpusMode::kDelta, 13, 1000),
                          MakeCorpus(CorpusMode::kRefresh, 3, 512)}) {
    StreamReassembler stream;
    Payload taken;
    for (int it = 0; it < kMutants; ++it) {
      Frame frame = c.frames[rng.NextBounded(c.frames.size())];
      if (rng.NextBounded(3) == 0) {
        EditHeader(rng, c.codec, frame);
      } else {
        Mutate(rng, frame.bytes, c.frames[rng.NextBounded(c.frames.size())].bytes);
      }
      const StatusOr<DecodedFrame> got = c.codec.Decode(frame);
      const StatusOr<DecodedFrame> want = ref::Decode(c.codec, frame);
      ASSERT_EQ(got.ok(), want.ok()) << "iteration " << it;
      if (!got.ok()) continue;
      ASSERT_EQ(got->payload.bytes, want->payload.bytes) << "iteration " << it;
      EXPECT_LE(got->header.payload_bits, c.codec.payload_capacity_bits());
      EXPECT_EQ(got->payload.bytes.size(), (got->header.payload_bits + 7) / 8);

      // Accepted mutants go through reassembly and every payload decoder.
      if (it % 64 == 0) stream.Clear();
      stream.Add(*got);
      if (stream.complete()) {
        stream.Take(&taken);
        DecodePayloads(c.codec, taken.bytes, taken.bits);
      }
      DecodePayloads(c.codec, got->payload.bytes, got->payload.bits);
    }
  }
}

TEST(CodecFuzzTest, MutatedPayloadsNeverCrashThePayloadDecoders) {
  Rng rng(0xBEEF);
  const Corpus c = MakeCorpus(CorpusMode::kDelta, 8, 512);
  const CycleSnapshot snap = CorpusSnapshot(CorpusMode::kDelta, 8, /*seed=*/77);
  CycleIndex index;
  index.control_mode = CycleIndex::kControlDelta;
  index.num_objects = kCorpusObjects;
  std::vector<Cycle> scratch;
  const std::vector<std::vector<uint8_t>> payloads = {
      EncodeIndexPayload(index).bytes,
      EncodeObjectPayload(snap.values[0], kCorpusObjectBits).bytes,
      PackStamps(snap.f_matrix.Column(7, scratch), c.codec.stamp_codec()),
      DeltaCodec::Pack(snap.delta->entries, kCorpusObjects, c.codec.stamp_codec()),
  };
  for (int it = 0; it < kMutants; ++it) {
    std::vector<uint8_t> bytes = payloads[rng.NextBounded(payloads.size())];
    Mutate(rng, bytes, payloads[rng.NextBounded(payloads.size())]);
    // The claimed size may disagree with the bytes either way.
    const uint64_t bits = rng.NextBounded(2) == 0 ? bytes.size() * 8 : rng.NextBounded(9000);
    DecodePayloads(c.codec, bytes, bits);
  }
}

/// Feeds `dgrams` through DecodeCycleData into both receiver modes.
void IngestDatagrams(const std::vector<std::vector<uint8_t>>& dgrams, ChannelReceiver& full,
                     ChannelReceiver& delta) {
  Transmission tx;
  for (const std::vector<uint8_t>& d : dgrams) {
    const StatusOr<CycleDataMsg> msg = DecodeCycleData(d);
    if (!msg.ok()) continue;
    EXPECT_LE(msg->frames.size(), msg->header.frame_count);
    for (const Frame& f : msg->frames) {
      EXPECT_EQ(f.bytes.size(), msg->header.frame_bytes);
      tx.frames.push_back(Delivery{f, false});
    }
  }
  tx.sent = tx.frames.size();
  full.IngestCycle(kCorpusCycle, tx);
  delta.IngestCycle(kCorpusCycle, tx);
  EXPECT_EQ(full.stats().frames_delivered, delta.stats().frames_delivered);
}

TEST(CodecFuzzTest, MutatedDatagramsNeverCrashTheReceiver) {
  Rng rng(0xD06);
  for (const Corpus& c : {MakeCorpus(CorpusMode::kFullDense, 8, 512),
                          MakeCorpus(CorpusMode::kRefresh, 13, 1000)}) {
    DeltaMatrixTracker tracker(kCorpusObjects, c.codec.stamp_codec());
    ChannelReceiver full(kCorpusObjects, c.codec, nullptr);
    ChannelReceiver delta(kCorpusObjects, c.codec, &tracker);
    for (int it = 0; it < kDamagedCycles; ++it) {
      // A whole cycle with a few damaged, duplicated and reordered datagrams.
      std::vector<std::vector<uint8_t>> dgrams = c.datagrams;
      for (uint64_t k = 1 + rng.NextBounded(6); k > 0; --k) {
        std::vector<uint8_t>& d = dgrams[rng.NextBounded(dgrams.size())];
        switch (rng.NextBounded(3)) {
          case 0:
            Mutate(rng, d, c.datagrams[rng.NextBounded(c.datagrams.size())]);
            break;
          case 1:  // frame-count edit
            PutU16(d, kFrameCountOffset, static_cast<uint16_t>(rng.NextBounded(1 << 16)));
            break;
          default:  // frame-size edit
            PutU16(d, kFrameBytesOffset, static_cast<uint16_t>(rng.NextBounded(200)));
            break;
        }
      }
      dgrams.push_back(dgrams[rng.NextBounded(dgrams.size())]);
      for (size_t i = dgrams.size(); i > 1; --i) {
        std::swap(dgrams[i - 1], dgrams[rng.NextBounded(i)]);
      }
      IngestDatagrams(dgrams, full, delta);
    }
    // Undamaged, the same receivers recover the whole cycle.
    IngestDatagrams(c.datagrams, full, delta);
    for (ObjectId j = 0; j < kCorpusObjects; ++j) {
      EXPECT_TRUE(full.DataUsable(j, kCorpusCycle)) << j;
    }
  }
}

TEST(CodecFuzzTest, MutatedFramesMixedIntoACycleNeverCrashTheReceiver) {
  Rng rng(0xCAFE);
  const Corpus c = MakeCorpus(CorpusMode::kFullDense, 8, 512);
  ChannelReceiver receiver(kCorpusObjects, c.codec, nullptr);
  for (int it = 0; it < kDamagedCycles; ++it) {
    Transmission tx;
    for (const Frame& f : c.frames) {
      if (rng.NextBounded(50) == 0) continue;  // lost
      Delivery d{f, false};
      if (rng.NextBounded(20) == 0) {
        d.corrupted = true;
        if (rng.NextBounded(2) == 0) {
          EditHeader(rng, c.codec, d.frame);
        } else {
          Mutate(rng, d.frame.bytes, c.frames[rng.NextBounded(c.frames.size())].bytes);
        }
      }
      tx.frames.push_back(std::move(d));
      if (rng.NextBounded(30) == 0) tx.frames.push_back(tx.frames.back());  // duplicate
    }
    for (size_t i = tx.frames.size(); i > 1; --i) {
      if (rng.NextBounded(10) == 0) std::swap(tx.frames[i - 1], tx.frames[rng.NextBounded(i)]);
    }
    tx.sent = c.frames.size();
    receiver.IngestCycle(kCorpusCycle, tx);
  }
  const ChannelStats& s = receiver.stats();
  EXPECT_GT(s.frames_rejected, 0u);
  EXPECT_GT(s.control_losses + s.data_losses, 0u);
}

}  // namespace
}  // namespace bcc
