// Differential property tests: the word-level bit codec, sliced CRC32, frame
// codec and flat stream reassembler against the per-bit reference in
// reference_codec.h, over random widths, alignments, bulk-copy lengths and
// frame geometries (non-byte-aligned headers included), and over mutated
// frames, which both sides must accept or reject alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "channel/frame.h"
#include "common/bitstream.h"
#include "common/rng.h"
#include "reference_codec.h"

namespace bcc {
namespace {

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

TEST(BitCodecDifferentialTest, WriterMatchesPerBitReference) {
  Rng rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    // Every other writer adopts a used buffer, whose contents must not leak.
    BitWriter w = trial % 2 == 0 ? BitWriter() : BitWriter(RandomBytes(rng, 1 + trial % 40));
    ref::BitWriter r;
    for (int op = 0; op < 40; ++op) {
      if (rng.NextBounded(4) == 0) {
        // Reading the bytes mid-stream pads them; writing then resumes.
        ASSERT_EQ(w.bytes(), r.bytes()) << "trial " << trial << " op " << op;
      } else {
        const unsigned bits = 1 + static_cast<unsigned>(rng.NextBounded(32));
        const uint32_t value = static_cast<uint32_t>(rng.NextU64());  // high bits masked off
        w.Write(value, bits);
        r.Write(value & static_cast<uint32_t>(LowBitMask(bits)), bits);
      }
      ASSERT_EQ(w.bit_size(), r.bit_size()) << "trial " << trial << " op " << op;
    }
    EXPECT_EQ(w.bytes(), r.bytes()) << "trial " << trial;
    EXPECT_EQ(std::move(w).Release(), r.bytes()) << "trial " << trial;
  }
}

TEST(BitCodecDifferentialTest, ReaderMatchesPerBitReference) {
  Rng rng(12);
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<uint8_t> bytes = RandomBytes(rng, rng.NextBounded(40));
    BitReader r(bytes);
    ref::BitReader ref_r(bytes);
    for (int op = 0; op < 30; ++op) {
      const unsigned bits = 1 + static_cast<unsigned>(rng.NextBounded(32));
      uint32_t got = 0, want = 0;
      const Status s = r.Read(bits, &got);
      const Status ref_s = ref_r.Read(bits, &want);
      ASSERT_EQ(s.code(), ref_s.code()) << "trial " << trial << " op " << op;
      if (s.ok()) {
        ASSERT_EQ(got, want) << "trial " << trial << " op " << op;
      }
      ASSERT_EQ(r.bits_remaining(), ref_r.bits_remaining());
    }
  }
}

/// Bit `bit` of `bytes`, zero past the end.
unsigned BitAt(std::span<const uint8_t> bytes, uint64_t bit) {
  return bit / 8 < bytes.size() ? (bytes[bit / 8] >> (bit % 8)) & 1u : 0u;
}

TEST(BitCodecDifferentialTest, WordPrimitivesMatchPerBitReference) {
  Rng rng(13);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<uint8_t> src = RandomBytes(rng, rng.NextBounded(48));
    // LoadBits anywhere, past the end included: missing bytes read as zero.
    const uint64_t at = rng.NextBounded(src.size() * 8 + 80);
    const unsigned width = static_cast<unsigned>(rng.NextBounded(kMaxWordBits + 1));
    uint64_t want = 0;
    for (unsigned b = 0; b < width; ++b) want |= uint64_t{BitAt(src, at + b)} << b;
    ASSERT_EQ(LoadBits(src, at, width), want) << "trial " << trial;

    // CopyBitRange into zeros, aligned or not.
    std::vector<uint8_t> dst(rng.NextBounded(48));
    uint64_t src_bit = rng.NextBounded(src.size() * 8 + 1);
    uint64_t dst_bit = rng.NextBounded(dst.size() * 8 + 1);
    if (rng.NextBounded(2) == 0) {
      src_bit -= src_bit % 8;
      dst_bit -= dst_bit % 8;
    }
    const uint64_t nbits =
        rng.NextBounded(std::min(src.size() * 8 - src_bit, dst.size() * 8 - dst_bit) + 1);
    CopyBitRange(dst, dst_bit, src, src_bit, nbits);
    for (uint64_t b = 0; b < dst.size() * 8; ++b) {
      const bool inside = b >= dst_bit && b < dst_bit + nbits;
      ASSERT_EQ(BitAt(dst, b), inside ? BitAt(src, src_bit + (b - dst_bit)) : 0u)
          << "trial " << trial << " bit " << b;
    }
  }
}

TEST(Crc32DifferentialTest, SlicedMatchesByteTable) {
  Rng rng(14);
  const std::vector<uint8_t> buffer = RandomBytes(rng, 600);
  for (size_t len = 0; len <= 300; ++len) {
    const size_t offset = rng.NextBounded(buffer.size() - len + 1);  // any alignment
    const std::span<const uint8_t> slice(buffer.data() + offset, len);
    ASSERT_EQ(Crc32(slice), ref::Crc32(slice)) << "len " << len << " offset " << offset;
  }
}

/// A random geometry FrameCodec::ValidateGeometry accepts, any stamp width.
FrameCodec RandomCodec(Rng& rng) {
  const unsigned ts = 1 + static_cast<unsigned>(rng.NextBounded(32));
  const uint64_t header = ts + 56;
  const uint64_t min_bits = header + FrameCodec::kCrcBits + 32;
  const uint64_t frame_bits = (min_bits + rng.NextBounded(700) + 7) / 8 * 8;
  EXPECT_TRUE(FrameCodec::ValidateGeometry(ts, frame_bits).ok());
  return FrameCodec(CycleStampCodec(ts), frame_bits);
}

void ExpectSameDecode(const StatusOr<DecodedFrame>& got, const StatusOr<DecodedFrame>& want,
                      const char* what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!got.ok()) return;
  EXPECT_EQ(got->header.cycle_residue, want->header.cycle_residue) << what;
  EXPECT_EQ(got->header.kind, want->header.kind) << what;
  EXPECT_EQ(got->header.stream_id, want->header.stream_id) << what;
  EXPECT_EQ(got->header.seq, want->header.seq) << what;
  EXPECT_EQ(got->header.last, want->header.last) << what;
  EXPECT_EQ(got->header.payload_bits, want->header.payload_bits) << what;
  EXPECT_EQ(got->payload.bits, want->payload.bits) << what;
  EXPECT_EQ(got->payload.bytes, want->payload.bytes) << what;
}

/// Re-seals a frame's CRC after a header edit, so framing checks decide.
void Reseal(Frame& f) {
  const size_t body = f.bytes.size() - 4;
  const uint32_t crc = ref::Crc32(std::span<const uint8_t>(f.bytes.data(), body));
  for (int k = 0; k < 4; ++k) f.bytes[body + k] = static_cast<uint8_t>(crc >> (8 * k));
}

TEST(FrameCodecDifferentialTest, EncodeAndDecodeMatchReferenceAtRandomGeometries) {
  Rng rng(15);
  std::vector<Frame> reused;
  for (int trial = 0; trial < 300; ++trial) {
    const FrameCodec codec = RandomCodec(rng);
    Payload payload;
    payload.bits = rng.NextBounded(3000);
    // Bytes past payload.bits are junk the encoder must ignore.
    payload.bytes = RandomBytes(rng, (payload.bits + 7) / 8 + rng.NextBounded(3));
    const auto kind = static_cast<FrameKind>(rng.NextBounded(kMaxFrameKind + 1));
    const auto stream_id = static_cast<uint32_t>(rng.NextBounded(1u << FrameCodec::kStreamIdBits));
    const Cycle cycle = rng.NextU64() >> 1;

    const std::vector<Frame> want = ref::EncodeStream(codec, kind, stream_id, cycle, payload);
    const std::vector<Frame> got = codec.EncodeStream(kind, stream_id, cycle, payload);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].bytes, want[i].bytes) << "trial " << trial << " frame " << i;
    }
    // Encoding over a reused vector of other-sized frames gives the same bytes.
    size_t used = 0;
    codec.EncodeStreamInto(kind, stream_id, cycle, payload, reused, used);
    ASSERT_EQ(used, want.size());
    for (size_t i = 0; i < used; ++i) ASSERT_EQ(reused[i].bytes, want[i].bytes);

    for (const Frame& frame : want) {
      ExpectSameDecode(codec.Decode(frame), ref::Decode(codec, frame), "intact");
      // Same decision on damaged frames: flips, truncation, extension, and
      // header edits with the CRC re-sealed so the header checks decide.
      Frame flipped = frame;
      for (uint64_t k = 1 + rng.NextBounded(3); k > 0; --k) {
        flipped.bytes[rng.NextBounded(flipped.bytes.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      ExpectSameDecode(codec.Decode(flipped), ref::Decode(codec, flipped), "flipped");
      Frame cut = frame;
      cut.bytes.resize(rng.NextBounded(cut.bytes.size()));
      ExpectSameDecode(codec.Decode(cut), ref::Decode(codec, cut), "truncated");
      Frame longer = frame;
      longer.bytes.push_back(static_cast<uint8_t>(rng.NextU64()));
      ExpectSameDecode(codec.Decode(longer), ref::Decode(codec, longer), "extended");
      Frame edited = frame;
      const uint64_t header_bytes = (codec.header_bits() + 7) / 8;
      edited.bytes[rng.NextBounded(header_bytes)] ^=
          static_cast<uint8_t>(1 + rng.NextBounded(255));
      Reseal(edited);
      ExpectSameDecode(codec.Decode(edited), ref::Decode(codec, edited), "header edit");
    }
  }
}

TEST(StreamReassemblerDifferentialTest, MatchesMapReferenceOnShuffledDuplicatedStreams) {
  Rng rng(16);
  StreamReassembler flat;  // reused across trials through Clear()
  Payload taken;
  for (int trial = 0; trial < 500; ++trial) {
    const FrameCodec codec = RandomCodec(rng);
    const auto decode_all = [&](uint64_t bits) {
      Payload p;
      p.bits = bits;
      p.bytes = RandomBytes(rng, (bits + 7) / 8);
      std::vector<DecodedFrame> out;
      for (const Frame& f : codec.EncodeStream(FrameKind::kData, 3, 9, p)) {
        out.push_back(*codec.Decode(f));
      }
      return out;
    };
    const std::vector<DecodedFrame> stream = decode_all(rng.NextBounded(2500));
    // Occasionally mix in frames of a contradicting stream of another length.
    const std::vector<DecodedFrame> other = decode_all(rng.NextBounded(2500));
    std::vector<const DecodedFrame*> deliveries;
    for (const DecodedFrame& d : stream) {
      if (rng.NextBounded(8) != 0) deliveries.push_back(&d);  // some lost
      if (rng.NextBounded(4) == 0) deliveries.push_back(&d);  // some duplicated
    }
    if (rng.NextBounded(4) == 0) deliveries.push_back(&other[rng.NextBounded(other.size())]);
    for (size_t i = deliveries.size(); i > 1; --i) {
      std::swap(deliveries[i - 1], deliveries[rng.NextBounded(i)]);
    }

    flat.Clear();
    ref::StreamReassembler reference;
    for (const DecodedFrame* d : deliveries) {
      flat.Add(*d);
      reference.Add(*d);
      ASSERT_EQ(flat.broken(), reference.broken()) << "trial " << trial;
      ASSERT_EQ(flat.complete(), reference.complete()) << "trial " << trial;
    }
    if (reference.complete()) {
      flat.Take(&taken);
      const Payload want = reference.Take();
      EXPECT_EQ(taken.bits, want.bits) << "trial " << trial;
      EXPECT_EQ(taken.bytes, want.bytes) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace bcc
