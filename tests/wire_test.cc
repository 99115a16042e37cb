#include "matrix/wire.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace bcc {
namespace {

TEST(GeometryTest, PaperOverheadNumbers) {
  // Section 4.1: 300 objects of 1 KB, 8-bit timestamps: F-Matrix control
  // overhead ~23%, R-Matrix/Datacycle ~0.1%.
  const auto f = ComputeGeometry(Algorithm::kFMatrix, 300, 8 * 1024, 8);
  EXPECT_NEAR(f.control_fraction, 0.2266, 0.001);  // 2400 / (2400 + 8192)
  const auto r = ComputeGeometry(Algorithm::kRMatrix, 300, 8 * 1024, 8);
  EXPECT_NEAR(r.control_fraction, 0.000976, 0.0001);
  const auto d = ComputeGeometry(Algorithm::kDatacycle, 300, 8 * 1024, 8);
  EXPECT_EQ(d.control_bits, r.control_bits);
  const auto fno = ComputeGeometry(Algorithm::kFMatrixNo, 300, 8 * 1024, 8);
  EXPECT_EQ(fno.control_bits, 0u);
  EXPECT_EQ(fno.control_fraction, 0.0);
}

TEST(GeometryTest, CycleLengths) {
  const auto f = ComputeGeometry(Algorithm::kFMatrix, 300, 8 * 1024, 8);
  EXPECT_EQ(f.slot_bits, 8192u + 300u * 8u);
  EXPECT_EQ(f.cycle_bits, 300u * (8192u + 2400u));
  const auto fno = ComputeGeometry(Algorithm::kFMatrixNo, 300, 8 * 1024, 8);
  EXPECT_EQ(fno.cycle_bits, 300u * 8192u);
}

TEST(GeometryTest, GroupSpectrumInterpolates) {
  const auto g1 = ComputeGeometry(Algorithm::kFMatrix, 300, 8 * 1024, 8, 1);
  const auto g30 = ComputeGeometry(Algorithm::kFMatrix, 300, 8 * 1024, 8, 30);
  const auto g300 = ComputeGeometry(Algorithm::kFMatrix, 300, 8 * 1024, 8, 300);
  EXPECT_EQ(g1.control_bits, 8u);
  EXPECT_EQ(g30.control_bits, 240u);
  EXPECT_EQ(g300.control_bits, 2400u);
  EXPECT_LT(g1.cycle_bits, g30.cycle_bits);
  EXPECT_LT(g30.cycle_bits, g300.cycle_bits);
}

TEST(StampCodingTest, RoundTripsWithinWindow) {
  const CycleStampCodec codec(8);
  Rng rng(5);
  const Cycle current = 1000;
  std::vector<Cycle> stamps;
  for (int i = 0; i < 200; ++i) stamps.push_back(current - rng.NextBounded(255));
  const auto residues = EncodeStamps(stamps, codec);
  const auto decoded = DecodeStamps(residues, codec, current);
  EXPECT_EQ(decoded, stamps);
}

TEST(DeltaCodecTest, DiffFindsExactlyChangedEntries) {
  const CycleStampCodec codec(8);
  FMatrix prev(4), cur(4);
  cur.ApplyCommit(std::vector<ObjectId>{0}, std::vector<ObjectId>{1, 2}, 5);
  const auto diff = DeltaCodec::Diff(prev, cur, codec);
  // Columns 1 and 2 were rewritten; entries that changed: (1,1),(2,1),(1,2),
  // (2,2) set to 5; cross-dependency entries from the (empty-read) commit
  // stay 0. So exactly 4 changes.
  EXPECT_EQ(diff.size(), 4u);
  for (const auto& e : diff) {
    EXPECT_TRUE(e.col == 1 || e.col == 2);
    EXPECT_EQ(e.residue, codec.Encode(5));
  }
}

TEST(DeltaCodecTest, ApplyReconstructsMatrix) {
  const CycleStampCodec codec(8);
  Rng rng(17);
  const uint32_t n = 6;
  FMatrix server(n);
  ControlSnapshot client = FMatrix(n).Snapshot();
  Cycle cycle = 1;
  for (int step = 0; step < 30; ++step, ++cycle) {
    FMatrix before = server;
    const auto reads = rng.SampleWithoutReplacement(n, static_cast<uint32_t>(rng.NextBounded(3)));
    const auto writes =
        rng.SampleWithoutReplacement(n, 1 + static_cast<uint32_t>(rng.NextBounded(2)));
    server.ApplyCommit(reads, writes, cycle);
    const auto diff = DeltaCodec::Diff(before, server, codec);
    client = DeltaCodec::Apply(client, diff, codec, cycle);
    ASSERT_TRUE(client == server) << "diverged at step " << step;
  }
}

TEST(DeltaCodecTest, EncodedBitsFormula) {
  // 300 objects: 9 index bits each for row/col, 8-bit stamp, 32-bit header.
  EXPECT_EQ(DeltaCodec::EncodedBits(0, 300, 8), 32u);
  EXPECT_EQ(DeltaCodec::EncodedBits(10, 300, 8), 32u + 10u * (9 + 9 + 8));
}

TEST(DeltaCodecTest, EncodedBitsSingleObjectNeedsNoIndexBits) {
  // n = 1: the only (row, col) is implicit — charging bit_width(1) == 1 per
  // index (the old formula) over-counted by 2 bits per entry.
  EXPECT_EQ(DeltaCodec::EncodedBits(0, 1, 8), 32u);
  EXPECT_EQ(DeltaCodec::EncodedBits(1, 1, 8), 32u + 8u);
  EXPECT_EQ(DeltaCodec::EncodedBits(3, 1, 4), 32u + 3u * 4u);
}

TEST(DeltaCodecTest, EncodedBitsExactPowersOfTwo) {
  // Indices 0..n-1 of an exact power of two need exactly log2(n) bits.
  EXPECT_EQ(DeltaCodec::EncodedBits(1, 2, 8), 32u + (1 + 1 + 8));
  EXPECT_EQ(DeltaCodec::EncodedBits(1, 4, 8), 32u + (2 + 2 + 8));
  EXPECT_EQ(DeltaCodec::EncodedBits(1, 256, 8), 32u + (8 + 8 + 8));
  EXPECT_EQ(DeltaCodec::EncodedBits(1, 1024, 8), 32u + (10 + 10 + 8));
  // One past a power of two rounds up.
  EXPECT_EQ(DeltaCodec::EncodedBits(1, 257, 8), 32u + (9 + 9 + 8));
}

void ExpectSameEntries(const std::vector<DeltaCodec::Entry>& fast,
                       const std::vector<DeltaCodec::Entry>& oracle) {
  ASSERT_EQ(fast.size(), oracle.size());
  for (size_t k = 0; k < fast.size(); ++k) {
    EXPECT_EQ(fast[k].row, oracle[k].row);
    EXPECT_EQ(fast[k].col, oracle[k].col);
    EXPECT_EQ(fast[k].residue, oracle[k].residue);
  }
}

TEST(DeltaCodecTest, DiffColumnsMatchesFullScanOracleOnRandomHistories) {
  // The snapshot-pair path must produce exactly the oracle's output (same
  // entries, same order) on randomized commit histories, including cycles
  // with no commits and overlapping write sets.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CycleStampCodec codec(8);
    Rng rng(seed);
    const uint32_t n = 5 + static_cast<uint32_t>(rng.NextBounded(8));
    FMatrix server(n);
    FMatrix prev(n);
    ControlSnapshot prev_snap = server.Snapshot();
    Cycle cycle = 1;
    for (int step = 0; step < 60; ++step, ++cycle) {
      const uint32_t commits = static_cast<uint32_t>(rng.NextBounded(4));  // may be 0
      for (uint32_t t = 0; t < commits; ++t) {
        const auto reads =
            rng.SampleWithoutReplacement(n, static_cast<uint32_t>(rng.NextBounded(3)));
        const auto writes =
            rng.SampleWithoutReplacement(n, 1 + static_cast<uint32_t>(rng.NextBounded(3)));
        server.ApplyCommit(reads, writes, cycle);
      }
      const ControlSnapshot cur_snap = server.Snapshot();
      ExpectSameEntries(DeltaCodec::DiffColumns(prev_snap, cur_snap, codec),
                        DeltaCodec::Diff(prev, server, codec));
      prev = server;
      prev_snap = cur_snap;
    }
  }
}

TEST(DeltaCodecTest, DiffColumnsMatchesOracleAcrossRepresentations) {
  // Dense vs sparse snapshots of the same matrices diff identically, in
  // every pairing: sparse-sparse takes the merge walk, mixed pairs the dense
  // column helper.
  const CycleStampCodec codec(8);
  Rng rng(23);
  const uint32_t n = 9;
  FMatrix prev(n), cur(n);
  for (Cycle cycle = 1; cycle <= 12; ++cycle) {
    const auto reads = rng.SampleWithoutReplacement(n, 2);
    const auto writes = rng.SampleWithoutReplacement(n, 2);
    if (cycle < 10) prev.ApplyCommit(reads, writes, cycle);
    cur.ApplyCommit(reads, writes, cycle);
  }
  const auto oracle = DeltaCodec::Diff(prev, cur, codec);
  ASSERT_FALSE(oracle.empty());
  const ControlSnapshot dense_prev = prev.Snapshot();
  const ControlSnapshot dense_cur = cur.Snapshot();
  const ControlSnapshot sparse_prev = SparseFMatrix::FromDense(prev);
  const ControlSnapshot sparse_cur = SparseFMatrix::FromDense(cur);
  ExpectSameEntries(DeltaCodec::DiffColumns(dense_prev, dense_cur, codec), oracle);
  ExpectSameEntries(DeltaCodec::DiffColumns(sparse_prev, sparse_cur, codec), oracle);
  ExpectSameEntries(DeltaCodec::DiffColumns(dense_prev, sparse_cur, codec), oracle);
  ExpectSameEntries(DeltaCodec::DiffColumns(sparse_prev, dense_cur, codec), oracle);
  EXPECT_TRUE(DeltaCodec::DiffColumns(sparse_cur, sparse_cur, codec).empty());
}

TEST(WireFormatTest, UnpackStampsRejectsTrailingBytes) {
  const CycleStampCodec codec(8);
  const std::vector<Cycle> stamps = {1, 2, 3};
  std::vector<uint8_t> bytes = PackStamps(stamps, codec);
  bytes.push_back(0x00);  // even zero-valued trailing bytes are corruption
  const auto unpacked = UnpackStamps(bytes, stamps.size(), codec, 10);
  ASSERT_FALSE(unpacked.ok());
  EXPECT_TRUE(unpacked.status().IsInvalidArgument()) << unpacked.status().ToString();
}

TEST(WireFormatTest, UnpackStampsRejectsNonzeroPaddingBits) {
  // 3 stamps x 3 bits = 9 bits -> 2 bytes with 7 padding bits in the last.
  const CycleStampCodec codec(3);
  const std::vector<Cycle> stamps = {1, 2, 3};
  std::vector<uint8_t> bytes = PackStamps(stamps, codec);
  ASSERT_EQ(bytes.size(), 2u);
  bytes.back() |= 0x80;  // flip a padding bit only
  const auto unpacked = UnpackStamps(bytes, stamps.size(), codec, 10);
  ASSERT_FALSE(unpacked.ok());
  EXPECT_TRUE(unpacked.status().IsInvalidArgument()) << unpacked.status().ToString();
}

TEST(WireFormatTest, UnpackStampsAcceptsExactFraming) {
  const CycleStampCodec codec(3);
  const std::vector<Cycle> stamps = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> bytes = PackStamps(stamps, codec);
  const auto unpacked = UnpackStamps(bytes, stamps.size(), codec, 6);
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_EQ(*unpacked, stamps);
}

TEST(WireFormatTest, FullMatrixControlBitsMatchesGeometry) {
  EXPECT_EQ(FullMatrixControlBits(300, 8), 300u * 300u * 8u);
  const auto g = ComputeGeometry(Algorithm::kFMatrix, 300, 8 * 1024, 8);
  EXPECT_EQ(FullMatrixControlBits(300, 8), g.control_bits * 300u);
}

TEST(DeltaCodecTest, DeltaBeatsFullMatrixAtLowUpdateRates) {
  const CycleStampCodec codec(8);
  const uint32_t n = 300;
  FMatrix prev(n), cur(n);
  cur.ApplyCommit(std::vector<ObjectId>{3}, std::vector<ObjectId>{7, 8}, 2);
  const auto diff = DeltaCodec::Diff(prev, cur, codec);
  const uint64_t delta_bits = DeltaCodec::EncodedBits(diff.size(), n, 8);
  const uint64_t full_bits = static_cast<uint64_t>(n) * n * 8;
  EXPECT_LT(delta_bits, full_bits / 100);
}

}  // namespace
}  // namespace bcc
