#include "channel/frame.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/bitstream.h"
#include "common/format.h"
#include "matrix/wire.h"

namespace bcc {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0] is
/// the classic byte table, and kCrcTables[k][b] advances b's CRC through k
/// further zero bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

uint32_t LoadLE32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
}

/// Header fields after the cycle residue, packed LSB-first.
constexpr unsigned kFieldBits = FrameCodec::kKindBits + FrameCodec::kStreamIdBits +
                                FrameCodec::kSeqBits + FrameCodec::kLastBits +
                                FrameCodec::kPayloadLenBits;
static_assert(kFieldBits <= kMaxWordBits);
constexpr unsigned kStreamIdShift = FrameCodec::kKindBits;
constexpr unsigned kSeqShift = kStreamIdShift + FrameCodec::kStreamIdBits;
constexpr unsigned kLastShift = kSeqShift + FrameCodec::kSeqBits;
constexpr unsigned kPayloadLenShift = kLastShift + FrameCodec::kLastBits;

}  // namespace

uint32_t Crc32(std::span<const uint8_t> bytes) {
  const CrcTables& t = kCrcTables;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLE32(p);
    const uint32_t hi = LoadLE32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

Status FrameCodec::ValidateGeometry(unsigned ts_bits, uint64_t frame_bits) {
  if (ts_bits < 1 || ts_bits > 32) {
    return Status::InvalidArgument("frame geometry: ts_bits must be in [1, 32]");
  }
  if (frame_bits % 8 != 0) {
    return Status::InvalidArgument("frame geometry: frame_bits must be a whole number of bytes");
  }
  const uint64_t header =
      ts_bits + kKindBits + kStreamIdBits + kSeqBits + kLastBits + kPayloadLenBits;
  if (frame_bits < header + kCrcBits + 32) {
    return Status::InvalidArgument(
        StrFormat("frame geometry: frame_bits=%llu leaves no useful payload capacity "
                  "(header %llu + crc %u + 32 minimum payload bits)",
                  static_cast<unsigned long long>(frame_bits),
                  static_cast<unsigned long long>(header), kCrcBits));
  }
  if (frame_bits - header - kCrcBits > 0xFFFFull) {
    return Status::InvalidArgument(
        "frame geometry: payload capacity exceeds the 16-bit payload-length field");
  }
  return Status::OK();
}

FrameCodec::FrameCodec(CycleStampCodec stamp_codec, uint64_t frame_bits)
    : stamp_codec_(stamp_codec), frame_bits_(frame_bits) {
  assert(ValidateGeometry(stamp_codec_.bits(), frame_bits_).ok());
}

std::vector<Frame> FrameCodec::EncodeStream(FrameKind kind, uint32_t stream_id, Cycle cycle,
                                            const Payload& payload) const {
  std::vector<Frame> out;
  size_t used = 0;
  EncodeStreamInto(kind, stream_id, cycle, payload, out, used);
  return out;
}

void FrameCodec::EncodeStreamInto(FrameKind kind, uint32_t stream_id, Cycle cycle,
                                  const Payload& payload, std::vector<Frame>& out,
                                  size_t& used) const {
  assert(stream_id < (1u << kStreamIdBits));
  assert(payload.bits <= payload.bytes.size() * 8);
  const uint64_t capacity = payload_capacity_bits();
  const uint64_t num_frames = payload.bits == 0 ? 1 : (payload.bits + capacity - 1) / capacity;
  assert(num_frames <= (1ull << kSeqBits));

  const unsigned ts = stamp_codec_.bits();
  const uint64_t residue = stamp_codec_.Encode(cycle);
  const size_t body_bytes = frame_bytes() - kCrcBits / 8;
  uint64_t offset = 0;
  for (uint64_t seq = 0; seq < num_frames; ++seq) {
    const uint64_t chunk = std::min(payload.bits - offset, capacity);
    const uint64_t last = seq + 1 == num_frames ? 1 : 0;
    if (used == out.size()) out.emplace_back();
    std::vector<uint8_t>& bytes = out[used++].bytes;
    // Header, payload slice and zero padding, then the CRC over all of it.
    bytes.assign(frame_bytes(), 0);
    OrBits(bytes, 0, residue, ts);
    OrBits(bytes, ts,
           static_cast<uint64_t>(kind) | uint64_t{stream_id} << kStreamIdShift |
               seq << kSeqShift | last << kLastShift | chunk << kPayloadLenShift,
           kFieldBits);
    CopyBitRange(bytes, header_bits(), payload.bytes, offset, chunk);
    OrBits(bytes, body_bytes * 8, Crc32({bytes.data(), body_bytes}), kCrcBits);
    offset += chunk;
  }
}

Status FrameCodec::DecodeHeader(std::span<const uint8_t> frame, FrameHeader* header) const {
  if (frame.size() != frame_bytes()) {
    return Status::InvalidArgument(
        StrFormat("frame is %zu bytes, expected %zu", frame.size(), frame_bytes()));
  }
  const size_t body_bytes = frame.size() - kCrcBits / 8;
  if (LoadBits(frame, body_bytes * 8, kCrcBits) != Crc32(frame.first(body_bytes))) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  const unsigned ts = stamp_codec_.bits();
  const uint64_t fields = LoadBits(frame, ts, kFieldBits);
  const uint64_t kind = fields & LowBitMask(kKindBits);
  if (kind > kMaxFrameKind) return Status::InvalidArgument("unknown frame kind");
  const uint64_t payload_bits = (fields >> kPayloadLenShift) & LowBitMask(kPayloadLenBits);
  if (payload_bits > payload_capacity_bits()) {
    return Status::InvalidArgument("frame payload length exceeds capacity");
  }
  header->cycle_residue = static_cast<uint32_t>(LoadBits(frame, 0, ts));
  header->kind = static_cast<FrameKind>(kind);
  header->stream_id =
      static_cast<uint32_t>((fields >> kStreamIdShift) & LowBitMask(kStreamIdBits));
  header->seq = static_cast<uint32_t>((fields >> kSeqShift) & LowBitMask(kSeqBits));
  header->last = ((fields >> kLastShift) & 1u) != 0;
  header->payload_bits = static_cast<uint32_t>(payload_bits);
  return Status::OK();
}

StatusOr<DecodedFrame> FrameCodec::Decode(const Frame& frame) const {
  DecodedFrame out;
  BCC_RETURN_IF_ERROR(DecodeHeader(frame.bytes, &out.header));
  out.payload.bits = out.header.payload_bits;
  out.payload.bytes.assign((out.payload.bits + 7) / 8, 0);
  CopyBitRange(out.payload.bytes, 0, frame.bytes, header_bits(), out.payload.bits);
  return out;
}

void StreamReassembler::Add(const FrameHeader& header, std::span<const uint8_t> src,
                            uint64_t payload_bit) {
  if (broken_) return;
  const uint32_t seq = header.seq;
  if (last_seq_known_) {
    // A frame past the last-flagged sequence, or a second, different
    // last-flagged frame, contradicts the stream's claimed extent.
    if (seq > last_seq_ || (header.last && seq != last_seq_)) {
      broken_ = true;
      return;
    }
  } else if (header.last) {
    if (!slices_.empty() && slices_.back().seq > seq) {
      broken_ = true;  // already buffered a frame past the claimed last
      return;
    }
    last_seq_ = seq;
    last_seq_known_ = true;
  }
  // Frames usually arrive in order, so the new slice usually goes last.
  auto it = slices_.end();
  if (!slices_.empty() && slices_.back().seq >= seq) {
    it = std::lower_bound(slices_.begin(), slices_.end(), seq,
                          [](const Slice& s, uint32_t q) { return s.seq < q; });
  }
  if (it != slices_.end() && it->seq == seq) {
    // A duplicate is ignored; two valid frames for one seq that disagree on
    // size break the stream.
    if (it->bits != header.payload_bits) broken_ = true;
    return;
  }
  if (payload_bit + header.payload_bits > src.size() * 8) {
    broken_ = true;  // a slice larger than the bytes that carry it
    return;
  }
  const size_t offset = arena_.size();
  arena_.resize(offset + (header.payload_bits + 7) / 8);
  CopyBitRange(std::span<uint8_t>(arena_).subspan(offset), 0, src, payload_bit,
               header.payload_bits);
  slices_.insert(it, Slice{seq, header.payload_bits, offset});
}

void StreamReassembler::Take(Payload* out) const {
  out->bits = 0;
  for (const Slice& s : slices_) out->bits += s.bits;
  out->bytes.assign((out->bits + 7) / 8, 0);
  uint64_t at = 0;
  for (const Slice& s : slices_) {
    CopyBitRange(out->bytes, at, std::span<const uint8_t>(arena_).subspan(s.offset), 0, s.bits);
    at += s.bits;
  }
}

void StreamReassembler::Clear() {
  slices_.clear();
  arena_.clear();
  last_seq_ = 0;
  last_seq_known_ = false;
  broken_ = false;
}

Payload EncodeIndexPayload(const CycleIndex& index) {
  BitWriter w;
  w.Write(0xBCC1u, 16);  // magic
  w.Write(index.control_mode, 2);
  w.Write(index.num_objects, FrameCodec::kStreamIdBits);
  w.Write(index.cycle_low, 32);
  return Payload{w.bytes(), w.bit_size()};
}

StatusOr<CycleIndex> DecodeIndexPayload(const Payload& payload) {
  const uint64_t expected = 16 + 2 + FrameCodec::kStreamIdBits + 32;
  if (payload.bits != expected) {
    return Status::InvalidArgument("index payload has the wrong size");
  }
  BitReader r(payload.bytes);
  uint32_t v = 0;
  BCC_RETURN_IF_ERROR(r.Read(16, &v));
  if (v != 0xBCC1u) return Status::InvalidArgument("index payload magic mismatch");
  CycleIndex index;
  BCC_RETURN_IF_ERROR(r.Read(2, &v));
  if (v > CycleIndex::kControlRefresh) {
    return Status::InvalidArgument("index payload has an unknown control mode");
  }
  index.control_mode = static_cast<uint8_t>(v);
  BCC_RETURN_IF_ERROR(r.Read(FrameCodec::kStreamIdBits, &v));
  index.num_objects = v;
  BCC_RETURN_IF_ERROR(r.Read(32, &v));
  index.cycle_low = v;
  return index;
}

Payload EncodeObjectPayload(const ObjectVersion& version, uint64_t object_size_bits) {
  Payload payload;
  EncodeObjectPayloadInto(version, object_size_bits, &payload);
  return payload;
}

void EncodeObjectPayloadInto(const ObjectVersion& version, uint64_t object_size_bits,
                             Payload* out) {
  out->bits = std::max(kObjectVersionBits, object_size_bits);
  out->bytes.assign((out->bits + 7) / 8, 0);  // the zero padding included
  OrBits(out->bytes, 0, version.value & 0xFFFFFFFFull, 32);
  OrBits(out->bytes, 32, version.value >> 32, 32);
  OrBits(out->bytes, 64, version.writer, 32);
  OrBits(out->bytes, 96, version.cycle & 0xFFFFFFFFull, 32);
  OrBits(out->bytes, 128, version.cycle >> 32, 32);
}

StatusOr<ObjectVersion> DecodeObjectPayload(const Payload& payload) {
  if (payload.bits < kObjectVersionBits) {
    return Status::InvalidArgument("object payload shorter than an ObjectVersion");
  }
  BitReader r(payload.bytes);
  uint32_t lo = 0, hi = 0;
  ObjectVersion version;
  BCC_RETURN_IF_ERROR(r.Read(32, &lo));
  BCC_RETURN_IF_ERROR(r.Read(32, &hi));
  version.value = (static_cast<uint64_t>(hi) << 32) | lo;
  BCC_RETURN_IF_ERROR(r.Read(32, &lo));
  version.writer = lo;
  BCC_RETURN_IF_ERROR(r.Read(32, &lo));
  BCC_RETURN_IF_ERROR(r.Read(32, &hi));
  version.cycle = (static_cast<uint64_t>(hi) << 32) | lo;
  return version;
}

std::vector<Frame> EncodeCycleFrames(const CycleSnapshot& snap, const FrameCodec& codec,
                                     uint64_t object_size_bits) {
  std::vector<Frame> out;
  EncodeCycleFramesInto(snap, codec, object_size_bits, out);
  return out;
}

void EncodeCycleFramesInto(const CycleSnapshot& snap, const FrameCodec& codec,
                           uint64_t object_size_bits, std::vector<Frame>& out) {
  const CycleStampCodec& sc = codec.stamp_codec();
  const uint32_t n = static_cast<uint32_t>(snap.values.size());
  size_t used = 0;
  // Staging for one object page and one control column, kept across cycles.
  thread_local Payload page;
  thread_local Payload column;
  thread_local std::vector<Cycle> column_scratch;  // a sparse column, materialized

  const auto emit = [&](FrameKind kind, uint32_t stream_id, const Payload& payload) {
    codec.EncodeStreamInto(kind, stream_id, snap.cycle, payload, out, used);
  };

  CycleIndex index;
  index.num_objects = n;
  index.cycle_low = static_cast<uint32_t>(snap.cycle & 0xFFFFFFFFull);
  index.control_mode = !snap.delta.has_value() ? CycleIndex::kControlColumns
                       : snap.delta->full_refresh ? CycleIndex::kControlRefresh
                                                  : CycleIndex::kControlDelta;
  emit(FrameKind::kIndex, 0, EncodeIndexPayload(index));

  if (snap.delta.has_value()) {
    // Snapshot+delta mode: the control segment rides in one block right
    // after the index.
    if (snap.delta->full_refresh) {
      emit(FrameKind::kControlRefresh, 0,
           Payload{PackMatrix(snap.f_matrix, sc), FullMatrixControlBits(n, sc.bits())});
    } else {
      emit(FrameKind::kControlDelta, 0,
           Payload{DeltaCodec::Pack(snap.delta->entries, n, sc),
                   DeltaCodec::EncodedBits(snap.delta->entries.size(), n, sc.bits())});
    }
    for (uint32_t j = 0; j < n; ++j) {
      EncodeObjectPayloadInto(snap.values[j], object_size_bits, &page);
      emit(FrameKind::kData, j, page);
    }
    out.resize(used);
    return;
  }

  // Full mode: the on-air slot layout — each object's data page immediately
  // followed by its control column.
  for (uint32_t j = 0; j < n; ++j) {
    EncodeObjectPayloadInto(snap.values[j], object_size_bits, &page);
    emit(FrameKind::kData, j, page);
    PackStampsInto(snap.f_matrix.Column(j, column_scratch), sc, &column.bytes);
    column.bits = static_cast<uint64_t>(n) * sc.bits();
    emit(FrameKind::kControlColumn, j, column);
  }
  out.resize(used);
}

}  // namespace bcc
