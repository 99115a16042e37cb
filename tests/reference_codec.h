// Per-bit reference codec: the straightforward bit-at-a-time writer and
// reader, the byte-table CRC32, and the frame encoder, decoder and
// map-based stream reassembler built on them. The word-level codec in src/
// must agree with these byte for byte and decision for decision; the
// differential and fuzz tests compare the two.

#ifndef BCC_TESTS_REFERENCE_CODEC_H_
#define BCC_TESTS_REFERENCE_CODEC_H_

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "channel/frame.h"
#include "common/status.h"
#include "common/statusor.h"

namespace bcc::ref {

/// Append-only bit buffer, one bit per step (LSB-first within each byte).
class BitWriter {
 public:
  /// Appends the low `bits` bits of `value` (1..32).
  void Write(uint32_t value, unsigned bits) {
    for (unsigned b = 0; b < bits; ++b) {
      if (bit_size_ % 8 == 0) bytes_.push_back(0);
      if ((value >> b) & 1) bytes_.back() |= static_cast<uint8_t>(1u << (bit_size_ % 8));
      ++bit_size_;
    }
  }
  size_t bit_size() const { return bit_size_; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_size_ = 0;
};

/// Sequential reader, one bit per step.
class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `bits` (1..32) bits; OutOfRange past the end.
  Status Read(unsigned bits, uint32_t* value) {
    if (bits > bits_remaining()) return Status::OutOfRange("bit buffer exhausted");
    uint32_t out = 0;
    for (unsigned b = 0; b < bits; ++b) {
      if ((bytes_[cursor_ / 8] >> (cursor_ % 8)) & 1) out |= 1u << b;
      ++cursor_;
    }
    *value = out;
    return Status::OK();
  }
  size_t bits_remaining() const { return bytes_.size() * 8 - cursor_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t cursor_ = 0;
};

/// Copies `nbits` bits from `reader` into `writer` in 32-bit pieces.
inline Status CopyBits(BitReader* reader, BitWriter* writer, uint64_t nbits) {
  while (nbits > 0) {
    const unsigned chunk = static_cast<unsigned>(nbits < 32 ? nbits : 32);
    uint32_t value = 0;
    BCC_RETURN_IF_ERROR(reader->Read(chunk, &value));
    writer->Write(value, chunk);
    nbits -= chunk;
  }
  return Status::OK();
}

/// CRC32 (reflected IEEE polynomial), one table lookup per byte.
inline uint32_t Crc32(std::span<const uint8_t> bytes) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t b : bytes) crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

/// Frames of one stream at `geometry`'s stamp width and frame size.
inline std::vector<Frame> EncodeStream(const FrameCodec& geometry, FrameKind kind,
                                       uint32_t stream_id, Cycle cycle, const Payload& payload) {
  const CycleStampCodec& sc = geometry.stamp_codec();
  const uint64_t capacity = geometry.payload_capacity_bits();
  const uint64_t num_frames = payload.bits == 0 ? 1 : (payload.bits + capacity - 1) / capacity;
  std::vector<Frame> out;
  BitReader reader(payload.bytes);
  uint64_t remaining = payload.bits;
  for (uint64_t seq = 0; seq < num_frames; ++seq) {
    const uint64_t chunk = remaining < capacity ? remaining : capacity;
    BitWriter w;
    w.Write(sc.Encode(cycle), sc.bits());
    w.Write(static_cast<uint32_t>(kind), FrameCodec::kKindBits);
    w.Write(stream_id, FrameCodec::kStreamIdBits);
    w.Write(static_cast<uint32_t>(seq), FrameCodec::kSeqBits);
    w.Write(seq + 1 == num_frames ? 1u : 0u, FrameCodec::kLastBits);
    w.Write(static_cast<uint32_t>(chunk), FrameCodec::kPayloadLenBits);
    (void)CopyBits(&reader, &w, chunk);
    remaining -= chunk;
    uint64_t pad = geometry.frame_bits() - FrameCodec::kCrcBits - w.bit_size();
    while (pad > 0) {
      const unsigned step = static_cast<unsigned>(pad < 32 ? pad : 32);
      w.Write(0, step);
      pad -= step;
    }
    w.Write(Crc32(w.bytes()), FrameCodec::kCrcBits);
    out.push_back(Frame{w.bytes()});
  }
  return out;
}

/// Validates size, CRC and header fields bit by bit; header plus payload.
inline StatusOr<DecodedFrame> Decode(const FrameCodec& geometry, const Frame& frame) {
  if (frame.bytes.size() != geometry.frame_bytes()) {
    return Status::InvalidArgument("frame has the wrong size");
  }
  const std::span<const uint8_t> body(frame.bytes.data(), frame.bytes.size() - 4);
  BitReader crc_reader(std::span<const uint8_t>(frame.bytes.data() + body.size(), 4));
  uint32_t stored_crc = 0;
  BCC_RETURN_IF_ERROR(crc_reader.Read(FrameCodec::kCrcBits, &stored_crc));
  if (stored_crc != Crc32(body)) return Status::InvalidArgument("frame CRC mismatch");

  BitReader r(body);
  DecodedFrame out;
  uint32_t v = 0;
  BCC_RETURN_IF_ERROR(r.Read(geometry.stamp_codec().bits(), &v));
  out.header.cycle_residue = v;
  BCC_RETURN_IF_ERROR(r.Read(FrameCodec::kKindBits, &v));
  if (v > kMaxFrameKind) return Status::InvalidArgument("unknown frame kind");
  out.header.kind = static_cast<FrameKind>(v);
  BCC_RETURN_IF_ERROR(r.Read(FrameCodec::kStreamIdBits, &v));
  out.header.stream_id = v;
  BCC_RETURN_IF_ERROR(r.Read(FrameCodec::kSeqBits, &v));
  out.header.seq = v;
  BCC_RETURN_IF_ERROR(r.Read(FrameCodec::kLastBits, &v));
  out.header.last = v != 0;
  BCC_RETURN_IF_ERROR(r.Read(FrameCodec::kPayloadLenBits, &v));
  if (v > geometry.payload_capacity_bits()) {
    return Status::InvalidArgument("frame payload length exceeds capacity");
  }
  out.header.payload_bits = v;
  BitWriter payload;
  BCC_RETURN_IF_ERROR(CopyBits(&r, &payload, v));
  out.payload.bytes = payload.bytes();
  out.payload.bits = v;
  return out;
}

/// Map-based reassembler with the duplicate, reorder and broken-stream
/// rules documented on bcc::StreamReassembler.
class StreamReassembler {
 public:
  void Add(const DecodedFrame& frame) {
    if (broken_) return;
    const uint32_t seq = frame.header.seq;
    if (last_seq_known_) {
      if (seq > last_seq_ || (frame.header.last && seq != last_seq_)) {
        broken_ = true;
        return;
      }
    } else if (frame.header.last) {
      if (!frames_.empty() && frames_.rbegin()->first > seq) {
        broken_ = true;
        return;
      }
      last_seq_ = seq;
      last_seq_known_ = true;
    }
    const auto [it, inserted] = frames_.emplace(seq, frame.payload);
    if (!inserted && it->second.bits != frame.payload.bits) broken_ = true;
  }
  bool complete() const {
    return !broken_ && last_seq_known_ && frames_.size() == static_cast<size_t>(last_seq_) + 1;
  }
  bool broken() const { return broken_; }
  Payload Take() const {
    BitWriter w;
    uint64_t bits = 0;
    for (const auto& [seq, payload] : frames_) {
      BitReader reader(payload.bytes);
      (void)CopyBits(&reader, &w, payload.bits);
      bits += payload.bits;
    }
    return Payload{w.bytes(), bits};
  }

 private:
  std::map<uint32_t, Payload> frames_;
  uint32_t last_seq_ = 0;
  bool last_seq_known_ = false;
  bool broken_ = false;
};

}  // namespace bcc::ref

#endif  // BCC_TESTS_REFERENCE_CODEC_H_
