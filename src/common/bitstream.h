// Bit-granular serialization for broadcast control information. Timestamp
// residues are TS bits wide (Table 1: 8, but any 1..32), so columns are
// packed without byte alignment — the wire sizes the paper's overhead
// formulas count are exact.
//
// Bits are packed LSB-first within each byte. The codec moves 64-bit words:
// loads and stores assemble the bytes explicitly in little-endian order, so
// the packed bytes do not depend on the host's endianness, and bulk copies
// between byte-aligned positions are a memcpy.

#ifndef BCC_COMMON_BITSTREAM_H_
#define BCC_COMMON_BITSTREAM_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"

namespace bcc {

/// Widest field LoadBits / OrBits move in one word: a 64-bit window at a
/// byte boundary still holds 57 bits past any bit offset within that byte.
inline constexpr unsigned kMaxWordBits = 56;

/// The low `bits` bits set (bits in 0..64).
constexpr uint64_t LowBitMask(unsigned bits) {
  return bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
}

/// The 8 bytes at `p` as a little-endian word, assembled byte by byte so the
/// result does not depend on the host's byte order (compilers fuse it into
/// one load).
inline uint64_t LoadLE64(const uint8_t* p) {
  return uint64_t{p[0]} | uint64_t{p[1]} << 8 | uint64_t{p[2]} << 16 | uint64_t{p[3]} << 24 |
         uint64_t{p[4]} << 32 | uint64_t{p[5]} << 40 | uint64_t{p[6]} << 48 |
         uint64_t{p[7]} << 56;
}

/// Stores `v` little-endian into the 8 bytes at `p` (fused into one store).
inline void StoreLE64(uint8_t* p, uint64_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
  p[4] = static_cast<uint8_t>(v >> 32);
  p[5] = static_cast<uint8_t>(v >> 40);
  p[6] = static_cast<uint8_t>(v >> 48);
  p[7] = static_cast<uint8_t>(v >> 56);
}

/// Reads `bits` (0..kMaxWordBits) bits starting at bit `bit` of `bytes`.
/// Bytes past the end of `bytes` read as zero; nothing outside it is touched.
inline uint64_t LoadBits(std::span<const uint8_t> bytes, uint64_t bit, unsigned bits) {
  assert(bits <= kMaxWordBits);
  const size_t at = bit / 8;
  uint64_t word = 0;
  if (at + 8 <= bytes.size()) {
    word = LoadLE64(bytes.data() + at);
  } else {
    for (size_t k = 0; at + k < bytes.size(); ++k) word |= uint64_t{bytes[at + k]} << (8 * k);
  }
  return (word >> (bit % 8)) & LowBitMask(bits);
}

/// ORs the low `bits` (0..kMaxWordBits) bits of `value` into `bytes` at bit
/// `bit`; `value` must have no higher bits set and the range must lie inside
/// `bytes`. Bits already set there stay set, so callers write into zeros.
inline void OrBits(std::span<uint8_t> bytes, uint64_t bit, uint64_t value, unsigned bits) {
  assert(bits <= kMaxWordBits && (value & ~LowBitMask(bits)) == 0);
  assert(bit + bits <= bytes.size() * 8);
  (void)bits;
  const size_t at = bit / 8;
  const uint64_t shifted = value << (bit % 8);
  if (at + 8 <= bytes.size()) {
    StoreLE64(bytes.data() + at, LoadLE64(bytes.data() + at) | shifted);
    return;
  }
  for (size_t k = 0; at + k < bytes.size(); ++k) {
    bytes[at + k] |= static_cast<uint8_t>(shifted >> (8 * k));
  }
}

/// Copies `nbits` bits of `src` from bit `src_bit` into `dst` from bit
/// `dst_bit`. The destination range must lie inside `dst` and be zero, and
/// the source range inside `src`. Byte-aligned copies are a memcpy; others
/// move shifted 56-bit words.
void CopyBitRange(std::span<uint8_t> dst, uint64_t dst_bit, std::span<const uint8_t> src,
                  uint64_t src_bit, uint64_t nbits);

/// Append-only bit buffer (LSB-first within each byte) over a 64-bit
/// accumulator: whole words go to the byte buffer, the pending tail stays in
/// the accumulator until bytes() pads it out.
class BitWriter {
 public:
  BitWriter() = default;
  /// Writes into `buffer`'s storage, discarding its contents, so a caller
  /// that cycles one buffer through writers does not reallocate.
  explicit BitWriter(std::vector<uint8_t> buffer) : bytes_(std::move(buffer)) { bytes_.clear(); }

  /// Appends the low `bits` bits of `value` (1..32).
  void Write(uint32_t value, unsigned bits) { Put(value & LowBitMask(bits), bits); }

  /// Total bits written so far.
  size_t bit_size() const { return (bytes_.size() - tail_) * 8 + acc_bits_; }

  /// The packed bytes (final partial byte zero-padded). The reference stays
  /// valid until the next write.
  const std::vector<uint8_t>& bytes();

  /// The packed bytes, handed over (the writer is spent).
  std::vector<uint8_t> Release() && {
    bytes();
    return std::move(bytes_);
  }

 private:
  /// Appends `bits` (0..64) bits; `value` has no bits set above them.
  void Put(uint64_t value, unsigned bits) {
    if (tail_ != 0) Unpad();
    acc_ |= value << acc_bits_;
    const unsigned total = acc_bits_ + bits;
    if (total < 64) {
      acc_bits_ = total;
      return;
    }
    const size_t at = bytes_.size();
    bytes_.resize(at + 8);
    StoreLE64(bytes_.data() + at, acc_);
    acc_bits_ = total - 64;
    // The bits of `value` that did not fit; none when it filled the word.
    acc_ = acc_bits_ == 0 ? 0 : value >> (bits - acc_bits_);
  }
  /// Drops the padded tail bytes() appended, so writing can resume.
  void Unpad();

  std::vector<uint8_t> bytes_;
  uint64_t acc_ = 0;      // pending bits, LSB first; bits above acc_bits_ zero
  unsigned acc_bits_ = 0;  // < 64
  unsigned tail_ = 0;      // bytes of acc_ appended by bytes()
};

/// Sequential reader over a packed bit buffer, one word load per field.
class BitReader {
 public:
  explicit BitReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `bits` (1..32) bits; OutOfRange past the end.
  Status Read(unsigned bits, uint32_t* value);

  size_t bits_remaining() const { return bytes_.size() * 8 - cursor_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t cursor_ = 0;
};

}  // namespace bcc

#endif  // BCC_COMMON_BITSTREAM_H_
