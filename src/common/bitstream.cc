#include "common/bitstream.h"

#include <cassert>
#include <cstring>

namespace bcc {

void CopyBitRange(std::span<uint8_t> dst, uint64_t dst_bit, std::span<const uint8_t> src,
                  uint64_t src_bit, uint64_t nbits) {
  assert(dst_bit + nbits <= dst.size() * 8);
  assert(src_bit + nbits <= src.size() * 8);
  if (dst_bit % 8 == 0 && src_bit % 8 == 0 && nbits >= 8) {
    const size_t whole = nbits / 8;
    std::memcpy(dst.data() + dst_bit / 8, src.data() + src_bit / 8, whole);
    dst_bit += 8 * whole;
    src_bit += 8 * whole;
    nbits -= 8 * whole;
  }
  while (nbits > 0) {
    const unsigned chunk = static_cast<unsigned>(nbits < kMaxWordBits ? nbits : kMaxWordBits);
    OrBits(dst, dst_bit, LoadBits(src, src_bit, chunk), chunk);
    dst_bit += chunk;
    src_bit += chunk;
    nbits -= chunk;
  }
}

void BitWriter::Unpad() {
  bytes_.erase(bytes_.end() - tail_, bytes_.end());
  tail_ = 0;
}

const std::vector<uint8_t>& BitWriter::bytes() {
  if (tail_ == 0) {
    for (unsigned b = 0; b < acc_bits_; b += 8) {
      bytes_.push_back(static_cast<uint8_t>(acc_ >> b));
      ++tail_;
    }
  }
  return bytes_;
}

Status BitReader::Read(unsigned bits, uint32_t* value) {
  assert(bits >= 1 && bits <= 32);
  if (bits > bits_remaining()) {
    return Status::OutOfRange("bit buffer exhausted");
  }
  *value = static_cast<uint32_t>(LoadBits(bytes_, cursor_, bits));
  cursor_ += bits;
  return Status::OK();
}

}  // namespace bcc
