#include "baseband/fec.hpp"

#include <array>
#include <bit>
#include <stdexcept>

#include "baseband/bit_reverse.hpp"

namespace btsc::baseband {
namespace {

// g(D) = D^5 + D^4 + D^2 + 1 -> 110101b.
constexpr std::uint8_t kGenPoly = 0b110101;
constexpr unsigned kParityBits = 5;

/// Reference systematic encoder (polynomial division); used to build the
/// parity and syndrome tables below and exposed via fec23_encode_block.
constexpr std::uint16_t encode_block_ref(std::uint16_t data10) {
  data10 &= 0x3FF;
  std::uint32_t reg = static_cast<std::uint32_t>(data10) << kParityBits;
  for (int bit = kFec23BlockBits - 1; bit >= static_cast<int>(kParityBits);
       --bit) {
    if ((reg >> bit) & 1u) {
      reg ^= static_cast<std::uint32_t>(kGenPoly) << (bit - kParityBits);
    }
  }
  const auto parity = static_cast<std::uint16_t>(reg & 0x1F);
  return static_cast<std::uint16_t>((data10 << kParityBits) | parity);
}

/// Reference syndrome of a 15-bit block in polynomial order (data
/// MSB..LSB above parity); 0 == no detected error.
constexpr std::uint8_t syndrome_ref(std::uint16_t block15) {
  std::uint32_t reg = block15;
  for (int bit = kFec23BlockBits - 1; bit >= static_cast<int>(kParityBits);
       --bit) {
    if ((reg >> bit) & 1u) {
      reg ^= static_cast<std::uint32_t>(kGenPoly) << (bit - kParityBits);
    }
  }
  return static_cast<std::uint8_t>(reg & 0x1F);
}

/// Parity masks of the linear syndrome map: syndrome bit k of a block is
/// the XOR (popcount parity) of the block bits selected by kSynMask[k].
/// Built from the reference division, used by the word-path decoder.
constexpr std::array<std::uint16_t, kParityBits> make_syndrome_masks() {
  std::array<std::uint16_t, kParityBits> m{};
  for (unsigned pos = 0; pos < kFec23BlockBits; ++pos) {
    const std::uint8_t s = syndrome_ref(static_cast<std::uint16_t>(1u << pos));
    for (unsigned k = 0; k < kParityBits; ++k) {
      if ((s >> k) & 1u) m[k] |= static_cast<std::uint16_t>(1u << pos);
    }
  }
  return m;
}

/// syndrome -> bit index (0..14), or -1 for "not a single-bit pattern".
constexpr std::array<int, 32> make_syndrome_table() {
  std::array<int, 32> t{};
  for (auto& e : t) e = -1;
  for (int pos = 0; pos < static_cast<int>(kFec23BlockBits); ++pos) {
    t[syndrome_ref(static_cast<std::uint16_t>(1u << pos))] = pos;
  }
  return t;
}

/// Five parity bits of every 10-bit data value, in polynomial order.
constexpr std::array<std::uint8_t, 1024> make_parity_table() {
  std::array<std::uint8_t, 1024> t{};
  for (unsigned d = 0; d < 1024; ++d) {
    t[d] = static_cast<std::uint8_t>(
        encode_block_ref(static_cast<std::uint16_t>(d)) & 0x1F);
  }
  return t;
}

/// 5-bit reversal: air order transmits parity MSB first.
constexpr std::array<std::uint8_t, 32> make_rev5() {
  std::array<std::uint8_t, 32> t{};
  for (unsigned v = 0; v < 32; ++v) {
    t[v] = reverse_bits(static_cast<std::uint8_t>(v), kParityBits);
  }
  return t;
}

constexpr std::array<std::uint16_t, kParityBits> kSynMask =
    make_syndrome_masks();
constexpr std::array<int, 32> kSyndromeTable = make_syndrome_table();
constexpr std::array<std::uint8_t, 1024> kParityTable = make_parity_table();
constexpr std::array<std::uint8_t, 32> kRev5 = make_rev5();

/// Word-path syndrome: five masked popcount parities instead of a
/// 10-step polynomial division.
inline std::uint8_t syndrome_of(std::uint16_t block15) {
  std::uint8_t s = 0;
  for (unsigned k = 0; k < kParityBits; ++k) {
    s |= static_cast<std::uint8_t>(
        (std::popcount(static_cast<unsigned>(block15 & kSynMask[k])) & 1)
        << k);
  }
  return s;
}

}  // namespace

sim::BitVector fec13_encode(const sim::BitVector& data) {
  sim::BitVector out;
  out.reserve(3 * data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out.append_uint(data[i] ? 0x7u : 0x0u, 3);
  }
  return out;
}

sim::BitVector fec13_decode(const sim::BitVector& coded) {
  if (coded.size() % 3 != 0) {
    throw std::invalid_argument("fec13_decode: size not a multiple of 3");
  }
  sim::BitVector out;
  out.reserve(coded.size() / 3);
  for (std::size_t i = 0; i < coded.size(); i += 3) {
    const auto triplet =
        static_cast<unsigned>(coded.extract_word(i, 3));
    out.push_back(std::popcount(triplet) >= 2);
  }
  return out;
}

std::uint16_t fec23_encode_block(std::uint16_t data10) {
  data10 &= 0x3FF;
  return static_cast<std::uint16_t>(
      (static_cast<std::uint32_t>(data10) << kParityBits) |
      kParityTable[data10]);
}

std::uint16_t fec23_encode_block15(std::uint16_t data10) {
  // Air order: the 10 information bits first (LSB first), then parity
  // MSB first.
  data10 &= 0x3FF;
  return static_cast<std::uint16_t>(
      data10 | (kRev5[kParityTable[data10]] << kFec23DataBits));
}

sim::BitVector fec23_encode(const sim::BitVector& data) {
  sim::BitVector out;
  out.reserve((data.size() + kFec23DataBits - 1) / kFec23DataBits *
              kFec23BlockBits);
  for (std::size_t pos = 0; pos < data.size(); pos += kFec23DataBits) {
    const unsigned have = static_cast<unsigned>(
        data.size() - pos < kFec23DataBits ? data.size() - pos
                                           : kFec23DataBits);
    // The last block is zero-padded; callers must know the true payload
    // length (it is carried in the payload header).
    out.append_uint(fec23_encode_block15(static_cast<std::uint16_t>(
                        data.extract_word(pos, have))),
                    kFec23BlockBits);
  }
  return out;
}

Fec23Block fec23_decode_block15(std::uint16_t air15) {
  // Reassemble the block in polynomial order (data above parity; the
  // parity flew MSB first).
  const auto data10 = static_cast<std::uint16_t>(air15 & 0x3FF);
  const std::uint8_t parity = kRev5[(air15 >> kFec23DataBits) & 0x1F];
  auto block = static_cast<std::uint16_t>((data10 << kParityBits) | parity);
  Fec23Block out;
  const std::uint8_t syn = syndrome_of(block);
  if (syn != 0) {
    const int pos_in_block = kSyndromeTable[syn];
    if (pos_in_block < 0) {
      out.failed = true;
    } else {
      block = static_cast<std::uint16_t>(
          block ^ static_cast<std::uint16_t>(1u << pos_in_block));
      out.corrected = true;
    }
  }
  out.data10 = static_cast<std::uint16_t>((block >> kParityBits) & 0x3FF);
  return out;
}

Fec23Result fec23_decode(const sim::BitVector& coded) {
  if (coded.size() % kFec23BlockBits != 0) {
    throw std::invalid_argument("fec23_decode: size not a multiple of 15");
  }
  Fec23Result result;
  result.data.reserve(coded.size() / kFec23BlockBits * kFec23DataBits);
  for (std::size_t pos = 0; pos < coded.size(); pos += kFec23BlockBits) {
    const auto air =
        static_cast<std::uint16_t>(coded.extract_word(pos, kFec23BlockBits));
    const Fec23Block b = fec23_decode_block15(air);
    result.failed = result.failed || b.failed;
    result.corrected_blocks += b.corrected ? 1 : 0;
    result.data.append_uint(b.data10, kFec23DataBits);
  }
  return result;
}

}  // namespace btsc::baseband
