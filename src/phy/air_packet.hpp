// A packet as the radio and the channel carry it.
//
// A transmitter hands its radio an AirPacket, not its air bits. The
// radio and the channel need only its length to run it on the medium;
// the bits are read only where something needs them -- a per-bit drive,
// sense(), a fallback, a receiver that decodes bits, a checkpoint.
// baseband::TxPacket composes them from header, payload and link
// parameters on the first such read, so a run nothing corrupts is never
// composed at all. A run with flips inside is shown as a FlippedPacket:
// the transmitter's packet plus the positions of its flipped bits,
// composed only for a reader of its bits (docs/ARCHITECTURE.md, "Clean
// runs carry the packet").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/bitvector.hpp"

namespace btsc::phy {

class AirPacket {
 public:
  /// Length on the air, in bits; known without composing.
  virtual std::size_t size() const = 0;
  /// The air bits (bit 0 first on air), composed on the first call and
  /// kept until the packet changes.
  virtual const sim::BitVector& bits() const = 0;

  /// Air bits [first, first + n) (n in 1..64), LSB first. A packet that
  /// can serve some of them without composing overrides this.
  virtual std::uint64_t word(std::size_t first, unsigned n) const {
    return bits().extract_word(first, n);
  }

  /// The transmitter's logical packet behind these bits: the packet
  /// itself for a baseband::TxPacket (the only kind that returns itself),
  /// the packet it flips for a FlippedPacket, nullptr for bits with no
  /// logical form (a raw transmission, a restored one).
  virtual const AirPacket* logical() const { return nullptr; }

  /// The air bits, ascending, in which these bits differ from
  /// logical()'s: empty unless noise flipped some.
  virtual std::span<const std::uint32_t> flips() const { return {}; }

 protected:
  ~AirPacket() = default;
};

/// A packet that already is its bits: a raw transmission, a transmission
/// restored from a checkpoint.
class BitsPacket final : public AirPacket {
 public:
  std::size_t size() const override { return bits_.size(); }
  const sim::BitVector& bits() const override { return bits_; }
  sim::BitVector& mutable_bits() { return bits_; }

 private:
  sim::BitVector bits_;
};

/// Another packet with some of its air bits flipped: what a noisy run
/// shows. It keeps the flip positions, not the bits -- a word read is the
/// packet's own word XOR the flips inside it, and bits() composes the
/// packet's bits XOR the flips for a reader that needs them. Both buffers
/// keep their capacity across packets, so steady-state noisy runs
/// allocate nothing.
class FlippedPacket final : public AirPacket {
 public:
  /// Shows `packet` with no flips yet; the caller appends them,
  /// ascending, to positions(). `packet` must outlive the view.
  void show(const AirPacket& packet) {
    packet_ = &packet;
    flips_.clear();
    composed_ = false;
  }
  std::vector<std::uint32_t>& positions() { return flips_; }

  std::size_t size() const override { return packet_->size(); }

  const sim::BitVector& bits() const override {
    if (!composed_) {
      bits_.clear();
      bits_.append(packet_->bits());
      for (const std::uint32_t i : flips_) bits_.xor_word(i, 1, 1);
      composed_ = true;
    }
    return bits_;
  }

  std::uint64_t word(std::size_t first, unsigned n) const override {
    std::uint64_t w = packet_->word(first, n);
    for (auto it = std::lower_bound(flips_.begin(), flips_.end(), first);
         it != flips_.end() && *it < first + n; ++it) {
      w ^= 1ull << (*it - first);
    }
    return w;
  }

  const AirPacket* logical() const override { return packet_->logical(); }
  std::span<const std::uint32_t> flips() const override { return flips_; }

 private:
  const AirPacket* packet_ = nullptr;
  std::vector<std::uint32_t> flips_;
  mutable bool composed_ = false;
  mutable sim::BitVector bits_;
};

}  // namespace btsc::phy
