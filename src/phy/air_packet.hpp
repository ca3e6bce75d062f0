// A packet as the radio and the channel carry it.
//
// A transmitter hands its radio an AirPacket, not its air bits. The
// radio and the channel need only its length to run it on the medium;
// the bits are read only where something needs them -- a per-bit drive,
// a noisy copy, a fallback, a receiver that decodes bits, a checkpoint.
// baseband::TxPacket composes them from header, payload and link
// parameters on the first such read, so a run nothing corrupts is never
// composed at all (docs/ARCHITECTURE.md, "Clean runs carry the packet").
#pragma once

#include <cstddef>

#include "sim/bitvector.hpp"

namespace btsc::phy {

class AirPacket {
 public:
  /// Length on the air, in bits; known without composing.
  virtual std::size_t size() const = 0;
  /// The air bits (bit 0 first on air), composed on the first call and
  /// kept until the packet changes.
  virtual const sim::BitVector& bits() const = 0;

 protected:
  ~AirPacket() = default;
};

/// A packet that already is its bits: a raw transmission, a channel's
/// noisy copy, a transmission restored from a checkpoint.
class BitsPacket final : public AirPacket {
 public:
  std::size_t size() const override { return bits_.size(); }
  const sim::BitVector& bits() const override { return bits_; }
  sim::BitVector& mutable_bits() { return bits_; }

 private:
  sim::BitVector bits_;
};

}  // namespace btsc::phy
