// A baseband packet in logical form, as the link controller hands it to
// the radio.
//
// A TxPacket holds what a receiver needs from a packet -- the access
// code, the header, the payload body and the link parameters (check
// init, whitening) -- and composes its air bits (access code, FEC-1/3
// header with HEC, whitened and FEC/CRC-protected payload) only when
// something reads them through phy::AirPacket::bits(). A clean run, one
// nothing can corrupt, is delivered to a matching receiver from these
// fields and never composed; so is a noisy run whose flips leave the
// framing intact, from these fields and the flips (docs/ARCHITECTURE.md,
// "Clean runs carry the packet").
#pragma once

#include <cstdint>
#include <vector>

#include "baseband/access_code.hpp"
#include "baseband/packet.hpp"
#include "phy/air_packet.hpp"
#include "sim/bitvector.hpp"

namespace btsc::baseband {

class TxPacket final : public phy::AirPacket {
 public:
  /// An ID packet: the access code alone (68 bits).
  void set_id(const AccessCode& code);

  /// A packet with a header and, for types that carry one, the payload
  /// `body` (payload header + user data, or the 18 FHS information
  /// bytes; empty for NULL/POLL). Throws std::invalid_argument for a
  /// body compose_after_access_code() rejects.
  void set(const AccessCode& code, const PacketHeader& header,
           const std::vector<std::uint8_t>& body, const LinkParams& params);

  // ---- phy::AirPacket ----
  std::size_t size() const override { return size_; }
  const sim::BitVector& bits() const override;
  /// Air bits [first, first + n) of the packet (n <= 64): read from the
  /// cached access code while they lie inside it, else from bits().
  std::uint64_t word(std::size_t first, unsigned n) const override {
    return first + n <= kAccessCodeBits ? code_.bits(first, n)
                                        : bits().extract_word(first, n);
  }
  const phy::AirPacket* logical() const override { return this; }

  const AccessCode& code() const { return code_; }
  const PacketHeader& header() const { return header_; }
  const std::vector<std::uint8_t>& body() const { return body_; }
  const LinkParams& params() const { return params_; }

  /// True when a receiver frames the packet exactly as composed: it has
  /// a header (not an ID packet), and an ACL body's length field names
  /// its own user bytes, within the type's maximum. Then the payload
  /// ends at the packet's last bit.
  bool framed() const { return framed_; }

  /// Changes with every set()/set_id(): tells a reused packet object's
  /// successive packets apart.
  std::uint64_t serial() const { return serial_; }

 private:
  bool id_ = true;
  AccessCode code_;
  PacketHeader header_;
  std::vector<std::uint8_t> body_;
  LinkParams params_;
  std::size_t size_ = 0;
  bool framed_ = false;
  std::uint64_t serial_ = 0;
  mutable bool composed_ = false;
  mutable sim::BitVector bits_;
};

}  // namespace btsc::baseband
