#include "baseband/tx_packet.hpp"

namespace btsc::baseband {

void TxPacket::set_id(const AccessCode& code) {
  id_ = true;
  code_ = code;
  header_ = PacketHeader{};
  body_.clear();
  params_ = LinkParams{};
  size_ = kIdPacketBits;
  framed_ = false;
  ++serial_;
  composed_ = false;
}

void TxPacket::set(const AccessCode& code, const PacketHeader& header,
                   const std::vector<std::uint8_t>& body,
                   const LinkParams& params) {
  check_payload_body(header, body);
  id_ = false;
  code_ = code;
  header_ = header;
  body_.assign(body.begin(), body.end());
  params_ = params;
  size_ = kAccessCodeBits + kHeaderCodedBits +
          coded_payload_bits(header.type, body.size());
  // A receiver reads the payload length from the body's payload header;
  // FHS has a fixed length and NULL/POLL none.
  framed_ = true;
  if (const std::size_t hdr = payload_header_bytes(header.type); hdr > 0) {
    framed_ = body.size() >= hdr;
    if (framed_) {
      std::size_t length = (body[0] >> 3) & 0x1Fu;
      if (hdr == 2) length |= static_cast<std::size_t>(body[1] & 0x0Fu) << 5;
      framed_ = length <= max_user_bytes(header.type) &&
                hdr + length == body.size();
    }
  }
  ++serial_;
  composed_ = false;
}

const sim::BitVector& TxPacket::bits() const {
  if (!composed_) {
    bits_.clear();
    code_.append_to(bits_, id_ ? kIdPacketBits : kAccessCodeBits);
    if (!id_) compose_after_access_code(header_, body_, params_, bits_);
    composed_ = true;
  }
  return bits_;
}

}  // namespace btsc::baseband
