// Baseband packet types, geometry, composition and parsing.
//
// On-air layout (bit 0 first):
//
//   ID                : access code without trailer (68 bits)
//   everything else   : access code with trailer (72) + header (54) +
//                       optional payload
//
// The 18-bit header (LT_ADDR 3, TYPE 4, FLOW 1, ARQN 1, SEQN 1, HEC 8) is
// whitened and then rate-1/3 repetition coded to 54 bits. Payloads carry
// a payload header (1 byte for single-slot, 2 bytes for multi-slot ACL
// packets), the user data and a CRC-16; DM packets (and FHS) pass through
// the (15,10) FEC 2/3 encoder, DH packets are unprotected. Whitening is
// applied to header and payload *before* FEC encoding, per the spec.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "baseband/address.hpp"
#include "sim/bitvector.hpp"
#include "sim/time.hpp"

namespace btsc::baseband {

/// 4-bit TYPE codes (ACL subset modelled; ID is not a header type).
enum class PacketType : std::uint8_t {
  kNull = 0b0000,
  kPoll = 0b0001,
  kFhs = 0b0010,
  kDm1 = 0b0011,
  kDh1 = 0b0100,
  kAux1 = 0b1001,
  kDm3 = 0b1010,
  kDh3 = 0b1011,
  kDm5 = 0b1110,
  kDh5 = 0b1111,
};

const char* to_string(PacketType t);

// The framing predicates are inline: the receiver's decode loop asks
// them for every packet it assembles.

/// True for types that carry a payload section.
constexpr bool has_payload(PacketType t) {
  return t != PacketType::kNull && t != PacketType::kPoll;
}

/// True for types whose payload is FEC 2/3 coded (DM family + FHS).
constexpr bool is_fec23(PacketType t) {
  switch (t) {
    case PacketType::kFhs:
    case PacketType::kDm1:
    case PacketType::kDm3:
    case PacketType::kDm5:
      return true;
    default:
      return false;
  }
}

/// True for types protected by a payload CRC (everything with a payload
/// except AUX1).
constexpr bool has_crc(PacketType t) {
  return has_payload(t) && t != PacketType::kAux1;
}

/// Number of slots the packet occupies (1, 3 or 5).
int slots_occupied(PacketType t);

/// Payload header size in bytes (1 single-slot, 2 multi-slot); 0 for FHS.
constexpr std::size_t payload_header_bytes(PacketType t) {
  switch (t) {
    case PacketType::kDm1:
    case PacketType::kDh1:
    case PacketType::kAux1:
      return 1;
    case PacketType::kDm3:
    case PacketType::kDh3:
    case PacketType::kDm5:
    case PacketType::kDh5:
      return 2;
    default:
      return 0;  // NULL/POLL/FHS
  }
}

/// Maximum user payload in bytes (0 for NULL/POLL/FHS).
std::size_t max_user_bytes(PacketType t);

/// 18-byte FHS information payload (before CRC).
inline constexpr std::size_t kFhsBytes = 18;

/// The FEC-1/3 coded header: 18 information bits, each sent three times.
inline constexpr std::size_t kHeaderCodedBits = 54;

/// Packet header fields (HEC handled by compose/parse).
struct PacketHeader {
  std::uint8_t lt_addr = 0;  // 3 bits; 0 = broadcast
  PacketType type = PacketType::kNull;
  bool flow = true;
  bool arqn = false;
  bool seqn = false;

  /// Packs into the 10-bit on-air order (LT_ADDR first).
  std::uint16_t pack() const;
  static PacketHeader unpack(std::uint16_t v);

  friend bool operator==(const PacketHeader&, const PacketHeader&) = default;
};

/// ACL payload header.
struct PayloadHeader {
  std::uint8_t llid = 2;  // 2 bits: 01 continuation, 10 start, 11 LMP
  bool flow = true;
  std::uint16_t length = 0;  // 5 bits (1-byte form) or 9 bits (2-byte form)
};

/// LLID value carrying LMP messages.
inline constexpr std::uint8_t kLlidLmp = 0b11;
/// LLID value for the start of an L2CAP (user data) message.
inline constexpr std::uint8_t kLlidStart = 0b10;
/// LLID continuation fragment.
inline constexpr std::uint8_t kLlidCont = 0b01;

/// FHS packet content: everything a responding/paging device announces so
/// the counterpart can construct the channel (address -> access code and
/// hop sequence; clock -> phase; lt_addr -> the slave's assigned address).
struct FhsPayload {
  BdAddr addr;
  std::uint32_t clk27_2 = 0;       // bits 27..2 of the sender's clock
  std::uint8_t lt_addr = 0;        // AM address assigned to the recipient
  std::uint32_t class_of_device = 0;

  std::vector<std::uint8_t> to_bytes() const;
  static FhsPayload from_bytes(const std::vector<std::uint8_t>& bytes);
  friend bool operator==(const FhsPayload&, const FhsPayload&) = default;
};

/// Total on-air bits for a packet of `type` carrying `user_bytes` of user
/// data (ID excluded; use kIdPacketBits).
std::size_t air_bits(PacketType type, std::size_t user_bytes);

/// Coded payload bits of a packet of `type` whose payload body (payload
/// header + user data, or the FHS information) is `body_bytes` long: the
/// body and its CRC, FEC 2/3 coded for DM/FHS. 0 without a payload.
std::size_t coded_payload_bits(PacketType type, std::size_t body_bytes);

/// On-air duration.
sim::SimTime air_time(PacketType type, std::size_t user_bytes);

/// Composition parameters shared by TX and RX.
struct LinkParams {
  std::uint8_t check_init = kDefaultCheckInit;  // UAP for HEC/CRC
  /// Whitening initial register (7 bits); nullopt disables whitening
  /// (inquiry/page exchanges in this model are sent unwhitened; see
  /// DESIGN.md).
  std::optional<std::uint8_t> whiten_init;
};

/// Throws std::invalid_argument unless `payload` is a body
/// compose_after_access_code() accepts for `header`.
void check_payload_body(const PacketHeader& header,
                        const std::vector<std::uint8_t>& payload);

/// Composes a full on-air packet after its access code (which the
/// caller appends first: it depends on CAC/DAC/IAC context) and appends
/// it to `out`, with no intermediate buffer.
/// `payload` is the payload *body* for data packets: payload header byte(s)
/// + user data, without CRC (appended here). For FHS pass exactly the 18
/// information bytes. Must be empty for NULL/POLL.
void compose_after_access_code(const PacketHeader& header,
                               const std::vector<std::uint8_t>& payload,
                               const LinkParams& params, sim::BitVector& out);

/// Convenience: payload body builder for an ACL packet.
std::vector<std::uint8_t> build_acl_body(PacketType type,
                                         std::uint8_t llid, bool flow,
                                         const std::vector<std::uint8_t>& user);

/// Parses the payload *body* (after FEC decode and CRC strip) of an ACL
/// packet back into the payload header + user bytes.
struct ParsedBody {
  PayloadHeader header;
  std::vector<std::uint8_t> user;
};
ParsedBody parse_acl_body(PacketType type,
                          const std::vector<std::uint8_t>& body);

}  // namespace btsc::baseband
