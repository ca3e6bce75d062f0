#include "baseband/packet.hpp"

#include <stdexcept>

#include "baseband/crc.hpp"
#include "baseband/fec.hpp"
#include "baseband/hec.hpp"
#include "baseband/whitening.hpp"

namespace btsc::baseband {

const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::kNull:
      return "NULL";
    case PacketType::kPoll:
      return "POLL";
    case PacketType::kFhs:
      return "FHS";
    case PacketType::kDm1:
      return "DM1";
    case PacketType::kDh1:
      return "DH1";
    case PacketType::kAux1:
      return "AUX1";
    case PacketType::kDm3:
      return "DM3";
    case PacketType::kDh3:
      return "DH3";
    case PacketType::kDm5:
      return "DM5";
    case PacketType::kDh5:
      return "DH5";
  }
  return "?";
}

int slots_occupied(PacketType t) {
  switch (t) {
    case PacketType::kDm3:
    case PacketType::kDh3:
      return 3;
    case PacketType::kDm5:
    case PacketType::kDh5:
      return 5;
    default:
      return 1;
  }
}

std::size_t max_user_bytes(PacketType t) {
  switch (t) {
    case PacketType::kDm1:
      return 17;
    case PacketType::kDh1:
      return 27;
    case PacketType::kAux1:
      return 29;
    case PacketType::kDm3:
      return 121;
    case PacketType::kDh3:
      return 183;
    case PacketType::kDm5:
      return 224;
    case PacketType::kDh5:
      return 339;
    default:
      return 0;
  }
}

std::uint16_t PacketHeader::pack() const {
  return static_cast<std::uint16_t>(
      (lt_addr & 0x7u) | (static_cast<std::uint16_t>(type) << 3) |
      (static_cast<std::uint16_t>(flow) << 7) |
      (static_cast<std::uint16_t>(arqn) << 8) |
      (static_cast<std::uint16_t>(seqn) << 9));
}

PacketHeader PacketHeader::unpack(std::uint16_t v) {
  PacketHeader h;
  h.lt_addr = static_cast<std::uint8_t>(v & 0x7u);
  h.type = static_cast<PacketType>((v >> 3) & 0xFu);
  h.flow = (v >> 7) & 1u;
  h.arqn = (v >> 8) & 1u;
  h.seqn = (v >> 9) & 1u;
  return h;
}

std::vector<std::uint8_t> FhsPayload::to_bytes() const {
  std::vector<std::uint8_t> b(kFhsBytes, 0);
  const std::uint64_t raw = addr.raw();
  for (int i = 0; i < 6; ++i) {
    b[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((raw >> (8 * i)) & 0xFFu);
  }
  b[6] = static_cast<std::uint8_t>(class_of_device & 0xFFu);
  b[7] = static_cast<std::uint8_t>((class_of_device >> 8) & 0xFFu);
  b[8] = static_cast<std::uint8_t>((class_of_device >> 16) & 0xFFu);
  b[9] = static_cast<std::uint8_t>(lt_addr & 0x7u);
  const std::uint32_t clk = clk27_2 & 0x03FFFFFFu;  // 26 bits
  b[10] = static_cast<std::uint8_t>(clk & 0xFFu);
  b[11] = static_cast<std::uint8_t>((clk >> 8) & 0xFFu);
  b[12] = static_cast<std::uint8_t>((clk >> 16) & 0xFFu);
  b[13] = static_cast<std::uint8_t>((clk >> 24) & 0x03u);
  // Bytes 14..17 reserved (page scan mode, EIR, ... not modelled).
  return b;
}

FhsPayload FhsPayload::from_bytes(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != kFhsBytes) {
    throw std::invalid_argument("FhsPayload: need exactly 18 bytes");
  }
  FhsPayload f;
  std::uint64_t raw = 0;
  for (int i = 0; i < 6; ++i) {
    raw |= static_cast<std::uint64_t>(bytes[static_cast<std::size_t>(i)])
           << (8 * i);
  }
  f.addr = BdAddr::from_raw(raw);
  f.class_of_device = static_cast<std::uint32_t>(bytes[6]) |
                      (static_cast<std::uint32_t>(bytes[7]) << 8) |
                      (static_cast<std::uint32_t>(bytes[8]) << 16);
  f.lt_addr = static_cast<std::uint8_t>(bytes[9] & 0x7u);
  f.clk27_2 = static_cast<std::uint32_t>(bytes[10]) |
              (static_cast<std::uint32_t>(bytes[11]) << 8) |
              (static_cast<std::uint32_t>(bytes[12]) << 16) |
              (static_cast<std::uint32_t>(bytes[13] & 0x03u) << 24);
  return f;
}

namespace {

constexpr std::size_t kHeaderInfoBits = 18;  // 10 header + 8 HEC

std::size_t payload_body_bytes(PacketType type, std::size_t user_bytes) {
  if (!has_payload(type)) return 0;
  if (type == PacketType::kFhs) return kFhsBytes;
  return payload_header_bytes(type) + user_bytes;
}

}  // namespace

std::size_t coded_payload_bits(PacketType type, std::size_t body_bytes) {
  if (!has_payload(type)) return 0;
  const std::size_t body_bits = 8 * (body_bytes + (has_crc(type) ? 2 : 0));
  if (!is_fec23(type)) return body_bits;
  return (body_bits + kFec23DataBits - 1) / kFec23DataBits * kFec23BlockBits;
}

std::size_t air_bits(PacketType type, std::size_t user_bytes) {
  // access code + coded header + coded payload
  return 72 + kHeaderCodedBits +
         coded_payload_bits(type, payload_body_bytes(type, user_bytes));
}

sim::SimTime air_time(PacketType type, std::size_t user_bytes) {
  return sim::SimTime::us(air_bits(type, user_bytes));
}

void check_payload_body(const PacketHeader& header,
                        const std::vector<std::uint8_t>& payload) {
  if (!has_payload(header.type) && !payload.empty()) {
    throw std::invalid_argument("compose: payload on NULL/POLL packet");
  }
  if (header.type == PacketType::kFhs && payload.size() != kFhsBytes) {
    throw std::invalid_argument("compose: FHS payload must be 18 bytes");
  }
  if (header.type != PacketType::kFhs && has_payload(header.type)) {
    const std::size_t max_body =
        payload_header_bytes(header.type) + max_user_bytes(header.type);
    if (payload.empty() || payload.size() > max_body) {
      throw std::invalid_argument("compose: payload body size out of range");
    }
  }
}

void compose_after_access_code(const PacketHeader& header,
                               const std::vector<std::uint8_t>& payload,
                               const LinkParams& params,
                               sim::BitVector& out) {
  check_payload_body(header, payload);
  Whitener whitener(params.whiten_init.value_or(0));
  const bool whiten = params.whiten_init.has_value();
  auto keystream = [&](unsigned n) {
    return whiten ? whitener.keystream(n) : 0;
  };

  // ---- header: 10 info bits + HEC, whitened, each bit sent 3 times ----
  const std::uint16_t header10 = header.pack();
  const std::uint64_t info =
      (header10 | static_cast<std::uint64_t>(
                      hec_compute10(header10, params.check_init))
                      << 10) ^
      keystream(kHeaderInfoBits);
  std::uint64_t coded = 0;
  for (unsigned i = 0; i < kHeaderInfoBits; ++i) {
    coded |= ((info >> i) & 1u) * 0x7u << (3 * i);
  }
  out.append_uint(coded, kHeaderCodedBits);

  // ---- payload: body and CRC, whitened, FEC 2/3 coded for DM/FHS ----
  if (!has_payload(header.type)) return;
  const bool fec = is_fec23(header.type);
  std::uint64_t pending = 0;  // whitened data bits not yet appended
  unsigned held = 0;
  auto put = [&](std::uint8_t byte) {
    pending |= ((byte ^ keystream(8)) & 0xFFu) << held;
    held += 8;
    if (fec) {
      for (; held >= kFec23DataBits; held -= kFec23DataBits) {
        out.append_uint(fec23_encode_block15(
                            static_cast<std::uint16_t>(pending & 0x3FFu)),
                        kFec23BlockBits);
        pending >>= kFec23DataBits;
      }
    } else if (held == 64) {
      out.append_uint(pending, 64);
      pending = 0;
      held = 0;
    }
  };
  for (const std::uint8_t byte : payload) put(byte);
  if (has_crc(header.type)) {
    const std::uint16_t crc = crc16_compute(payload, params.check_init);
    put(static_cast<std::uint8_t>(crc & 0xFFu));
    put(static_cast<std::uint8_t>(crc >> 8));
  }
  // The last FEC block is zero-padded.
  if (held > 0 && fec) {
    out.append_uint(fec23_encode_block15(static_cast<std::uint16_t>(pending)),
                    kFec23BlockBits);
  } else if (held > 0) {
    out.append_uint(pending, held);
  }
}

std::vector<std::uint8_t> build_acl_body(
    PacketType type, std::uint8_t llid, bool flow,
    const std::vector<std::uint8_t>& user) {
  if (user.size() > max_user_bytes(type)) {
    throw std::invalid_argument("build_acl_body: user data too large");
  }
  std::vector<std::uint8_t> body;
  const std::size_t hdr = payload_header_bytes(type);
  if (hdr == 1) {
    body.push_back(static_cast<std::uint8_t>(
        (llid & 0x3u) | (static_cast<unsigned>(flow) << 2) |
        ((user.size() & 0x1Fu) << 3)));
  } else if (hdr == 2) {
    const auto len = static_cast<std::uint16_t>(user.size() & 0x1FFu);
    body.push_back(static_cast<std::uint8_t>(
        (llid & 0x3u) | (static_cast<unsigned>(flow) << 2) |
        ((len & 0x1Fu) << 3)));
    body.push_back(static_cast<std::uint8_t>((len >> 5) & 0x0Fu));
  } else {
    throw std::invalid_argument("build_acl_body: not an ACL packet type");
  }
  body.insert(body.end(), user.begin(), user.end());
  return body;
}

ParsedBody parse_acl_body(PacketType type,
                          const std::vector<std::uint8_t>& body) {
  const std::size_t hdr = payload_header_bytes(type);
  if (hdr == 0 || body.size() < hdr) {
    throw std::invalid_argument("parse_acl_body: bad body");
  }
  ParsedBody out;
  out.header.llid = body[0] & 0x3u;
  out.header.flow = (body[0] >> 2) & 1u;
  if (hdr == 1) {
    out.header.length = (body[0] >> 3) & 0x1Fu;
  } else {
    out.header.length = static_cast<std::uint16_t>(((body[0] >> 3) & 0x1Fu) |
                                                   ((body[1] & 0x0Fu) << 5));
  }
  if (body.size() != hdr + out.header.length) {
    throw std::invalid_argument("parse_acl_body: length mismatch");
  }
  out.user.assign(body.begin() + static_cast<std::ptrdiff_t>(hdr),
                  body.end());
  return out;
}

}  // namespace btsc::baseband
