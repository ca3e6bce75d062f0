#include "lm/lmp.hpp"

namespace btsc::lm {
namespace {

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

std::uint32_t get32(const std::vector<std::uint8_t>& b, std::size_t pos) {
  return static_cast<std::uint32_t>(b[pos]) |
         (static_cast<std::uint32_t>(b[pos + 1]) << 8) |
         (static_cast<std::uint32_t>(b[pos + 2]) << 16) |
         (static_cast<std::uint32_t>(b[pos + 3]) << 24);
}

}  // namespace

std::vector<std::uint8_t> LmpPdu::encode() const {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(opcode) << 1) |
      (master_initiated ? 0u : 1u)));
  switch (opcode) {
    case LmpOpcode::kSniffReq:
      put32(out, interval);
      put32(out, offset);
      out.push_back(static_cast<std::uint8_t>(attempt & 0xFF));
      out.push_back(static_cast<std::uint8_t>((attempt >> 8) & 0xFF));
      break;
    case LmpOpcode::kHoldReq:
      put32(out, interval);
      put32(out, instant);
      break;
    case LmpOpcode::kParkReq:
      out.push_back(pm_addr);
      put32(out, instant);
      break;
    case LmpOpcode::kUnparkReq:
      out.push_back(pm_addr);
      out.push_back(lt_addr);
      break;
    case LmpOpcode::kAccepted:
    case LmpOpcode::kNotAccepted:
      out.push_back(static_cast<std::uint8_t>(accepted_opcode));
      break;
    case LmpOpcode::kDetach:
      out.push_back(reason);
      break;
    case LmpOpcode::kUnsniffReq:
    case LmpOpcode::kSetupComplete:
      break;
  }
  return out;
}

std::optional<LmpPdu> LmpPdu::decode(const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return std::nullopt;
  LmpPdu pdu;
  pdu.opcode = static_cast<LmpOpcode>(bytes[0] >> 1);
  pdu.master_initiated = (bytes[0] & 1u) == 0;
  auto need = [&bytes](std::size_t n) { return bytes.size() >= 1 + n; };
  switch (pdu.opcode) {
    case LmpOpcode::kSniffReq:
      if (!need(10)) return std::nullopt;
      pdu.interval = get32(bytes, 1);
      pdu.offset = get32(bytes, 5);
      pdu.attempt = static_cast<std::uint16_t>(
          bytes[9] | (static_cast<std::uint16_t>(bytes[10]) << 8));
      break;
    case LmpOpcode::kHoldReq:
      if (!need(8)) return std::nullopt;
      pdu.interval = get32(bytes, 1);
      pdu.instant = get32(bytes, 5);
      break;
    case LmpOpcode::kParkReq:
      if (!need(5)) return std::nullopt;
      pdu.pm_addr = bytes[1];
      pdu.instant = get32(bytes, 2);
      break;
    case LmpOpcode::kUnparkReq:
      if (!need(2)) return std::nullopt;
      pdu.pm_addr = bytes[1];
      pdu.lt_addr = bytes[2];
      break;
    case LmpOpcode::kAccepted:
    case LmpOpcode::kNotAccepted:
      if (!need(1)) return std::nullopt;
      pdu.accepted_opcode = static_cast<LmpOpcode>(bytes[1]);
      break;
    case LmpOpcode::kDetach:
      if (!need(1)) return std::nullopt;
      pdu.reason = bytes[1];
      break;
    case LmpOpcode::kUnsniffReq:
    case LmpOpcode::kSetupComplete:
      break;
    default:
      return std::nullopt;
  }
  return pdu;
}

}  // namespace btsc::lm
