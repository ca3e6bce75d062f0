// LMP (Link Manager Protocol) PDUs.
//
// The subset of LMP needed for the paper's experiments: connection setup
// completion, the low-power mode requests (sniff/unsniff, hold, park/
// unpark) and detach, plus accepted/not-accepted responses. PDUs travel
// in DM1 payloads with LLID 11 and are encoded little-endian with the
// opcode (7 bits) and transaction-initiator bit in the first byte, like
// the real protocol.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace btsc::lm {

enum class LmpOpcode : std::uint8_t {
  kAccepted = 3,
  kNotAccepted = 4,
  kDetach = 7,
  kHoldReq = 21,
  kSniffReq = 23,
  kUnsniffReq = 24,
  kParkReq = 25,
  kUnparkReq = 26,  // model-specific: carried on the park beacon broadcast
  kSetupComplete = 49,
};

/// Decoded LMP PDU. Fields beyond `opcode` are meaningful per opcode:
///   kSniffReq           : interval, offset, attempt
///   kHoldReq            : interval (duration), instant (start CLK/2)
///   kParkReq            : pm_addr, instant
///   kUnparkReq          : pm_addr, lt_addr
///   kAccepted/kNotAccepted : accepted_opcode
///   kDetach             : reason
struct LmpPdu {
  LmpOpcode opcode = LmpOpcode::kSetupComplete;
  /// Transaction initiated by the master (TID bit).
  bool master_initiated = true;

  std::uint32_t interval = 0;
  std::uint32_t offset = 0;
  std::uint16_t attempt = 0;
  /// Piconet slot number (CLK/2) at which a mode change takes effect.
  std::uint32_t instant = 0;
  std::uint8_t pm_addr = 0;
  std::uint8_t lt_addr = 0;
  std::uint8_t reason = 0;
  LmpOpcode accepted_opcode = LmpOpcode::kSetupComplete;

  /// Serialises to the on-air payload (fits a DM1 user payload).
  std::vector<std::uint8_t> encode() const;

  /// Parses a payload; nullopt if the opcode is unknown or truncated.
  static std::optional<LmpPdu> decode(const std::vector<std::uint8_t>& bytes);

  friend bool operator==(const LmpPdu&, const LmpPdu&) = default;
};

}  // namespace btsc::lm
