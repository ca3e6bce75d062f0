// Bluetooth device addressing.
//
// A BD_ADDR is 48 bits: LAP (lower address part, 24 bits), UAP (upper
// address part, 8 bits) and NAP (non-significant address part, 16 bits).
// The LAP seeds the channel/device access codes and the hop sequence; the
// UAP initialises the HEC and CRC generators. The general inquiry access
// code (GIAC) is the reserved LAP 0x9E8B33 shared by all devices.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace btsc::baseband {

class BdAddr {
 public:
  constexpr BdAddr() = default;
  constexpr BdAddr(std::uint32_t lap, std::uint8_t uap, std::uint16_t nap)
      : lap_(lap & 0xFFFFFFu), uap_(uap), nap_(nap) {}

  /// Builds from the packed 48-bit form (NAP | UAP | LAP).
  static constexpr BdAddr from_raw(std::uint64_t raw) {
    return BdAddr(static_cast<std::uint32_t>(raw & 0xFFFFFFu),
                  static_cast<std::uint8_t>((raw >> 24) & 0xFFu),
                  static_cast<std::uint16_t>((raw >> 32) & 0xFFFFu));
  }

  constexpr std::uint32_t lap() const { return lap_; }
  constexpr std::uint8_t uap() const { return uap_; }

  constexpr std::uint64_t raw() const {
    return (static_cast<std::uint64_t>(nap_) << 32) |
           (static_cast<std::uint64_t>(uap_) << 24) | lap_;
  }

  /// 28-bit input to the hop selection kernel: LAP plus the four least
  /// significant UAP bits (spec part B, hop selection "address input").
  constexpr std::uint32_t hop_address() const {
    return lap_ | (static_cast<std::uint32_t>(uap_ & 0x0Fu) << 24);
  }

  std::string to_string() const;

  friend constexpr auto operator<=>(const BdAddr&, const BdAddr&) = default;

 private:
  std::uint32_t lap_ = 0;
  std::uint8_t uap_ = 0;
  std::uint16_t nap_ = 0;
};

/// General inquiry access code LAP, common to all Bluetooth devices.
inline constexpr std::uint32_t kGiacLap = 0x9E8B33u;
/// First dedicated inquiry access code LAP (DIACs span 0x9E8B00-0x9E8B3F).
inline constexpr std::uint32_t kDiacBaseLap = 0x9E8B00u;

/// Default check initialisation for HEC/CRC when no UAP is known yet
/// (inquiry procedures use the DCI, defined as 0x00).
inline constexpr std::uint8_t kDefaultCheckInit = 0x00;

}  // namespace btsc::baseband
