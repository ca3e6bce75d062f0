#include "baseband/piconet.hpp"

#include <algorithm>

namespace btsc::baseband {

const char* to_string(LinkMode m) {
  switch (m) {
    case LinkMode::kActive:
      return "active";
    case LinkMode::kSniff:
      return "sniff";
    case LinkMode::kHold:
      return "hold";
    case LinkMode::kPark:
      return "park";
  }
  return "?";
}

bool SlaveLink::in_sniff_window(std::uint32_t clk) const {
  if (mode != LinkMode::kSniff || sniff_interval_slots == 0) return false;
  // Compare at slot resolution (clk counts half slots).
  const std::uint32_t slot = clk / 2;
  const std::uint32_t phase =
      (slot + sniff_interval_slots - sniff_offset_slots % sniff_interval_slots) %
      sniff_interval_slots;
  return phase < static_cast<std::uint32_t>(sniff_attempt_slots);
}

std::optional<std::uint8_t> Piconet::add_slave(const BdAddr& addr) {
  if (SlaveLink* existing = find(addr)) return existing->lt_addr;
  for (std::uint8_t lt = 1; lt <= kMaxActiveSlaves; ++lt) {
    if (find(lt) == nullptr) {
      SlaveLink link;
      link.addr = addr;
      link.lt_addr = lt;
      slaves_.push_back(std::move(link));
      return lt;
    }
  }
  return std::nullopt;
}

void Piconet::remove_slave(std::uint8_t lt_addr) {
  std::erase_if(slaves_,
                [lt_addr](const SlaveLink& s) { return s.lt_addr == lt_addr; });
}

SlaveLink* Piconet::find(std::uint8_t lt_addr) {
  auto it = std::find_if(slaves_.begin(), slaves_.end(), [lt_addr](auto& s) {
    return s.lt_addr == lt_addr;
  });
  return it == slaves_.end() ? nullptr : &*it;
}

SlaveLink* Piconet::find(const BdAddr& addr) {
  auto it = std::find_if(slaves_.begin(), slaves_.end(),
                         [&addr](auto& s) { return s.addr == addr; });
  return it == slaves_.end() ? nullptr : &*it;
}

bool Piconet::has_parked() const {
  return std::any_of(slaves_.begin(), slaves_.end(), [](const SlaveLink& s) {
    return s.mode == LinkMode::kPark;
  });
}

}  // namespace btsc::baseband
