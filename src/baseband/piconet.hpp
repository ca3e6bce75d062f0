// Piconet membership and per-link state (master side).
//
// Mirrors the paper's PICONET module: it owns the active-member address
// (LT_ADDR) table, the polling bookkeeping (T_poll), the ARQ state per
// link and the low-power mode (active / sniff / hold / park) of every
// slave. Up to seven active slaves share a piconet.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "baseband/address.hpp"
#include "baseband/buffer.hpp"
#include "baseband/packet.hpp"

namespace btsc::baseband {

inline constexpr int kMaxActiveSlaves = 7;
/// Default poll interval (slots): every slave is addressed at least this
/// often while active.
inline constexpr std::uint32_t kDefaultTPollSlots = 40;

enum class LinkMode : std::uint8_t { kActive, kSniff, kHold, kPark };

const char* to_string(LinkMode m);

/// Per-slave link state kept by the master.
struct SlaveLink {
  BdAddr addr;
  std::uint8_t lt_addr = 0;
  LinkMode mode = LinkMode::kActive;

  // ---- ARQ ----
  bool seqn_out = false;       // SEQN of the next new payload packet
  bool arqn_out = false;       // ACK to piggyback on the next packet
  std::optional<bool> last_seqn_in;  // for duplicate rejection
  /// Packet awaiting acknowledgement (retransmitted until ARQN=1).
  std::optional<OutboundMessage> in_flight;
  /// True once in_flight has been sent at least once (the next send of
  /// the same message counts as a retransmission).
  bool last_tx_was_retx = false;
  std::uint64_t retransmissions = 0;

  // ---- scheduling ----
  PacketBuffer tx_queue;
  /// CLK (half-slot units) when this slave was last addressed.
  std::uint32_t last_addressed_clk = 0;
  std::uint32_t t_poll_slots = kDefaultTPollSlots;

  // ---- sniff ----
  std::uint32_t sniff_interval_slots = 0;  // Tsniff
  std::uint32_t sniff_offset_slots = 0;    // Dsniff (anchor phase)
  int sniff_attempt_slots = 1;             // Nsniff-attempt

  // ---- hold ----
  std::uint32_t hold_until_clk = 0;  // CLK at which the hold ends
  /// Set while the returning slave still needs a resynchronising poll.
  bool needs_resync_poll = false;

  // ---- park ----
  std::uint8_t pm_addr = 0;  // parked member address

  /// True when `clk` (half-slot resolution) is this slave's sniff anchor
  /// slot or one of the following attempt slots.
  bool in_sniff_window(std::uint32_t clk) const;
};

/// The master's registry of slaves.
class Piconet {
 public:
  /// Admits a slave, assigning the lowest free LT_ADDR (1..7).
  /// Returns nullopt when the piconet is full.
  std::optional<std::uint8_t> add_slave(const BdAddr& addr);

  /// Removes a slave entirely (detach).
  void remove_slave(std::uint8_t lt_addr);

  SlaveLink* find(std::uint8_t lt_addr);
  SlaveLink* find(const BdAddr& addr);

  std::vector<SlaveLink>& slaves() { return slaves_; }
  const std::vector<SlaveLink>& slaves() const { return slaves_; }
  bool has_parked() const;

 private:
  std::vector<SlaveLink> slaves_;
};

}  // namespace btsc::baseband
