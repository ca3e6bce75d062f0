// Link Controller: the paper's "State Machine" module of the baseband.
//
// Implements the main state diagram of a Bluetooth device (the paper's
// Fig. 4): STANDBY, INQUIRY, INQUIRY SCAN, PAGE, PAGE SCAN, the response
// states and CONNECTION, plus the low-power sub-modes of a connected
// slave (active, sniff, hold, park). One LinkController per device; the
// Device class wires it to the clock, radio and receiver.
//
// Timing model
// ------------
// Pre-connection states and the master run on the device's own CLKN
// half-slot ticks, and the controller asks its clock for exactly the
// ticks its current state acts on (NativeClock::wake):
//   inquiry, page, page scan     every tick
//   inquiry scan / response      every tick, except that a windowed
//                                scanner sleeps between scan windows
//                                and through its random backoff
//   master response, connection  ticks with CLKN1:0 == 00 (even-slot
//   master                       boundaries)
//   standby, slave response,     none
//   connection slave
// A connected slave instead anchors a 1250 us action timer to the
// master's slot grid, whose phase it learns from the page-response FHS
// packet arrival time (the FHS is transmitted at a master even-slot
// boundary, see DESIGN.md). Clocks are drift-free in this model, so the
// anchor stays valid for the life of the connection. In sniff, hold and
// park the timer sleeps from one listening slot to the next and is
// re-armed when the mode changes.
//
// Response-frequency convention
// -----------------------------
// Page/inquiry response packets hop on a deterministic map of the
// frequency that scored the hit: respmap(f, n) = (f + 32 + 7 n) mod 79.
// This replaces the spec's frozen-clock response sub-sequences with an
// equivalent deterministic schedule both sides can compute (documented
// substitution; preserves "response on a different frequency, stepping
// with every retry").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "baseband/access_code.hpp"
#include "baseband/address.hpp"
#include "baseband/bt_clock.hpp"
#include "baseband/buffer.hpp"
#include "baseband/hop.hpp"
#include "baseband/packet.hpp"
#include "baseband/piconet.hpp"
#include "baseband/receiver.hpp"
#include "baseband/tx_packet.hpp"
#include "phy/radio.hpp"
#include "sim/module.hpp"
#include "sim/snapshot.hpp"

namespace btsc::baseband {

enum class LcState : std::uint8_t {
  kStandby,
  kInquiry,
  kInquiryScan,
  kInquiryResponse,  // transient: backoff / FHS transmission
  kPage,
  kPageScan,
  kMasterResponse,
  kSlaveResponse,
  kConnectionMaster,
  kConnectionSlave,
};

/// Carrier-sense window: an idle listen closes after this time when only
/// 'Z' was sampled. 32.5 us / 1250 us = the paper's 2.6% slave activity
/// baseline.
inline constexpr sim::SimTime kCarrierSenseWindow = sim::SimTime::ns(32'500);
/// Inquiry scan window and interval (slots). The spec default (11.25 ms
/// window every 1.28 s) is what makes the paper's noiseless inquiry take
/// ~1556 slots on average and fail a quarter of the time against the
/// 1.28 s timeout. The scan is interlaced (spec 1.2): immediately after
/// the normal window a second one opens on the complementary train
/// frequency (X + 16), so discovery does not depend on which train the
/// inquirer happens to sweep.
inline constexpr std::uint32_t kInquiryScanWindowSlots = 18;
inline constexpr std::uint32_t kInquiryScanIntervalSlots = 2048;
/// Train switch period: each page/inquiry train is repeated this many
/// times (spec Npage/Ninquiry = 128/256; one train pass is 10 ms).
inline constexpr std::uint32_t kTrainRepeats = 256;
/// FHS transmissions in the page response dialogue before the page
/// attempt fails. A single shot reproduces the paper's steep page failure
/// curve (Fig. 8): the FHS payload (16 FEC blocks + CRC) is the most
/// noise-sensitive packet of the handshake.
inline constexpr int kMaxResponseRetries = 1;
/// Beacon period for parked slaves (slots).
inline constexpr std::uint32_t kBeaconIntervalSlots = 64;
/// Slots a held slave wakes early to reacquire the channel, modelling the
/// clock uncertainty accumulated while the radio slept. Together with the
/// master's next-slot resynchronisation poll this costs ~3 slots of full
/// listening per hold, placing the hold-vs-active crossover of Fig. 12
/// near the paper's ~120 slots.
inline constexpr std::uint32_t kHoldWakeEarlySlots = 1;

struct LcConfig {
  /// Inquiry timeout (paper: 1.28 s = 2048 slots for both phases).
  std::uint32_t inquiry_timeout_slots = 2048;
  std::uint32_t page_timeout_slots = 2048;
  /// Random backoff ceiling between the two inquiry IDs (spec: 0..1023).
  std::uint32_t inquiry_backoff_max_slots = 1023;
  /// Poll interval guarantee for active slaves.
  std::uint32_t t_poll_slots = kDefaultTPollSlots;
  /// Preferred ACL packet type for user data.
  PacketType data_packet_type = PacketType::kDm1;
  /// Number of FHS responses to collect before inquiry completes.
  std::size_t inquiry_target_responses = 1;
};

/// A device found during inquiry, with the clock estimate for paging.
struct DiscoveredDevice {
  BdAddr addr;
  /// Offset to add to our CLKN to approximate the device's CLKN.
  std::uint32_t clkn_offset = 0;
  sim::SimTime found_at;
};

/// Aggregate event/packet counters, exposed for experiments.
struct LcStats {
  std::uint64_t id_tx = 0;
  std::uint64_t id_rx = 0;
  std::uint64_t fhs_tx = 0;
  std::uint64_t fhs_rx = 0;
  std::uint64_t data_tx = 0;
  std::uint64_t data_rx_ok = 0;
  std::uint64_t poll_tx = 0;
  std::uint64_t null_tx = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t backoffs = 0;
};

class LinkController final : public sim::Module,
                             public sim::Snapshotable,
                             public sim::RearmHandler {
 public:
  struct Callbacks {
    /// Inquiry finished (success = target responses collected in time).
    std::function<void(bool)> inquiry_complete;
    /// Page finished (success = slave answered the first POLL).
    std::function<void(bool)> page_complete;
    /// Slave side: joined a piconet with this LT_ADDR.
    std::function<void(std::uint8_t)> connected_as_slave;
    /// ACL payload delivered (from slave lt on master; lt = own on slave).
    std::function<void(std::uint8_t lt, std::uint8_t llid,
                       std::vector<std::uint8_t>)>
        acl_rx;
    /// A device answered our inquiry.
    std::function<void(const DiscoveredDevice&)> device_discovered;
  };

  LinkController(sim::Environment& env, std::string name, const BdAddr& addr,
                 NativeClock& clock, phy::Radio& radio, Receiver& receiver,
                 LcConfig config = {});
  ~LinkController() override;

  // ---- commands (the paper's Enable_* methods) ----
  void enable_inquiry();
  void enable_inquiry_scan();
  void enable_page(const BdAddr& target, std::uint32_t clkn_offset_estimate);
  void enable_page_scan();
  void enable_detach_reset();

  // ---- connection services ----
  /// Queues user/LMP data. Master: lt_addr selects the slave. Slave:
  /// lt_addr must be the own assigned address.
  bool send_acl(std::uint8_t lt_addr, std::uint8_t llid,
                std::vector<std::uint8_t> data);

  // ---- low-power mode primitives (LM drives both ends) ----
  // Master side: applies to one slave link.
  void master_set_sniff(std::uint8_t lt_addr, std::uint32_t interval_slots,
                        std::uint32_t offset_slots, int attempt_slots);
  void master_clear_sniff(std::uint8_t lt_addr);
  void master_set_hold(std::uint8_t lt_addr, std::uint32_t hold_slots);
  void master_set_park(std::uint8_t lt_addr, std::uint8_t pm_addr);
  void master_unpark(std::uint8_t pm_addr);
  // Slave side: applies to the own link.
  void slave_set_sniff(std::uint32_t interval_slots,
                       std::uint32_t offset_slots, int attempt_slots);
  void slave_clear_sniff();
  void slave_set_hold(std::uint32_t hold_slots);
  void slave_set_park(std::uint8_t pm_addr);
  void slave_unpark(std::uint8_t lt_addr);

  void set_callbacks(Callbacks cb) { callbacks_ = std::move(cb); }

  // ---- introspection ----
  LcState state() const { return state_; }
  bool is_master() const { return state_ == LcState::kConnectionMaster; }
  std::uint8_t own_lt_addr() const { return own_lt_addr_; }
  LinkMode slave_mode() const { return my_mode_; }
  Piconet& piconet() { return piconet_; }
  const std::vector<DiscoveredDevice>& discovered() const {
    return discovered_;
  }
  const LcStats& stats() const { return stats_; }
  LcConfig& config() { return config_; }
  /// Master piconet clock (own CLKN for a master, estimate for a slave).
  std::uint32_t piconet_clock() const;

  // ---- checkpointing ----

  /// Saves/restores the full controller state: state machine, piconet
  /// membership with per-link ARQ/queues, slave context, inquiry/page
  /// dialogue context and the counters. Pending deferred actions are
  /// saved by the kernel as (kind, payload) descriptors and replayed
  /// through rearm_timer().
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;
  void rearm_timer(std::uint16_t kind, std::uint64_t payload,
                   sim::SimTime when) override;

 private:
  /// The checkpoint layout, shared by save_state and restore_state.
  template <class Self, class Ar>
  static void io(Self& s, Ar& a);

  /// Timer descriptor kinds. Every deferred action of the controller is
  /// one of these; the payload carries its whole capture (beyond `this`),
  /// so a checkpoint can re-create the closure from the descriptor.
  enum Kind : std::uint16_t {
    kCloseRxIfIdle = 1,       // close RX unless a packet is assembling
    kSenseWindowClose = 2,    // payload: carrier_samples() at window open
    kBackoffEnd = 3,          // inquiry-scan backoff elapsed
    kSendInquiryFhs = 4,      // payload: frequency of the second ID hit
    kInquiryFhsDone = 5,      // FHS out; resume inquiry scanning
    kMasterFhsWindow = 6,     // listen for the slave's FHS acknowledgement
    kSlaveIdReply = 7,        // answer a page ID train hit
    kSlaveFhsListen = 8,      // open the continuous FHS listen window
    kSlaveDialogueTimeout = 9,// abort a silent page-response dialogue
    kSlaveAckId = 10,         // acknowledge the master's FHS
    kSlaveEnterConnection = 11,
    kMasterRxWindow = 12,     // payload: CLK of the response slot
    kSlaveSlot = 13,          // connected-slave slot action (master grid)
    kSlaveRespond = 14,       // payload: CLK of the response slot
  };
  // ---- per-tick dispatch (own CLKN grid) ----
  void on_tick();
  /// Requests from the clock the ticks the current state acts on.
  void arm_tick();
  /// Ticks the windowed inquiry scanner may sleep from tick `next` on:
  /// out of its scan window with the receiver off, every tick until the
  /// window reopens is a no-op.
  std::uint64_t scan_sleep_ticks(std::uint64_t next) const;
  /// Clock ticks this controller has seen: a tick at the current instant
  /// is still to come while on_tick may yet run at it.
  std::uint64_t ticks_seen() const;
  void inquiry_tick();
  void inquiry_scan_tick();
  void page_tick();
  void page_scan_tick();
  void master_response_tick();
  void master_tick();

  // ---- connection: master ----
  void master_transmit_to(SlaveLink& link, std::uint32_t clk);
  void master_send_beacon(std::uint32_t clk);
  SlaveLink* master_pick_target(std::uint32_t clk);
  void master_on_packet(const Receiver::Result& r);

  // ---- connection: slave (master-grid timers) ----
  void slave_slot_action();
  void schedule_slave_slot(sim::SimTime at);
  /// Schedules the next slot action after the one at `clk`, sleeping
  /// through the even slots the current mode does not listen on.
  void schedule_next_slave_slot(std::uint32_t clk);
  /// Brings the pending slot action forward when a mode change makes
  /// the slave listen earlier.
  void rearm_slave_slot();
  /// True when the slot action at master even slot `clk` listens.
  bool slave_listens(std::uint32_t clk) const;
  /// Even slots from the one at `clk` to the first the slave listens on,
  /// at most `limit`.
  std::uint64_t steps_to_listen(std::uint32_t clk, std::uint64_t limit) const;
  bool sniff_attempt_slot(std::uint32_t clk) const;
  bool hold_expired(std::uint32_t clk) const;
  bool beacon_slot(std::uint32_t clk) const;
  void slave_on_packet(const Receiver::Result& r);
  void slave_respond(std::uint32_t master_clk_even);

  // ---- page/inquiry response dialogues ----
  void inquiry_on_result(const Receiver::Result& r);
  void inquiry_scan_on_result(const Receiver::Result& r);
  void page_on_result(const Receiver::Result& r);
  void page_scan_on_result(const Receiver::Result& r);
  void send_inquiry_fhs(sim::SimTime id_start, int freq);
  void master_send_page_fhs();
  void slave_ack_page_fhs(const Receiver::Result& r);

  // ---- shared helpers ----
  void enter_state(LcState s);
  void arm_receiver(std::uint32_t lap, std::uint8_t check_init,
                    std::optional<std::uint8_t> whiten,
                    Receiver::Expect expect);
  /// Opens an RX window with carrier-sense auto-close after
  /// `sense_window`; keeps listening while a packet is assembling.
  void open_rx_window(int freq, sim::SimTime sense_window);
  void close_rx_if_idle();
  void transmit_id(std::uint32_t lap, int freq);
  void transmit_packet(const PacketHeader& header,
                       const std::vector<std::uint8_t>& body,
                       std::uint32_t lap, std::uint8_t check_init,
                       std::optional<std::uint8_t> whiten, int freq);
  std::uint8_t connection_whiten(std::uint32_t clk) const;
  int connection_freq(std::uint32_t clk) const;
  static int respmap(int freq, int n);
  /// Drops every pending deferred action of this controller (true kernel
  /// cancellation via the owner tag) and shuts the receiver; called on
  /// every enable_* command so a superseded activity leaves nothing
  /// behind in the timed queue.
  void cancel_timers();
  /// Schedules a one-shot action owned by this controller, so the next
  /// cancel_timers() removes it if it has not fired yet. The action is
  /// built from its (kind, payload) descriptor by make_action(), the
  /// same factory rearm_timer() uses after a restore, so deferring stays
  /// allocation-free AND every pending action is checkpointable.
  sim::TimerId defer(sim::SimTime delay, Kind kind,
                     std::uint64_t payload = 0);
  /// The closure for one descriptor (capture = this + payload).
  sim::UniqueFunction make_action(Kind kind, std::uint64_t payload);
  std::uint64_t ticks_in_state() const {
    return clock_.ticks() - state_entry_tick_;
  }
  std::uint64_t slots_in_state() const { return ticks_in_state() / 2; }

  // ---- identity & wiring ----
  BdAddr addr_;
  NativeClock& clock_;
  phy::Radio& radio_;
  Receiver& receiver_;
  /// Access codes of the LAPs this controller uses, BCH-encoded once.
  AccessCodeCache access_codes_;
  /// The packet on the air, or the last one sent: the radio carries it
  /// in logical form (composed only if its bits are read).
  TxPacket tx_packet_;
  LcConfig config_;
  Callbacks callbacks_;

  LcState state_ = LcState::kStandby;
  /// ticks_seen() at the last state entry.
  std::uint64_t state_entry_tick_ = 0;
  /// Instant of the last on_tick.
  sim::SimTime last_tick_at_ = sim::SimTime::max();

  // ---- master context ----
  Piconet piconet_;
  BdAddr master_addr_;  // for slave role (== addr_ for a master)
  /// LT_ADDR of a slave we are paging / just admitted and still expect
  /// the first POLL response from (page success criterion).
  std::optional<std::uint8_t> pending_first_poll_lt_;
  std::optional<std::uint8_t> awaiting_response_lt_;
  /// Broadcast (LT_ADDR 0) traffic, delivered at park beacons.
  PacketBuffer broadcast_queue_;

  // ---- slave context ----
  std::uint8_t own_lt_addr_ = 0;
  LinkMode my_mode_ = LinkMode::kActive;
  std::uint32_t my_sniff_interval_ = 0;
  std::uint32_t my_sniff_offset_ = 0;
  int my_sniff_attempt_ = 1;
  std::uint32_t my_hold_until_clk_ = 0;
  bool resyncing_ = false;
  std::uint8_t my_pm_addr_ = 0;
  /// Master slot-grid anchor (learned from the page FHS arrival).
  sim::SimTime grid_anchor_ = sim::SimTime::zero();
  std::uint32_t clk_at_anchor_ = 0;
  /// The pending slot action and its instant.
  sim::TimerId slave_slot_timer_ = sim::kInvalidTimer;
  sim::SimTime slave_slot_at_ = sim::SimTime::zero();
  // Slave-side ARQ / queue.
  PacketBuffer my_tx_queue_;
  bool my_seqn_out_ = false;
  bool my_arqn_out_ = false;
  std::optional<bool> my_last_seqn_in_;
  std::optional<OutboundMessage> my_in_flight_;
  /// Even-slot clock of the packet we must answer in the next odd slot.
  std::optional<std::uint32_t> respond_at_clk_;

  bool first_response_sent_ = false;

  // ---- inquiry context ----
  std::vector<DiscoveredDevice> discovered_;
  int last_tx_freq_[2] = {-1, -1};  // per half slot of the last TX slot
  int window_src_freq_ = -1;        // TX freq a response window belongs to
  // Scan side.
  bool backoff_armed_ = false;   // waiting for the second ID
  bool in_backoff_ = false;
  int scan_freq_ = -1;
  /// Frequency of the first inquiry ID hit; the post-backoff listen
  /// reuses it (the inquirer keeps sweeping the same train).
  int inquiry_first_hit_freq_ = -1;

  // ---- page context ----
  BdAddr page_target_;
  std::uint32_t page_clkn_offset_ = 0;
  int page_hit_freq_ = -1;
  int response_n_ = 0;
  int response_retries_ = 0;
  std::uint32_t fhs_clk_at_tx_ = 0;

  LcStats stats_;
};

}  // namespace btsc::baseband
