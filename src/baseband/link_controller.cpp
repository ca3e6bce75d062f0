#include "baseband/link_controller.hpp"

#include <algorithm>
#include <cassert>

namespace btsc::baseband {
namespace {

using sim::SimTime;

constexpr SimTime kHalfSlot = kTickPeriod;                    // 312.5 us
constexpr SimTime kIdAirTime = SimTime::us(kIdPacketBits);    // 68 us
/// Extra margin added to handshake listen windows to absorb the sub-bit
/// packet_start reconstruction fuzz (see receiver.cpp).
constexpr SimTime kWindowSlack = SimTime::us(10);

std::uint32_t giac_hop_address() {
  return BdAddr(kGiacLap, kDefaultCheckInit, 0).hop_address();
}

/// Picks a packet type that carries `n` user bytes, preferring the
/// configured type, then larger members of the same FEC family, then any
/// type. Needed when the preferred type changes while larger messages
/// are still queued.
PacketType fit_packet_type(PacketType preferred, std::size_t n) {
  if (n <= max_user_bytes(preferred)) return preferred;
  const bool fec = is_fec23(preferred);
  const PacketType dm[] = {PacketType::kDm1, PacketType::kDm3,
                           PacketType::kDm5};
  const PacketType dh[] = {PacketType::kDh1, PacketType::kDh3,
                           PacketType::kDh5};
  for (PacketType t : fec ? dm : dh) {
    if (n <= max_user_bytes(t)) return t;
  }
  return PacketType::kDh5;  // largest capacity of all ACL types
}

}  // namespace

LinkController::LinkController(sim::Environment& env, std::string name,
                               const BdAddr& addr, NativeClock& clock,
                               phy::Radio& radio, Receiver& receiver,
                               LcConfig config)
    : Module(env, std::move(name)),
      addr_(addr),
      clock_(clock),
      radio_(radio),
      receiver_(receiver),
      config_(config),
      master_addr_(addr) {
  sim::Process& tick = method([this] { on_tick(); });
  clock_.tick_event().add_sensitive(tick);
  receiver_.set_handler([this](const Receiver::Result& r) {
    switch (state_) {
      case LcState::kInquiry:
        inquiry_on_result(r);
        break;
      case LcState::kInquiryScan:
      case LcState::kInquiryResponse:
        inquiry_scan_on_result(r);
        break;
      case LcState::kPage:
      case LcState::kMasterResponse:
        page_on_result(r);
        break;
      case LcState::kPageScan:
      case LcState::kSlaveResponse:
        page_scan_on_result(r);
        break;
      case LcState::kConnectionMaster:
        master_on_packet(r);
        break;
      case LcState::kConnectionSlave:
        slave_on_packet(r);
        break;
      case LcState::kStandby:
        break;
    }
  });
  receiver_.set_header_hook([this](const PacketHeader& h) {
    if (state_ == LcState::kConnectionSlave) {
      if (h.lt_addr != own_lt_addr_ && h.lt_addr != 0) {
        // Addressed to another slave: stop listening after the header,
        // exactly the RX gating visible in the paper's Fig. 5.
        defer(SimTime::zero(), kCloseRxIfIdle);
        return false;
      }
    }
    return true;
  });
  env.register_rearm(this->name(), this, this);
  arm_tick();  // standby: no ticks
}

LinkController::~LinkController() { env().unregister_rearm(this); }

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

void LinkController::enable_detach_reset() {
  cancel_timers();
  radio_.abort_tx();
  radio_.disable_rx();
  piconet_ = Piconet();
  discovered_.clear();
  own_lt_addr_ = 0;
  my_mode_ = LinkMode::kActive;
  my_tx_queue_ = PacketBuffer();
  my_in_flight_.reset();
  my_last_seqn_in_.reset();
  my_seqn_out_ = my_arqn_out_ = false;
  pending_first_poll_lt_.reset();
  awaiting_response_lt_.reset();
  backoff_armed_ = in_backoff_ = false;
  resyncing_ = false;
  enter_state(LcState::kStandby);
}

void LinkController::enable_inquiry() {
  cancel_timers();
  discovered_.clear();
  enter_state(LcState::kInquiry);
  arm_receiver(kGiacLap, kDefaultCheckInit, std::nullopt,
               Receiver::Expect::kFull);
}

void LinkController::enable_inquiry_scan() {
  cancel_timers();
  backoff_armed_ = in_backoff_ = false;
  enter_state(LcState::kInquiryScan);
  arm_receiver(kGiacLap, kDefaultCheckInit, std::nullopt,
               Receiver::Expect::kIdOnly);
  scan_freq_ = -1;  // force retune on the first tick
}

void LinkController::enable_page(const BdAddr& target,
                                 std::uint32_t clkn_offset_estimate) {
  cancel_timers();
  page_target_ = target;
  page_clkn_offset_ = clkn_offset_estimate & kClockMask;
  response_retries_ = 0;
  enter_state(LcState::kPage);
  arm_receiver(target.lap(), target.uap(), std::nullopt,
               Receiver::Expect::kIdOnly);
}

void LinkController::enable_page_scan() {
  cancel_timers();
  enter_state(LcState::kPageScan);
  arm_receiver(addr_.lap(), addr_.uap(), std::nullopt,
               Receiver::Expect::kIdOnly);
  scan_freq_ = -1;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

void LinkController::enter_state(LcState s) {
  state_ = s;
  state_entry_tick_ = ticks_seen();
  arm_tick();
}

void LinkController::cancel_timers() {
  env().cancel_owned(this);
  radio_.disable_rx();
}

sim::TimerId LinkController::defer(SimTime delay, Kind kind,
                                   std::uint64_t payload) {
  return env().schedule_tagged(delay, kind, payload,
                               make_action(kind, payload), /*owner=*/this);
}

sim::UniqueFunction LinkController::make_action(Kind kind,
                                                std::uint64_t payload) {
  switch (kind) {
    case kCloseRxIfIdle:
      return [this] { close_rx_if_idle(); };
    case kSenseWindowClose:
      return [this, payload] {
        if (receiver_.carrier_samples() == payload &&
            !receiver_.assembling()) {
          close_rx_if_idle();
        }
        // Carrier present: the packet handler (or the next window)
        // closes RX.
      };
    case kBackoffEnd:
      return [this] {
        in_backoff_ = false;  // next tick resumes the scan
        arm_tick();
      };
    case kSendInquiryFhs:
      return [this, payload] {
        send_inquiry_fhs(env().now(), static_cast<int>(payload));
      };
    case kInquiryFhsDone:
      return [this] {
        if (state_ == LcState::kInquiryResponse) {
          enter_state(LcState::kInquiryScan);
          scan_freq_ = -1;
        }
      };
    case kMasterFhsWindow:
      return [this] {
        if (state_ != LcState::kMasterResponse) return;
        arm_receiver(page_target_.lap(), page_target_.uap(), std::nullopt,
                     Receiver::Expect::kIdOnly);
        open_rx_window(respmap(page_hit_freq_, 2), kIdAirTime + kWindowSlack);
      };
    case kSlaveIdReply:
      return [this] {
        transmit_id(addr_.lap(), respmap(page_hit_freq_, 0));
        defer(kIdAirTime, kSlaveFhsListen);
      };
    case kSlaveFhsListen:
      return [this] {
        if (state_ != LcState::kSlaveResponse) return;
        // Listen continuously for the FHS; the master may retry several
        // times on the same response frequency.
        arm_receiver(addr_.lap(), addr_.uap(), std::nullopt,
                     Receiver::Expect::kFull);
        radio_.enable_rx(respmap(page_hit_freq_, 1));
      };
    case kSlaveDialogueTimeout:
      return [this] {
        if (state_ == LcState::kSlaveResponse) {
          radio_.disable_rx();
          enable_page_scan();
        }
      };
    case kSlaveAckId:
      return [this] {
        transmit_id(addr_.lap(), respmap(page_hit_freq_, 2));
        defer(kIdAirTime, kSlaveEnterConnection);
      };
    case kSlaveEnterConnection:
      return [this] {
        enter_state(LcState::kConnectionSlave);
        my_mode_ = LinkMode::kActive;
        arm_receiver(master_addr_.lap(), master_addr_.uap(), std::nullopt,
                     Receiver::Expect::kFull);
        // First listening slot: the next master even slot after the ack.
        const std::uint64_t steps = (env().now() - grid_anchor_) / kHalfSlot;
        const std::uint64_t next_even = (steps / 4 + 1) * 4;
        schedule_slave_slot(grid_anchor_ + kHalfSlot * next_even);
      };
    case kMasterRxWindow:
      return [this, payload] {
        const auto clk_resp = static_cast<std::uint32_t>(payload);
        if (state_ != LcState::kConnectionMaster) return;
        arm_receiver(addr_.lap(), addr_.uap(), connection_whiten(clk_resp),
                     Receiver::Expect::kFull);
        open_rx_window(connection_freq(clk_resp), kCarrierSenseWindow);
      };
    case kSlaveSlot:
      return [this] { slave_slot_action(); };
    case kSlaveRespond:
      return [this, payload] {
        slave_respond(static_cast<std::uint32_t>(payload));
      };
  }
  throw sim::SnapshotError("link controller: unknown timer kind " +
                           std::to_string(kind));
}

void LinkController::rearm_timer(std::uint16_t kind, std::uint64_t payload,
                                 SimTime when) {
  if (kind < kCloseRxIfIdle || kind > kSlaveRespond) {
    throw sim::SnapshotError("link controller: bad timer kind " +
                             std::to_string(kind));
  }
  if (kind == kSlaveSlot) {
    schedule_slave_slot(when);
    return;
  }
  defer(when - env().now(), static_cast<Kind>(kind), payload);
}

int LinkController::respmap(int freq, int n) {
  return (freq + 32 + 7 * n) % kNumRfChannels;
}

void LinkController::arm_receiver(std::uint32_t lap, std::uint8_t check_init,
                                  std::optional<std::uint8_t> whiten,
                                  Receiver::Expect expect) {
  receiver_.configure(access_codes_.get(lap).sync, check_init, whiten, expect);
}

void LinkController::open_rx_window(int freq, SimTime sense_window) {
  if (radio_.rx_enabled()) {
    radio_.retune_rx(freq);
  } else {
    radio_.enable_rx(freq);
  }
  defer(sense_window, kSenseWindowClose, receiver_.carrier_samples());
}

void LinkController::close_rx_if_idle() {
  if (!receiver_.assembling()) radio_.disable_rx();
}

void LinkController::transmit_id(std::uint32_t lap, int freq) {
  if (radio_.tx_busy()) return;
  ++stats_.id_tx;
  tx_packet_.set_id(access_codes_.get(lap));
  radio_.transmit(freq, tx_packet_);
}

void LinkController::transmit_packet(const PacketHeader& header,
                                     const std::vector<std::uint8_t>& body,
                                     std::uint32_t lap,
                                     std::uint8_t check_init,
                                     std::optional<std::uint8_t> whiten,
                                     int freq) {
  if (radio_.tx_busy()) return;
  LinkParams params;
  params.check_init = check_init;
  params.whiten_init = whiten;
  tx_packet_.set(access_codes_.get(lap), header, body, params);
  radio_.transmit(freq, tx_packet_);
}

std::uint8_t LinkController::connection_whiten(std::uint32_t clk) const {
  return Whitener::from_clock(clk).state();
}

int LinkController::connection_freq(std::uint32_t clk) const {
  HopInput in;
  in.address = master_addr_.hop_address();
  in.clock = clk;
  in.mode = HopMode::kConnection;
  return hop_frequency(in);
}

std::uint32_t LinkController::piconet_clock() const {
  if (state_ == LcState::kConnectionSlave) {
    const std::uint64_t steps =
        (env().now() - grid_anchor_) / kHalfSlot;
    return (clk_at_anchor_ + static_cast<std::uint32_t>(steps)) & kClockMask;
  }
  return clock_.clkn();
}

// ---------------------------------------------------------------------------
// Tick dispatch
// ---------------------------------------------------------------------------

std::uint64_t LinkController::ticks_seen() const {
  const std::uint64_t ticks = clock_.ticks();
  // Inside dispatch, a tick at this very instant still reaches on_tick
  // (in the delta after the timed callbacks) unless on_tick ran at it.
  const SimTime now = env().now();
  if (env().dispatching() && ticks > 0 && clock_.last_tick_time() == now &&
      last_tick_at_ != now) {
    return ticks - 1;
  }
  return ticks;
}

void LinkController::arm_tick() {
  const std::uint64_t next = ticks_seen() + 1;  // first tick still to come
  switch (state_) {
    case LcState::kInquiry:
    case LcState::kPage:
    case LcState::kPageScan:
      clock_.wake(next, 1);
      return;
    case LcState::kInquiryScan:
    case LcState::kInquiryResponse:
      if (in_backoff_) {
        clock_.sleep();  // kBackoffEnd re-arms
      } else {
        clock_.wake(next + scan_sleep_ticks(next), 1);
      }
      return;
    case LcState::kMasterResponse:
    case LcState::kConnectionMaster:
      // Both act at even-slot boundaries only (CLKN1:0 == 00).
      clock_.wake(next + ((0u - clock_.clkn_at_tick(next)) & 3u), 4);
      return;
    case LcState::kStandby:
    case LcState::kSlaveResponse:
    case LcState::kConnectionSlave:
      clock_.sleep();
      return;
  }
}

std::uint64_t LinkController::scan_sleep_ticks(std::uint64_t next) const {
  if (backoff_armed_ || radio_.rx_enabled()) return 0;
  constexpr std::uint32_t interval_ticks = 2 * kInquiryScanIntervalSlots;
  constexpr std::uint32_t window_ticks = 2 * kInquiryScanWindowSlots;
  const std::uint32_t clkn = clock_.clkn_at_tick(next);
  const std::uint32_t pos = clkn % interval_ticks;
  if (pos < 2 * window_ticks) return 0;  // normal or interlaced window
  // The window reopens where pos returns to 0: at the next interval
  // boundary, or earlier where CLKN itself wraps.
  return std::min<std::uint64_t>(interval_ticks - pos,
                                 std::uint64_t{kClockMask - clkn} + 1);
}

void LinkController::on_tick() {
  last_tick_at_ = env().now();
  switch (state_) {
    case LcState::kInquiry:
      inquiry_tick();
      break;
    case LcState::kInquiryScan:
    case LcState::kInquiryResponse:
      inquiry_scan_tick();
      break;
    case LcState::kPage:
      page_tick();
      break;
    case LcState::kMasterResponse:
      master_response_tick();
      break;
    case LcState::kConnectionMaster:
      master_tick();
      break;
    case LcState::kPageScan:
      page_scan_tick();
      break;
    case LcState::kSlaveResponse:
      // Waiting for the master's FHS; timeout handled by dialogue timer.
      break;
    case LcState::kConnectionSlave:
      // Runs on the master-grid timer instead of own ticks.
      break;
    case LcState::kStandby:
      break;
  }
  arm_tick();
}

// ---------------------------------------------------------------------------
// Inquiry (discoverer)
// ---------------------------------------------------------------------------

void LinkController::inquiry_tick() {
  if (slots_in_state() >= config_.inquiry_timeout_slots) {
    const bool ok = discovered_.size() >= config_.inquiry_target_responses;
    radio_.disable_rx();
    enter_state(LcState::kStandby);
    if (callbacks_.inquiry_complete) callbacks_.inquiry_complete(ok);
    return;
  }
  const std::uint32_t clkn = clock_.clkn();
  // Train A first; switch every kTrainRepeats passes (32 ticks per pass).
  const int koffset =
      (ticks_in_state() / (32 * kTrainRepeats)) % 2 == 0 ? kTrainA : kTrainB;
  const int half = static_cast<int>(clkn & 1u);
  if (((clkn >> 1) & 1u) == 0) {
    // TX half slot: send an ID on the inquiry train (skip if the previous
    // response is still being assembled).
    if (receiver_.assembling() || radio_.tx_busy()) return;
    radio_.disable_rx();
    HopInput in;
    in.address = giac_hop_address();
    in.clock = clkn;
    in.mode = HopMode::kInquiry;
    in.koffset = koffset;
    const int f = hop_frequency(in);
    last_tx_freq_[half] = f;
    transmit_id(kGiacLap, f);
  } else {
    // Listen half slot: an FHS answering the ID sent 625 us ago arrives
    // now on the response frequency.
    if (receiver_.assembling()) return;  // FHS crossing the slot boundary
    const int src = last_tx_freq_[half];
    if (src < 0) return;
    open_rx_window(respmap(src, 0), kHalfSlot - kWindowSlack);
  }
}

void LinkController::inquiry_on_result(const Receiver::Result& r) {
  if (!r.header_ok || r.header.type != PacketType::kFhs || !r.payload_ok) {
    defer(SimTime::zero(), kCloseRxIfIdle);
    return;
  }
  ++stats_.fhs_rx;
  const FhsPayload fhs = FhsPayload::from_bytes(r.payload_body);
  // Deduplicate: the same device may answer several times.
  for (const DiscoveredDevice& d : discovered_) {
    if (d.addr == fhs.addr) {
      defer(SimTime::zero(), kCloseRxIfIdle);
      return;
    }
  }
  DiscoveredDevice dev;
  dev.addr = fhs.addr;
  dev.clkn_offset =
      clock_offset(clock_.clkn(), (fhs.clk27_2 << 2) & kClockMask);
  dev.found_at = env().now();
  discovered_.push_back(dev);
  if (callbacks_.device_discovered) callbacks_.device_discovered(dev);
  if (discovered_.size() >= config_.inquiry_target_responses) {
    radio_.disable_rx();
    enter_state(LcState::kStandby);
    if (callbacks_.inquiry_complete) callbacks_.inquiry_complete(true);
  } else {
    defer(SimTime::zero(), kCloseRxIfIdle);
  }
}

// ---------------------------------------------------------------------------
// Inquiry scan / inquiry response (discoverable device)
// ---------------------------------------------------------------------------

void LinkController::inquiry_scan_tick() {
  if (in_backoff_ || radio_.tx_busy()) return;
  const std::uint32_t clkn = clock_.clkn();
  // Windowed scan per the spec (continuous when re-listening for the
  // second ID after the backoff). The interlaced window on the
  // complementary train frequency follows the normal one.
  int x_offset = 0;
  if (!backoff_armed_) {
    constexpr std::uint32_t window_ticks = 2 * kInquiryScanWindowSlots;
    const std::uint32_t pos = clkn % (2 * kInquiryScanIntervalSlots);
    if (pos >= 2 * window_ticks) {
      if (!receiver_.assembling()) radio_.disable_rx();
      return;
    }
    x_offset = pos < window_ticks ? 0 : 16;
  }
  int f;
  if (backoff_armed_ && inquiry_first_hit_freq_ >= 0) {
    // Waiting for the second ID after the backoff: the inquirer is still
    // sweeping the same train, so listen where the first ID was heard.
    f = inquiry_first_hit_freq_;
  } else {
    HopInput in;
    in.address = giac_hop_address();
    in.clock = clkn;
    in.mode = HopMode::kInquiryScan;
    in.x_offset = x_offset;
    f = hop_frequency(in);
  }
  if (!radio_.rx_enabled()) {
    radio_.enable_rx(f);
    scan_freq_ = f;
  } else if (f != scan_freq_ && !receiver_.assembling()) {
    radio_.retune_rx(f);
    scan_freq_ = f;
  }
}

void LinkController::inquiry_scan_on_result(const Receiver::Result& r) {
  if (!r.is_id) return;
  ++stats_.id_rx;
  if (!backoff_armed_) {
    // First ID: draw the random backoff and go silent (spec 1.2 mandatory
    // backoff of 0..1023 slots before listening for the second ID).
    backoff_armed_ = true;
    in_backoff_ = true;
    inquiry_first_hit_freq_ = scan_freq_;
    ++stats_.backoffs;
    radio_.disable_rx();
    enter_state(LcState::kInquiryResponse);
    const std::uint64_t slots =
        env().rng().uniform(0, config_.inquiry_backoff_max_slots);
    defer(kSlotDuration * slots, kBackoffEnd);
    return;
  }
  // Second ID after backoff: answer with our FHS 625 us after its start.
  const int f_hit = scan_freq_;
  backoff_armed_ = false;
  radio_.disable_rx();
  const SimTime fhs_at = r.packet_start + kSlotDuration;
  const SimTime delay =
      fhs_at > env().now() ? fhs_at - env().now() : SimTime::zero();
  defer(delay, kSendInquiryFhs, static_cast<std::uint64_t>(f_hit));
}

void LinkController::send_inquiry_fhs(SimTime /*now*/, int hit_freq) {
  if (radio_.tx_busy()) return;
  FhsPayload fhs;
  fhs.addr = addr_;
  fhs.clk27_2 = clock_.clkn() >> 2;
  fhs.lt_addr = 0;  // not assigned during inquiry
  PacketHeader h;
  h.type = PacketType::kFhs;
  ++stats_.fhs_tx;
  transmit_packet(h, fhs.to_bytes(), kGiacLap, kDefaultCheckInit,
                  std::nullopt, respmap(hit_freq, 0));
  // Return to scanning once the FHS is out (366 us).
  defer(air_time(PacketType::kFhs, 0), kInquiryFhsDone);
}

// ---------------------------------------------------------------------------
// Page (prospective master)
// ---------------------------------------------------------------------------

void LinkController::page_tick() {
  if (slots_in_state() >= config_.page_timeout_slots) {
    radio_.disable_rx();
    enter_state(LcState::kStandby);
    if (callbacks_.page_complete) callbacks_.page_complete(false);
    return;
  }
  const std::uint32_t clke = (clock_.clkn() + page_clkn_offset_) & kClockMask;
  const int koffset =
      (ticks_in_state() / (32 * kTrainRepeats)) % 2 == 0 ? kTrainA : kTrainB;
  const int half = static_cast<int>(clke & 1u);
  if (((clke >> 1) & 1u) == 0) {
    if (receiver_.assembling() || radio_.tx_busy()) return;
    radio_.disable_rx();
    HopInput in;
    in.address = page_target_.hop_address();
    in.clock = clke;
    in.mode = HopMode::kPage;
    in.koffset = koffset;
    const int f = hop_frequency(in);
    last_tx_freq_[half] = f;
    transmit_id(page_target_.lap(), f);
  } else {
    if (receiver_.assembling()) return;
    const int src = last_tx_freq_[half];
    if (src < 0) return;
    window_src_freq_ = src;
    open_rx_window(respmap(src, 0), kHalfSlot - kWindowSlack);
  }
}

void LinkController::page_on_result(const Receiver::Result& r) {
  if (!r.is_id) return;
  ++stats_.id_rx;
  if (state_ == LcState::kPage) {
    // The slave answered one of our page IDs: enter master response and
    // send the FHS at our next even-slot boundary (CLKN1:0 == 00), which
    // also hands the slave our exact clock phase.
    page_hit_freq_ = window_src_freq_;
    response_retries_ = 0;
    radio_.disable_rx();
    enter_state(LcState::kMasterResponse);
    return;
  }
  // kMasterResponse: this ID is the slave's acknowledgement of our FHS.
  const auto lt = piconet_.add_slave(page_target_);
  if (!lt) {  // piconet full
    enter_state(LcState::kStandby);
    if (callbacks_.page_complete) callbacks_.page_complete(false);
    return;
  }
  SlaveLink* link = piconet_.find(*lt);
  link->t_poll_slots = config_.t_poll_slots;
  link->last_addressed_clk = clock_.clkn();
  pending_first_poll_lt_ = *lt;
  radio_.disable_rx();
  enter_state(LcState::kConnectionMaster);
  arm_receiver(addr_.lap(), addr_.uap(), std::nullopt,
               Receiver::Expect::kFull);
}

void LinkController::master_response_tick() {
  const std::uint32_t clkn = clock_.clkn();
  if ((clkn & 3u) != 0) return;  // wait for an even-slot boundary
  if (radio_.tx_busy() || receiver_.assembling()) return;
  if (response_retries_ >= kMaxResponseRetries) {
    // The paper's model treats a collapsed response dialogue as fatal:
    // the page phase ends unsuccessfully (this is what makes paging
    // "impossible" at high BER in Fig. 8).
    radio_.disable_rx();
    piconet_.remove_slave(piconet_.find(page_target_) != nullptr
                              ? piconet_.find(page_target_)->lt_addr
                              : 0);
    enter_state(LcState::kStandby);
    if (callbacks_.page_complete) callbacks_.page_complete(false);
    return;
  }
  ++response_retries_;
  master_send_page_fhs();
}

void LinkController::master_send_page_fhs() {
  radio_.disable_rx();
  // Reserve the LT_ADDR now so the FHS can announce it (idempotent).
  const auto lt = piconet_.add_slave(page_target_);
  if (!lt) {
    enter_state(LcState::kStandby);
    if (callbacks_.page_complete) callbacks_.page_complete(false);
    return;
  }
  // Undo the provisional admission until the slave acknowledges.
  piconet_.remove_slave(*lt);

  FhsPayload fhs;
  fhs.addr = addr_;
  fhs.clk27_2 = clock_.clkn() >> 2;
  fhs.lt_addr = *lt;
  PacketHeader h;
  h.type = PacketType::kFhs;
  ++stats_.fhs_tx;
  fhs_clk_at_tx_ = clock_.clkn();
  transmit_packet(h, fhs.to_bytes(), page_target_.lap(), page_target_.uap(),
                  std::nullopt, respmap(page_hit_freq_, 1));
  // The slave's ID acknowledgement arrives 625 us after the FHS start;
  // open the window a few microseconds early to absorb timing fuzz.
  defer(kSlotDuration - SimTime::us(5), kMasterFhsWindow);
}

// ---------------------------------------------------------------------------
// Page scan / slave response (prospective slave)
// ---------------------------------------------------------------------------

void LinkController::page_scan_tick() {
  if (radio_.tx_busy()) return;
  HopInput in;
  in.address = addr_.hop_address();
  in.clock = clock_.clkn();
  in.mode = HopMode::kPageScan;
  const int f = hop_frequency(in);
  if (!radio_.rx_enabled()) {
    radio_.enable_rx(f);
    scan_freq_ = f;
  } else if (f != scan_freq_ && !receiver_.assembling()) {
    radio_.retune_rx(f);
    scan_freq_ = f;
  }
}

void LinkController::page_scan_on_result(const Receiver::Result& r) {
  if (state_ == LcState::kPageScan) {
    if (!r.is_id) return;
    ++stats_.id_rx;
    // Answer with our ID 625 us after the page ID started, then wait for
    // the master's FHS on the next response frequency.
    page_hit_freq_ = scan_freq_;
    radio_.disable_rx();
    enter_state(LcState::kSlaveResponse);
    const SimTime reply_at = r.packet_start + kSlotDuration;
    const SimTime delay =
        reply_at > env().now() ? reply_at - env().now() : SimTime::zero();
    defer(delay, kSlaveIdReply);
    // Abort the dialogue if the master goes silent.
    defer(kSlotDuration * (4u * (kMaxResponseRetries + 2u)),
          kSlaveDialogueTimeout);
    return;
  }
  // kSlaveResponse: expecting the master's FHS.
  if (!r.header_ok || r.header.type != PacketType::kFhs || !r.payload_ok) {
    return;  // keep listening; the master retries
  }
  ++stats_.fhs_rx;
  slave_ack_page_fhs(r);
}

void LinkController::slave_ack_page_fhs(const Receiver::Result& r) {
  const FhsPayload fhs = FhsPayload::from_bytes(r.payload_body);
  master_addr_ = fhs.addr;
  own_lt_addr_ = fhs.lt_addr;
  // The FHS is transmitted at a master even-slot boundary; its start time
  // anchors our copy of the master slot grid and its payload carries the
  // clock value at that instant.
  grid_anchor_ = r.packet_start;
  clk_at_anchor_ = (fhs.clk27_2 << 2) & kClockMask;
  radio_.disable_rx();
  const SimTime ack_at = r.packet_start + kSlotDuration;
  const SimTime delay =
      ack_at > env().now() ? ack_at - env().now() : SimTime::zero();
  defer(delay, kSlaveAckId);
}

// ---------------------------------------------------------------------------
// Connection: master role
// ---------------------------------------------------------------------------

void LinkController::master_tick() {
  const std::uint32_t clk = clock_.clkn();
  if ((clk & 3u) != 0) return;  // act at even-slot starts only
  if (radio_.tx_busy() || receiver_.assembling()) return;
  // Hold expiry bookkeeping (wrap-tolerant "clk >= hold_until" check).
  for (SlaveLink& link : piconet_.slaves()) {
    if (link.mode == LinkMode::kHold &&
        ((clk - link.hold_until_clk) & kClockMask) < (1u << 20)) {
      link.mode = LinkMode::kActive;
      link.needs_resync_poll = true;
    }
  }
  // Park beacon: at beacon instants broadcast to parked slaves (and
  // flush any queued broadcast traffic, e.g. an unpark announcement that
  // must go out even after the master's own link state changed).
  if ((piconet_.has_parked() || !broadcast_queue_.empty()) &&
      (clk / 2) % kBeaconIntervalSlots == 0) {
    master_send_beacon(clk);
    return;
  }
  SlaveLink* target = master_pick_target(clk);
  if (target == nullptr) {
    close_rx_if_idle();
    return;
  }
  master_transmit_to(*target, clk);
}

SlaveLink* LinkController::master_pick_target(std::uint32_t clk) {
  SlaveLink* best = nullptr;
  int best_rank = -1;
  for (SlaveLink& link : piconet_.slaves()) {
    // Mode gates.
    if (link.mode == LinkMode::kPark) continue;
    if (link.mode == LinkMode::kHold) continue;
    if (link.mode == LinkMode::kSniff && !link.in_sniff_window(clk)) continue;

    int rank = -1;
    if (link.needs_resync_poll) {
      rank = 5;  // returning from hold: resynchronise immediately
    } else if (pending_first_poll_lt_ &&
               *pending_first_poll_lt_ == link.lt_addr) {
      rank = 4;  // freshly paged slave: first POLL establishes the link
    } else if (link.in_flight.has_value()) {
      rank = 3;
    } else if (!link.tx_queue.empty()) {
      rank = 2;
    } else if (((clk - link.last_addressed_clk) & kClockMask) >=
               2 * link.t_poll_slots) {
      rank = 1;
    } else if (link.arqn_out) {
      rank = 0;  // deliver a pending ACK opportunistically
    }
    if (rank > best_rank) {
      best_rank = rank;
      best = &link;
    }
  }
  return best;
}

void LinkController::master_transmit_to(SlaveLink& link, std::uint32_t clk) {
  PacketHeader h;
  h.lt_addr = link.lt_addr;
  h.arqn = link.arqn_out;
  std::vector<std::uint8_t> body;

  if (!link.in_flight && !link.tx_queue.empty()) {
    link.in_flight = link.tx_queue.pop();
  }
  if (link.in_flight) {
    h.type = fit_packet_type(config_.data_packet_type,
                             link.in_flight->data.size());
    h.seqn = link.seqn_out;
    body = build_acl_body(h.type, link.in_flight->llid, true,
                          link.in_flight->data);
    ++stats_.data_tx;
    if (link.last_tx_was_retx) {
      ++stats_.retransmissions;
      ++link.retransmissions;
    }
    link.last_tx_was_retx = true;  // until acknowledged
  } else {
    h.type = PacketType::kPoll;
    ++stats_.poll_tx;
  }
  link.arqn_out = false;  // ARQN is consumed by this packet
  link.last_addressed_clk = clk;
  // needs_resync_poll stays set until the slave actually answers; a
  // returning slave listens continuously, so this converges immediately.

  const int freq = connection_freq(clk);
  transmit_packet(h, body, addr_.lap(), addr_.uap(), connection_whiten(clk),
                  freq);
  // Open the response window in the slot following the packet.
  const int slots = slots_occupied(h.type);
  const std::uint32_t clk_resp = (clk + 2u * static_cast<std::uint32_t>(slots)) & kClockMask;
  awaiting_response_lt_ = link.lt_addr;
  defer(kSlotDuration * static_cast<std::uint64_t>(slots), kMasterRxWindow,
        clk_resp);
}

void LinkController::master_send_beacon(std::uint32_t clk) {
  PacketHeader h;
  h.lt_addr = 0;  // broadcast
  std::vector<std::uint8_t> body;
  if (!broadcast_queue_.empty()) {
    const OutboundMessage msg = broadcast_queue_.pop();
    h.type = config_.data_packet_type;
    body = build_acl_body(h.type, msg.llid, true, msg.data);
    ++stats_.data_tx;
  } else {
    h.type = PacketType::kNull;
    ++stats_.null_tx;
  }
  transmit_packet(h, body, addr_.lap(), addr_.uap(), connection_whiten(clk),
                  connection_freq(clk));
  // Broadcast packets solicit no response.
}

void LinkController::master_on_packet(const Receiver::Result& r) {
  defer(SimTime::zero(), kCloseRxIfIdle);
  if (!r.header_ok) return;
  SlaveLink* link = piconet_.find(r.header.lt_addr);
  if (link == nullptr) return;
  link->needs_resync_poll = false;

  // ARQ: the slave's ARQN acknowledges our in-flight packet.
  if (r.header.arqn && link->in_flight) {
    link->in_flight.reset();
    link->seqn_out = !link->seqn_out;
    link->last_tx_was_retx = false;
  }
  if (pending_first_poll_lt_ && *pending_first_poll_lt_ == r.header.lt_addr) {
    pending_first_poll_lt_.reset();
    if (callbacks_.page_complete) callbacks_.page_complete(true);
  }
  if (has_payload(r.header.type) && has_crc(r.header.type)) {
    if (r.payload_ok) {
      link->arqn_out = true;
      if (!link->last_seqn_in || *link->last_seqn_in != r.header.seqn) {
        link->last_seqn_in = r.header.seqn;
        ++stats_.data_rx_ok;
        const ParsedBody parsed = parse_acl_body(r.header.type,
                                                 r.payload_body);
        if (callbacks_.acl_rx) {
          callbacks_.acl_rx(r.header.lt_addr, parsed.header.llid,
                            parsed.user);
        }
      } else {
        ++stats_.duplicates_dropped;
      }
    }
    // On CRC failure arqn_out stays false -> the slave retransmits.
  }
}

// ---------------------------------------------------------------------------
// Connection: slave role
// ---------------------------------------------------------------------------

void LinkController::schedule_slave_slot(SimTime at) {
  slave_slot_at_ = at;
  slave_slot_timer_ = defer(at - env().now(), kSlaveSlot);
}

std::uint64_t LinkController::steps_to_listen(std::uint32_t clk,
                                             std::uint64_t limit) const {
  std::uint64_t steps = 0;
  for (; steps < limit && !slave_listens(clk); ++steps) {
    clk = (clk + 4u) & kClockMask;
  }
  return steps;
}

void LinkController::schedule_next_slave_slot(std::uint32_t clk) {
  // Sleep through the even slots whose action would only re-arm this
  // timer. The cap bounds the scan for a mode that never listens; an
  // action that wakes at it just scans on.
  constexpr std::uint64_t kMaxSleepSteps = 1u << 16;
  const std::uint64_t steps =
      1 + steps_to_listen((clk + 4u) & kClockMask, kMaxSleepSteps - 1);
  schedule_slave_slot(env().now() + kSlotDuration * (2 * steps));
}

void LinkController::rearm_slave_slot() {
  if (state_ != LcState::kConnectionSlave ||
      !env().pending(slave_slot_timer_)) {
    return;
  }
  // The first master even slot after now that the new mode listens on,
  // if it comes before the pending action, becomes the next action.
  const std::uint64_t next_even =
      ((env().now() - grid_anchor_) / kHalfSlot / 4 + 1) * 4;
  const SimTime at = grid_anchor_ + kHalfSlot * next_even;
  if (at >= slave_slot_at_) return;
  const std::uint64_t limit = (slave_slot_at_ - at) / (kSlotDuration * 2);
  const std::uint64_t steps = steps_to_listen(
      (clk_at_anchor_ + static_cast<std::uint32_t>(next_even)) & kClockMask,
      limit);
  if (steps < limit) {
    env().cancel(slave_slot_timer_);
    schedule_slave_slot(at + kSlotDuration * (2 * steps));
  }
}

bool LinkController::sniff_attempt_slot(std::uint32_t clk) const {
  const std::uint32_t slot = clk / 2;
  const std::uint32_t phase =
      (slot + my_sniff_interval_ - my_sniff_offset_ % my_sniff_interval_) %
      my_sniff_interval_;
  return phase < static_cast<std::uint32_t>(my_sniff_attempt_);
}

bool LinkController::hold_expired(std::uint32_t clk) const {
  // Wake a couple of slots early: a real slave must re-open its
  // receiver ahead of the nominal instant to absorb the clock
  // uncertainty accumulated while sleeping. This constant sets the
  // resynchronisation cost that positions the hold-vs-active
  // crossover of the paper's Fig. 12 (~120 slots).
  return ((clk + 2 * kHoldWakeEarlySlots - my_hold_until_clk_) &
          kClockMask) < (1u << 20);
}

bool LinkController::beacon_slot(std::uint32_t clk) const {
  return (clk / 2) % kBeaconIntervalSlots == 0;
}

bool LinkController::slave_listens(std::uint32_t clk) const {
  if (resyncing_) return true;
  switch (my_mode_) {
    case LinkMode::kActive:
      return true;
    case LinkMode::kSniff:
      return sniff_attempt_slot(clk);
    case LinkMode::kHold:
      return hold_expired(clk);
    case LinkMode::kPark:
      return beacon_slot(clk);
  }
  return true;
}

void LinkController::slave_slot_action() {
  if (state_ != LcState::kConnectionSlave) return;
  const std::uint32_t clk = piconet_clock();

  if (radio_.tx_busy() || receiver_.assembling()) {
    schedule_next_slave_slot(clk);
    return;
  }

  bool listen = false;
  SimTime sense = kCarrierSenseWindow;
  switch (my_mode_) {
    case LinkMode::kActive:
      listen = true;
      break;
    case LinkMode::kSniff:
      if (sniff_attempt_slot(clk)) {
        listen = true;
        // A sniff attempt keeps the receiver open for the full slot.
        sense = kSlotDuration;
      }
      break;
    case LinkMode::kHold:
      if (hold_expired(clk)) {
        my_mode_ = LinkMode::kActive;
        resyncing_ = true;
        listen = true;
      }
      break;
    case LinkMode::kPark:
      listen = beacon_slot(clk);  // beacon window
      break;
  }
  if (resyncing_) {
    listen = true;
    sense = kSlotDuration * 2;  // stay on across the whole slot pair
  }

  if (listen) {
    arm_receiver(master_addr_.lap(), master_addr_.uap(),
                 connection_whiten(clk), Receiver::Expect::kFull);
    open_rx_window(connection_freq(clk), sense);
  }
  schedule_next_slave_slot(clk);
}

void LinkController::slave_on_packet(const Receiver::Result& r) {
  if (!r.header_ok) {
    defer(SimTime::zero(), kCloseRxIfIdle);
    return;
  }
  resyncing_ = false;
  const bool mine = r.header.lt_addr == own_lt_addr_;
  const bool broadcast = r.header.lt_addr == 0;
  if (!mine && !broadcast) {
    defer(SimTime::zero(), kCloseRxIfIdle);
    return;
  }

  // ARQ (only meaningful on packets addressed to us; broadcast traffic
  // carries no acknowledgement and bypasses SEQN duplicate filtering).
  if (mine && r.header.arqn && my_in_flight_) {
    my_in_flight_.reset();
    my_seqn_out_ = !my_seqn_out_;
  }
  if (has_payload(r.header.type) && has_crc(r.header.type) && r.payload_ok) {
    if (broadcast) {
      ++stats_.data_rx_ok;
      const ParsedBody parsed = parse_acl_body(r.header.type, r.payload_body);
      if (callbacks_.acl_rx) {
        callbacks_.acl_rx(0, parsed.header.llid, parsed.user);
      }
    } else {
      my_arqn_out_ = true;
      if (!my_last_seqn_in_ || *my_last_seqn_in_ != r.header.seqn) {
        my_last_seqn_in_ = r.header.seqn;
        ++stats_.data_rx_ok;
        const ParsedBody parsed =
            parse_acl_body(r.header.type, r.payload_body);
        if (callbacks_.acl_rx) {
          callbacks_.acl_rx(r.header.lt_addr, parsed.header.llid,
                            parsed.user);
        }
      } else {
        ++stats_.duplicates_dropped;
      }
    }
  }

  defer(SimTime::zero(), kCloseRxIfIdle);

  // Respond in the slot following the packet (polling discipline): only
  // packets addressed to us solicit a response, and NULL does not.
  if (mine && r.header.type != PacketType::kNull) {
    const int slots = slots_occupied(r.header.type);
    const SimTime respond_at =
        r.packet_start + kSlotDuration * static_cast<std::uint64_t>(slots);
    const std::uint64_t steps = (respond_at - grid_anchor_) / kHalfSlot;
    const std::uint32_t clk_resp =
        (clk_at_anchor_ + static_cast<std::uint32_t>(steps)) & kClockMask;
    const SimTime delay = respond_at > env().now()
                              ? respond_at - env().now()
                              : SimTime::zero();
    defer(delay, kSlaveRespond, clk_resp);
  }
}

void LinkController::slave_respond(std::uint32_t clk_resp) {
  if (state_ != LcState::kConnectionSlave || radio_.tx_busy()) return;
  PacketHeader h;
  h.lt_addr = own_lt_addr_;
  h.arqn = my_arqn_out_;
  std::vector<std::uint8_t> body;
  if (!my_in_flight_ && !my_tx_queue_.empty()) {
    my_in_flight_ = my_tx_queue_.pop();
  }
  if (my_in_flight_) {
    h.type = fit_packet_type(config_.data_packet_type,
                             my_in_flight_->data.size());
    h.seqn = my_seqn_out_;
    body = build_acl_body(h.type, my_in_flight_->llid, true,
                          my_in_flight_->data);
    ++stats_.data_tx;
  } else {
    h.type = PacketType::kNull;
    ++stats_.null_tx;
  }
  my_arqn_out_ = false;
  transmit_packet(h, body, master_addr_.lap(), master_addr_.uap(),
                  connection_whiten(clk_resp), connection_freq(clk_resp));
  if (!first_response_sent_) {
    first_response_sent_ = true;
    if (callbacks_.connected_as_slave) {
      callbacks_.connected_as_slave(own_lt_addr_);
    }
  }
}

// ---------------------------------------------------------------------------
// Data and low-power mode services
// ---------------------------------------------------------------------------

bool LinkController::send_acl(std::uint8_t lt_addr, std::uint8_t llid,
                              std::vector<std::uint8_t> data) {
  if (data.size() > max_user_bytes(PacketType::kDh5)) return false;
  OutboundMessage msg;
  msg.llid = llid;
  msg.data = std::move(data);
  if (state_ == LcState::kConnectionMaster) {
    if (lt_addr == 0) return broadcast_queue_.push(std::move(msg));
    SlaveLink* link = piconet_.find(lt_addr);
    if (link == nullptr) return false;
    return link->tx_queue.push(std::move(msg));
  }
  if (state_ == LcState::kConnectionSlave && lt_addr == own_lt_addr_) {
    return my_tx_queue_.push(std::move(msg));
  }
  return false;
}

namespace {

/// Sniff anchors must land on master-to-slave (even) slots: round the
/// interval up and the offset down to the even-slot grid.
std::uint32_t quantize_even(std::uint32_t v) { return v & ~1u; }


}  // namespace

void LinkController::master_set_sniff(std::uint8_t lt_addr,
                                      std::uint32_t interval_slots,
                                      std::uint32_t offset_slots,
                                      int attempt_slots) {
  if (SlaveLink* link = piconet_.find(lt_addr)) {
    link->mode = LinkMode::kSniff;
    link->sniff_interval_slots = std::max(2u, interval_slots + (interval_slots & 1u));
    link->sniff_offset_slots = quantize_even(offset_slots);
    link->sniff_attempt_slots = attempt_slots;
  }
}

void LinkController::master_clear_sniff(std::uint8_t lt_addr) {
  if (SlaveLink* link = piconet_.find(lt_addr)) {
    link->mode = LinkMode::kActive;
  }
}

void LinkController::master_set_hold(std::uint8_t lt_addr,
                                     std::uint32_t hold_slots) {
  if (SlaveLink* link = piconet_.find(lt_addr)) {
    link->mode = LinkMode::kHold;
    link->hold_until_clk =
        (clock_.clkn() + 2 * hold_slots) & kClockMask;
  }
}

void LinkController::master_set_park(std::uint8_t lt_addr,
                                     std::uint8_t pm_addr) {
  if (SlaveLink* link = piconet_.find(lt_addr)) {
    link->mode = LinkMode::kPark;
    link->pm_addr = pm_addr;
  }
}

void LinkController::master_unpark(std::uint8_t pm_addr) {
  for (SlaveLink& link : piconet_.slaves()) {
    if (link.mode == LinkMode::kPark && link.pm_addr == pm_addr) {
      link.mode = LinkMode::kActive;
      link.needs_resync_poll = true;
    }
  }
}

void LinkController::slave_set_sniff(std::uint32_t interval_slots,
                                     std::uint32_t offset_slots,
                                     int attempt_slots) {
  my_mode_ = LinkMode::kSniff;
  my_sniff_interval_ = std::max(2u, interval_slots + (interval_slots & 1u));
  my_sniff_offset_ = quantize_even(offset_slots);
  my_sniff_attempt_ = attempt_slots;
  rearm_slave_slot();
}

void LinkController::slave_clear_sniff() {
  my_mode_ = LinkMode::kActive;
  rearm_slave_slot();
}

void LinkController::slave_set_hold(std::uint32_t hold_slots) {
  my_mode_ = LinkMode::kHold;
  my_hold_until_clk_ = (piconet_clock() + 2 * hold_slots) & kClockMask;
  radio_.disable_rx();
  rearm_slave_slot();
}

void LinkController::slave_set_park(std::uint8_t pm_addr) {
  my_mode_ = LinkMode::kPark;
  my_pm_addr_ = pm_addr;
  radio_.disable_rx();
  rearm_slave_slot();
}

void LinkController::slave_unpark(std::uint8_t lt_addr) {
  own_lt_addr_ = lt_addr;
  my_mode_ = LinkMode::kActive;
  rearm_slave_slot();
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kLcTag = sim::snapshot_tag("LC  ");

/// A BdAddr travels as its raw 48-bit value.
template <class A>
auto raw_addr(A& addr) {
  return sim::prop(addr, &BdAddr::raw, [](BdAddr& a, std::uint64_t raw) {
    a = BdAddr::from_raw(raw);
  });
}

}  // namespace

template <class Self, class Ar>
void LinkController::io(Self& s, Ar& a) {
  using sim::as;
  const auto msg = [&a](auto& m) { a.io(m.llid, m.data); };
  a.section(kLcTag, [&] {
    // Config (mutable via config(); experiments may tweak it mid-setup).
    auto& c = s.config_;
    a.io(c.inquiry_timeout_slots, c.page_timeout_slots,
         c.inquiry_backoff_max_slots, c.t_poll_slots,
         as<std::uint8_t>(c.data_packet_type), c.inquiry_target_responses);
    // State machine.
    a.io(as<std::uint8_t>(s.state_), s.state_entry_tick_);
    // Master context: piconet membership and per-link state.
    a.seq(s.piconet_.slaves(), [&](auto& l) {
      a.io(raw_addr(l.addr), l.lt_addr, as<std::uint8_t>(l.mode), l.seqn_out,
           l.arqn_out);
      a.opt_or_zero(l.last_seqn_in);
      a.opt(l.in_flight, msg);
      a.io(l.last_tx_was_retx, l.retransmissions, l.tx_queue,
           l.last_addressed_clk, l.t_poll_slots, l.sniff_interval_slots,
           l.sniff_offset_slots, as<std::uint32_t>(l.sniff_attempt_slots),
           l.hold_until_clk, l.needs_resync_poll, l.pm_addr);
    });
    a.io(raw_addr(s.master_addr_));
    a.opt_or_zero(s.pending_first_poll_lt_);
    a.opt_or_zero(s.awaiting_response_lt_);
    a.io(s.broadcast_queue_);
    // Slave context.
    a.io(s.own_lt_addr_, as<std::uint8_t>(s.my_mode_),
         s.my_sniff_interval_, s.my_sniff_offset_,
         as<std::uint32_t>(s.my_sniff_attempt_), s.my_hold_until_clk_,
         s.resyncing_, s.my_pm_addr_, s.grid_anchor_, s.clk_at_anchor_,
         s.my_tx_queue_, s.my_seqn_out_, s.my_arqn_out_);
    a.opt_or_zero(s.my_last_seqn_in_);
    a.opt(s.my_in_flight_, msg);
    a.opt_or_zero(s.respond_at_clk_);
    a.io(s.first_response_sent_);
    // Inquiry context.
    a.seq(s.discovered_, [&](auto& d) {
      a.io(raw_addr(d.addr), d.clkn_offset, d.found_at);
    });
    a.io(as<std::uint32_t>(s.last_tx_freq_[0]),
         as<std::uint32_t>(s.last_tx_freq_[1]),
         as<std::uint32_t>(s.window_src_freq_), s.backoff_armed_,
         s.in_backoff_, as<std::uint32_t>(s.scan_freq_),
         as<std::uint32_t>(s.inquiry_first_hit_freq_));
    // Page context.
    a.io(raw_addr(s.page_target_), s.page_clkn_offset_,
         as<std::uint32_t>(s.page_hit_freq_), as<std::uint32_t>(s.response_n_),
         as<std::uint32_t>(s.response_retries_), s.fhs_clk_at_tx_);
    // Counters.
    auto& st = s.stats_;
    a.io(st.id_tx, st.id_rx, st.fhs_tx, st.fhs_rx, st.data_tx, st.data_rx_ok,
         st.poll_tx, st.null_tx, st.retransmissions, st.duplicates_dropped,
         st.backoffs);
  });
}

void LinkController::save_state(sim::SnapshotWriter& w) const { io(*this, w); }

void LinkController::restore_state(sim::SnapshotReader& r) { io(*this, r); }

}  // namespace btsc::baseband
