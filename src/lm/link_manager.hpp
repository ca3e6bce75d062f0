// Link Manager: negotiates link-level procedures over LMP.
//
// One LinkManager per device, layered on the baseband Device. It owns the
// LC callback surface: LMP traffic (LLID 11) is consumed here, everything
// else is forwarded to the application through Events. Procedures follow
// the LMP transaction pattern: the initiator sends a *_req, the peer
// applies its half of the change and answers LMP_accepted, and the
// initiator applies its half on reception. Timed mode changes (hold,
// park) carry an activation instant so both ends switch on the same slot
// even though the acknowledgement takes a few slots to travel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "baseband/device.hpp"
#include "lm/lmp.hpp"
#include "sim/snapshot.hpp"

namespace btsc::lm {

/// Lead time between sending a timed mode request and its activation
/// instant; ample for the request/accept round trip under the ARQ.
inline constexpr std::uint32_t kModeChangeLeadSlots = 80;

class LinkManager : public sim::Snapshotable, public sim::RearmHandler {
 public:
  struct Events {
    /// Non-LMP ACL payload (user data).
    std::function<void(std::uint8_t lt, std::vector<std::uint8_t>)> user_data;
    /// LMP channel confirmed in both directions.
    std::function<void(std::uint8_t lt)> setup_complete;
    /// A negotiated procedure concluded (accepted or refused).
    std::function<void(LmpOpcode op, std::uint8_t lt, bool accepted)>
        procedure_complete;
    /// The link was torn down by an LMP_detach.
    std::function<void()> detached;
    // Baseband passthroughs.
    std::function<void(bool)> inquiry_complete;
    std::function<void(bool)> page_complete;
    std::function<void(std::uint8_t)> connected_as_slave;
  };

  explicit LinkManager(baseband::Device& device);
  ~LinkManager() override;

  void set_events(Events ev) { events_ = std::move(ev); }

  // ---- procedures (either role may initiate; `lt` identifies the link:
  //      the slave's LT_ADDR on the master, the own LT_ADDR on a slave) ----

  /// Confirms the LMP channel after the baseband connection forms.
  void begin_setup(std::uint8_t lt);

  void request_sniff(std::uint8_t lt, std::uint32_t interval_slots,
                     std::uint32_t offset_slots, int attempt_slots);
  void request_unsniff(std::uint8_t lt);
  void request_hold(std::uint8_t lt, std::uint32_t hold_slots);
  void request_park(std::uint8_t lt, std::uint8_t pm_addr);
  /// Master only: recalls a parked slave via the beacon broadcast.
  void request_unpark(std::uint8_t pm_addr, std::uint8_t new_lt);
  void detach(std::uint8_t lt, std::uint8_t reason = 0x13);

  // ---- diagnostics ----
  std::uint64_t pdus_sent() const { return pdus_sent_; }
  std::uint64_t pdus_received() const { return pdus_received_; }

  // ---- checkpointing ----

  /// Saves/restores the pending LMP transactions, setup flags and the
  /// PDU counters. Pending timed actions (mode-change instants, the
  /// unpark commit, the detach cleanup) are saved by the kernel as
  /// descriptors and replayed through rearm_timer().
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;
  void rearm_timer(std::uint16_t kind, std::uint64_t payload,
                   sim::SimTime when) override;

 private:
  /// The checkpoint layout, shared by save_state and restore_state.
  template <class Self, class Ar>
  static void io(Self& s, Ar& a);

  /// Timer descriptor kinds; the payload packs the whole capture.
  enum Kind : std::uint16_t {
    kHoldApply = 1,     // payload: lt | interval << 8
    kParkApply = 2,     // payload: lt | pm_addr << 8
    kUnparkCommit = 3,  // payload: pm_addr
    kDetachRemove = 4,  // payload: lt
  };

  bool is_master() const { return device_.lc().is_master(); }
  void send_pdu(std::uint8_t lt, const LmpPdu& pdu);
  void on_acl(std::uint8_t lt, std::uint8_t llid,
              std::vector<std::uint8_t> data);
  void handle_pdu(std::uint8_t lt, const LmpPdu& pdu);
  void apply_my_half(std::uint8_t lt, const LmpPdu& request);
  void accept(std::uint8_t lt, const LmpPdu& request);
  /// Schedules the (kind, payload) action after `delay` as a re-armable
  /// descriptor timer owned by this link manager.
  void schedule_action(sim::SimTime delay, Kind kind, std::uint64_t payload);
  /// Same, at the piconet slot `instant` (CLK/2 units, wrap-tolerant).
  void at_instant(std::uint32_t instant, Kind kind, std::uint64_t payload);
  sim::UniqueFunction make_action(Kind kind, std::uint64_t payload);
  std::uint32_t now_slot() const {
    return (device_.lc().piconet_clock() & baseband::kClockMask) / 2;
  }

  baseband::Device& device_;
  Events events_;
  /// Outstanding request per link, applied when LMP_accepted arrives.
  std::map<std::uint8_t, LmpPdu> pending_;
  std::map<std::uint8_t, bool> setup_done_;
  std::uint64_t pdus_sent_ = 0;
  std::uint64_t pdus_received_ = 0;
};

}  // namespace btsc::lm
