#include "lm/link_manager.hpp"

#include "sim/time.hpp"

namespace btsc::lm {

using baseband::kClockMask;
using baseband::kLlidLmp;
using baseband::kSlotDuration;

LinkManager::LinkManager(baseband::Device& device) : device_(device) {
  baseband::LinkController::Callbacks cb;
  cb.acl_rx = [this](std::uint8_t lt, std::uint8_t llid,
                     std::vector<std::uint8_t> data) {
    on_acl(lt, llid, std::move(data));
  };
  cb.inquiry_complete = [this](bool ok) {
    if (events_.inquiry_complete) events_.inquiry_complete(ok);
  };
  cb.page_complete = [this](bool ok) {
    if (events_.page_complete) events_.page_complete(ok);
  };
  cb.connected_as_slave = [this](std::uint8_t lt) {
    if (events_.connected_as_slave) events_.connected_as_slave(lt);
  };
  device_.lc().set_callbacks(cb);
  device_.env().register_rearm(device_.name() + ".lm", this, this);
}

LinkManager::~LinkManager() { device_.env().unregister_rearm(this); }

void LinkManager::send_pdu(std::uint8_t lt, const LmpPdu& pdu) {
  ++pdus_sent_;
  device_.lc().send_acl(lt, kLlidLmp, pdu.encode());
}

void LinkManager::on_acl(std::uint8_t lt, std::uint8_t llid,
                         std::vector<std::uint8_t> data) {
  if (llid != kLlidLmp) {
    if (events_.user_data) events_.user_data(lt, std::move(data));
    return;
  }
  const auto pdu = LmpPdu::decode(data);
  if (!pdu) return;  // unknown opcode: dropped, as a real LM would NAK
  ++pdus_received_;
  handle_pdu(lt, *pdu);
}

void LinkManager::begin_setup(std::uint8_t lt) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kSetupComplete;
  pdu.master_initiated = is_master();
  send_pdu(lt, pdu);
}

void LinkManager::request_sniff(std::uint8_t lt, std::uint32_t interval_slots,
                                std::uint32_t offset_slots,
                                int attempt_slots) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kSniffReq;
  pdu.master_initiated = is_master();
  pdu.interval = interval_slots;
  pdu.offset = offset_slots;
  pdu.attempt = static_cast<std::uint16_t>(attempt_slots);
  pending_[lt] = pdu;
  send_pdu(lt, pdu);
}

void LinkManager::request_unsniff(std::uint8_t lt) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kUnsniffReq;
  pdu.master_initiated = is_master();
  pending_[lt] = pdu;
  send_pdu(lt, pdu);
}

void LinkManager::request_hold(std::uint8_t lt, std::uint32_t hold_slots) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kHoldReq;
  pdu.master_initiated = is_master();
  pdu.interval = hold_slots;
  pdu.instant = (now_slot() + kModeChangeLeadSlots) & (kClockMask >> 1);
  pending_[lt] = pdu;
  send_pdu(lt, pdu);
}

void LinkManager::request_park(std::uint8_t lt, std::uint8_t pm_addr) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kParkReq;
  pdu.master_initiated = is_master();
  pdu.pm_addr = pm_addr;
  pdu.instant = (now_slot() + kModeChangeLeadSlots) & (kClockMask >> 1);
  pending_[lt] = pdu;
  send_pdu(lt, pdu);
}

void LinkManager::request_unpark(std::uint8_t pm_addr, std::uint8_t new_lt) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kUnparkReq;
  pdu.master_initiated = true;
  pdu.pm_addr = pm_addr;
  pdu.lt_addr = new_lt;
  // Broadcast twice on consecutive beacons for robustness; the PDU is
  // idempotent on the slave. The master's own link state flips only after
  // the beacons had a chance to go out (unparking immediately would stop
  // the beacon schedule before the announcement is transmitted).
  send_pdu(0, pdu);
  send_pdu(0, pdu);
  schedule_action(kSlotDuration * (2 * baseband::kBeaconIntervalSlots + 4),
                  kUnparkCommit, pm_addr);
}

void LinkManager::detach(std::uint8_t lt, std::uint8_t reason) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kDetach;
  pdu.master_initiated = is_master();
  pdu.reason = reason;
  send_pdu(lt, pdu);
  if (is_master()) {
    // Remove the link once the ARQ has had time to deliver the PDU.
    schedule_action(kSlotDuration * 64, kDetachRemove, lt);
  }
}

void LinkManager::schedule_action(sim::SimTime delay, Kind kind,
                                  std::uint64_t payload) {
  device_.env().schedule_tagged(delay, kind, payload,
                                make_action(kind, payload), /*owner=*/this);
}

void LinkManager::at_instant(std::uint32_t instant, Kind kind,
                             std::uint64_t payload) {
  const std::uint32_t now = now_slot();
  const std::uint32_t wait_slots =
      (instant - now) & (kClockMask >> 1);  // wrap-tolerant
  schedule_action(kSlotDuration * wait_slots, kind, payload);
}

sim::UniqueFunction LinkManager::make_action(Kind kind,
                                             std::uint64_t payload) {
  switch (kind) {
    case kHoldApply:
      return [this, payload] {
        const auto lt = static_cast<std::uint8_t>(payload & 0xFF);
        const auto interval = static_cast<std::uint32_t>(payload >> 8);
        if (is_master()) {
          device_.lc().master_set_hold(lt, interval);
        } else {
          device_.lc().slave_set_hold(interval);
        }
      };
    case kParkApply:
      return [this, payload] {
        const auto lt = static_cast<std::uint8_t>(payload & 0xFF);
        const auto pm_addr = static_cast<std::uint8_t>(payload >> 8);
        if (is_master()) {
          device_.lc().master_set_park(lt, pm_addr);
        } else {
          device_.lc().slave_set_park(pm_addr);
        }
      };
    case kUnparkCommit:
      return [this, payload] {
        device_.lc().master_unpark(static_cast<std::uint8_t>(payload));
      };
    case kDetachRemove:
      return [this, payload] {
        device_.lc().piconet().remove_slave(
            static_cast<std::uint8_t>(payload));
      };
  }
  throw sim::SnapshotError("link manager: unknown timer kind " +
                           std::to_string(kind));
}

void LinkManager::rearm_timer(std::uint16_t kind, std::uint64_t payload,
                              sim::SimTime when) {
  if (kind < kHoldApply || kind > kDetachRemove) {
    throw sim::SnapshotError("link manager: bad timer kind " +
                             std::to_string(kind));
  }
  schedule_action(when - device_.env().now(), static_cast<Kind>(kind),
                  payload);
}

void LinkManager::accept(std::uint8_t lt, const LmpPdu& request) {
  LmpPdu ack;
  ack.opcode = LmpOpcode::kAccepted;
  ack.master_initiated = request.master_initiated;
  ack.accepted_opcode = request.opcode;
  send_pdu(lt, ack);
}

void LinkManager::apply_my_half(std::uint8_t lt, const LmpPdu& request) {
  auto& lc = device_.lc();
  switch (request.opcode) {
    case LmpOpcode::kSniffReq:
      if (is_master()) {
        lc.master_set_sniff(lt, request.interval, request.offset,
                            request.attempt);
      } else {
        lc.slave_set_sniff(request.interval, request.offset, request.attempt);
      }
      break;
    case LmpOpcode::kUnsniffReq:
      if (is_master()) {
        lc.master_clear_sniff(lt);
      } else {
        lc.slave_clear_sniff();
      }
      break;
    case LmpOpcode::kHoldReq:
      at_instant(request.instant, kHoldApply,
                 lt | (static_cast<std::uint64_t>(request.interval) << 8));
      break;
    case LmpOpcode::kParkReq:
      at_instant(request.instant, kParkApply,
                 lt | (static_cast<std::uint64_t>(request.pm_addr) << 8));
      break;
    default:
      break;
  }
}

void LinkManager::handle_pdu(std::uint8_t lt, const LmpPdu& pdu) {
  switch (pdu.opcode) {
    case LmpOpcode::kSetupComplete: {
      const bool first = !setup_done_[lt];
      setup_done_[lt] = true;
      if (first) begin_setup(lt);  // answer with our own setup_complete
      if (events_.setup_complete) events_.setup_complete(lt);
      break;
    }
    case LmpOpcode::kSniffReq:
    case LmpOpcode::kUnsniffReq:
    case LmpOpcode::kHoldReq:
    case LmpOpcode::kParkReq:
      apply_my_half(lt, pdu);
      accept(lt, pdu);
      break;
    case LmpOpcode::kUnparkReq:
      // Arrives on the broadcast beacon while parked.
      if (!is_master() &&
          device_.lc().slave_mode() == baseband::LinkMode::kPark) {
        device_.lc().slave_unpark(pdu.lt_addr);
      }
      break;
    case LmpOpcode::kAccepted: {
      auto it = pending_.find(lt);
      if (it != pending_.end() &&
          it->second.opcode == pdu.accepted_opcode) {
        apply_my_half(lt, it->second);
        const LmpOpcode op = it->second.opcode;
        pending_.erase(it);
        if (events_.procedure_complete) {
          events_.procedure_complete(op, lt, true);
        }
      }
      break;
    }
    case LmpOpcode::kNotAccepted: {
      auto it = pending_.find(lt);
      if (it != pending_.end() &&
          it->second.opcode == pdu.accepted_opcode) {
        const LmpOpcode op = it->second.opcode;
        pending_.erase(it);
        if (events_.procedure_complete) {
          events_.procedure_complete(op, lt, false);
        }
      }
      break;
    }
    case LmpOpcode::kDetach:
      device_.lc().enable_detach_reset();
      if (events_.detached) events_.detached();
      break;
  }
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kLmTag = sim::snapshot_tag("LM  ");

}  // namespace

template <class Self, class Ar>
void LinkManager::io(Self& s, Ar& a) {
  // A pending PDU travels in its on-air encoding.
  const auto encoded = [](auto& pdu) {
    return sim::prop(pdu, &LmpPdu::encode,
                     [](LmpPdu& p, const std::vector<std::uint8_t>& bytes) {
                       const auto decoded = LmpPdu::decode(bytes);
                       if (!decoded) {
                         throw sim::SnapshotError(
                             "link manager: undecodable pending PDU");
                       }
                       p = *decoded;
                     });
  };
  a.section(kLmTag, [&] {
    a.seq(s.pending_, [&](auto& e) { a.io(e.first, encoded(e.second)); });
    a.seq(s.setup_done_, [&](auto& e) { a.io(e.first, e.second); });
    a.io(s.pdus_sent_, s.pdus_received_);
  });
}

void LinkManager::save_state(sim::SnapshotWriter& w) const { io(*this, w); }

void LinkManager::restore_state(sim::SnapshotReader& r) { io(*this, r); }

}  // namespace btsc::lm
