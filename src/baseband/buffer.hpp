// TX/RX buffers between the Link Manager and the baseband.
//
// The paper's architecture has dedicated Buffer_tx / Buffer_rx modules
// storing data crossing the LM <-> baseband boundary. This model keeps a
// bounded FIFO per direction with a priority lane: LMP control messages
// (LLID 11) overtake user data, as required for mode-switch signalling to
// work under load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "baseband/packet.hpp"
#include "sim/snapshot.hpp"

namespace btsc::baseband {

/// One upper-layer message queued for (re)segmentation into packets.
struct OutboundMessage {
  std::uint8_t llid = kLlidStart;
  std::vector<std::uint8_t> data;
};

class PacketBuffer {
 public:
  explicit PacketBuffer(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Queues a message; LMP traffic goes to the priority lane. Returns
  /// false (and counts a drop) when the buffer is full.
  bool push(OutboundMessage msg) {
    auto& lane = msg.llid == kLlidLmp ? control_ : data_;
    if (size() >= capacity_) {
      ++dropped_;
      return false;
    }
    lane.push_back(std::move(msg));
    return true;
  }

  bool empty() const { return control_.empty() && data_.empty(); }
  std::size_t size() const { return control_.size() + data_.size(); }
  std::size_t dropped() const { return dropped_; }

  /// Next message to transmit (control lane first).
  const OutboundMessage& front() const {
    if (!control_.empty()) return control_.front();
    if (!data_.empty()) return data_.front();
    throw std::logic_error("PacketBuffer::front on empty buffer");
  }

  OutboundMessage pop() {
    auto& lane = !control_.empty() ? control_ : data_;
    if (lane.empty()) throw std::logic_error("PacketBuffer::pop on empty");
    OutboundMessage msg = std::move(lane.front());
    lane.pop_front();
    return msg;
  }

  // ---- checkpointing ----
  void save_state(sim::SnapshotWriter& w) const {
    w.u64(capacity_);
    auto lane = [&w](const std::deque<OutboundMessage>& q) {
      sim::save_seq(w, q.size(), [&](std::size_t i) {
        w.u8(q[i].llid);
        w.byte_vec(q[i].data);
      });
    };
    lane(control_);
    lane(data_);
    w.u64(dropped_);
  }
  void restore_state(sim::SnapshotReader& r) {
    capacity_ = static_cast<std::size_t>(r.u64());
    auto lane = [&r](std::deque<OutboundMessage>& q) {
      q.clear();
      sim::restore_seq(r, [&](std::size_t) {
        OutboundMessage m;
        m.llid = r.u8();
        m.data = r.byte_vec();
        q.push_back(std::move(m));
      });
    };
    lane(control_);
    lane(data_);
    dropped_ = static_cast<std::size_t>(r.u64());
  }

 private:
  std::size_t capacity_;
  std::deque<OutboundMessage> control_;
  std::deque<OutboundMessage> data_;
  std::size_t dropped_ = 0;
};

}  // namespace btsc::baseband
