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

  OutboundMessage pop() {
    auto& lane = !control_.empty() ? control_ : data_;
    if (lane.empty()) throw std::logic_error("PacketBuffer::pop on empty");
    OutboundMessage msg = std::move(lane.front());
    lane.pop_front();
    return msg;
  }

  // ---- checkpointing ----
  void save_state(sim::SnapshotWriter& w) const { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) { io(*this, r); }

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    const auto msg = [&a](auto& m) { a.io(m.llid, m.data); };
    a.io(s.capacity_);
    a.seq(s.control_, msg);
    a.seq(s.data_, msg);
    a.io(s.dropped_);
  }

  std::size_t capacity_;
  std::deque<OutboundMessage> control_;
  std::deque<OutboundMessage> data_;
  std::size_t dropped_ = 0;
};

}  // namespace btsc::baseband
