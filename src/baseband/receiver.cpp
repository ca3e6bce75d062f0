#include "baseband/receiver.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "baseband/crc.hpp"
#include "baseband/fec.hpp"
#include "baseband/hec.hpp"

namespace btsc::baseband {
namespace {

/// The last sync-word bit is air bit 67 for both ID packets and full
/// access codes; it is sampled a quarter bit into its period, 67.25 us
/// after the packet started (exact for even-half-slot transmissions,
/// +0.5 us for odd-half-slot ones -- well inside all window margins).
constexpr sim::SimTime kSyncEndOffset = sim::SimTime::ns(67'250);

/// Trailer after the sync word.
constexpr std::size_t kTrailerBits = 4;

/// Appends samples [pos, pos+n) of a burst source to `dst`; a null
/// source is an all-'Z' run, which the demodulator slices as zeros.
void append_samples(sim::BitVector& dst, const sim::BitVector* bits,
                    std::size_t pos, std::size_t n) {
  if (bits != nullptr) {
    dst.append_range(*bits, pos, n);
  } else {
    dst.append_zeros(n);
  }
}

/// First air bit of the payload.
constexpr std::size_t kPayloadStart = kAccessCodeBits + kHeaderCodedBits;

/// The logical packet behind a run, or nullptr (silence, raw or restored
/// bits). Only a TxPacket is its own logical form.
const TxPacket* tx_of(const phy::AirPacket* run) {
  return run != nullptr ? static_cast<const TxPacket*>(run->logical())
                        : nullptr;
}

/// Air bits [first, first + n) of `run`; silence reads as zeros. A
/// TxPacket, flipped or not, serves its access code without composing.
std::uint64_t run_word(const phy::AirPacket* run, std::size_t first,
                       unsigned n) {
  return run != nullptr ? run->word(first, n) : 0;
}

/// Length of the next search read at `first` with `left` samples to go:
/// at most 64, and never across the end of a TxPacket's access code, so
/// a sync inside it is found without composing the packet.
unsigned search_chunk(const TxPacket* tx, std::size_t first,
                      std::size_t left) {
  std::size_t n = left < 64 ? left : 64;
  if (tx != nullptr && first < kAccessCodeBits &&
      first + n > kAccessCodeBits) {
    n = kAccessCodeBits - first;
  }
  return static_cast<unsigned>(n);
}

}  // namespace

Receiver::Receiver(sim::Environment& env, std::string name)
    : env_(env), name_(std::move(name)) {}

void Receiver::configure(std::uint64_t sync_word, std::uint8_t check_init,
                         std::optional<std::uint8_t> whiten_init,
                         Expect expect) {
  // Materialise any lazily pending samples into the OLD machine first:
  // the per-bit path delivered them at their own instants before this
  // reconfiguration ran, and the fresh correlator below must start cold
  // (bits_seen 0), not pre-warmed by pre-reconfig bits. A taken
  // packet's counted samples reach the old machine too: they advance
  // its whitener, which the reset below keeps.
  if (catch_up_) catch_up_();
  if (taken_) replay_taken();
  machine_.correlator = Correlator(sync_word);
  configured_ = true;
  check_init_ = check_init;
  whiten_init_ = whiten_init;
  expect_ = expect;
  reset_machine();
  if (state_changed_) state_changed_();
}

void Receiver::reset_machine() {
  taken_ = false;
  machine_.phase = Phase::kSearch;
  machine_.correlator.reset();
  machine_.collected.clear();
  machine_.payload_data_bits.clear();
  machine_.payload_total_coded_bits = 0;
  machine_.payload_body_bytes = 0;
  machine_.payload_fec_failed = false;
  machine_.have_whitener = false;
}

// ---------------------------------------------------------------------------
// The decode machine. step() makes every quiet state change and reports
// the first externally visible effect instead of performing it.
// ---------------------------------------------------------------------------

Receiver::Effect Receiver::payload_step(Machine& m) {
  if (is_fec23(m.header.type)) {
    if (m.collected.size() % kFec23BlockBits == 0) {
      decode_block(m, static_cast<std::uint16_t>(m.collected.extract_word(
                          m.collected.size() - kFec23BlockBits,
                          kFec23BlockBits)));
    }
  } else {
    bool data_bit = m.collected[m.collected.size() - 1];
    if (m.have_whitener && m.whitener.next()) data_bit = !data_bit;
    m.payload_data_bits.push_back(data_bit);
  }
  return payload_progress(m);
}

void Receiver::decode_block(Machine& m, std::uint16_t air15) {
  const Fec23Block block = fec23_decode_block15(air15);
  if (block.failed) {
    m.payload_fec_failed = true;
    ++m.fec_failures;
  }
  std::uint16_t data10 = block.data10;
  if (m.have_whitener) {
    data10 ^= static_cast<std::uint16_t>(m.whitener.keystream(kFec23DataBits));
  }
  m.payload_data_bits.append_uint(data10, kFec23DataBits);
}

Receiver::Effect Receiver::payload_progress(Machine& m) {
  // Resolve the total length once the payload header is decodable.
  if (m.payload_total_coded_bits == 0) {
    const std::size_t need = 8 * payload_header_bytes(m.header.type);
    if (need > 0 && m.payload_data_bits.size() >= need) {
      std::uint16_t length = 0;
      if (need == 8) {
        length = static_cast<std::uint16_t>(
            (m.payload_data_bits.extract_word(0, 8) >> 3) & 0x1Fu);
      } else {
        const auto two = m.payload_data_bits.extract_word(0, 16);
        length = static_cast<std::uint16_t>(((two >> 3) & 0x1Fu) |
                                            (((two >> 8) & 0x0Fu) << 5));
      }
      if (length > max_user_bytes(m.header.type) || m.payload_fec_failed) {
        // Corrupt length field: we cannot frame the payload. The caller
        // reports a failed packet rather than reading a bogus bit count.
        return Effect::kPayloadBad;
      }
      m.payload_body_bytes = payload_header_bytes(m.header.type) + length +
                             (has_crc(m.header.type) ? 2u : 0u);
      const std::size_t data_bits = 8 * m.payload_body_bytes;
      m.payload_total_coded_bits =
          is_fec23(m.header.type)
              ? (data_bits + kFec23DataBits - 1) / kFec23DataBits *
                    kFec23BlockBits
              : data_bits;
    }
  }
  if (m.payload_total_coded_bits != 0 &&
      m.collected.size() >= m.payload_total_coded_bits) {
    return Effect::kPayloadDone;
  }
  return Effect::kNone;
}

Receiver::Effect Receiver::step(Machine& m, bool bit) {
  switch (m.phase) {
    case Phase::kSearch:
      return m.correlator.push(bit) ? Effect::kSync : Effect::kNone;
    case Phase::kTrailer:
      m.collected.push_back(bit);
      if (m.collected.size() == kTrailerBits) {
        m.collected.clear();
        m.phase = Phase::kHeader;
      }
      return Effect::kNone;
    case Phase::kHeader:
      m.collected.push_back(bit);
      return m.collected.size() == kHeaderCodedBits ? Effect::kHeaderDone
                                                    : Effect::kNone;
    case Phase::kPayload:
      m.collected.push_back(bit);
      return payload_step(m);
  }
  return Effect::kNone;
}

std::size_t Receiver::effect_index(const Machine& m) {
  const std::size_t got = m.collected.size();
  switch (m.phase) {
    case Phase::kSearch:
      return kUnknown;  // depends on the bits
    case Phase::kTrailer:
      // The rest of the trailer, then the 54th header bit.
      return (kTrailerBits - got) + (kHeaderCodedBits - 1);
    case Phase::kHeader:
      return kHeaderCodedBits - 1 - got;
    case Phase::kPayload:
      // Once the length is known, only completion is left: block
      // failures after that point just mark the result.
      return m.payload_total_coded_bits != 0
                 ? m.payload_total_coded_bits - got - 1
                 : kUnknown;
  }
  return kUnknown;
}

void Receiver::execute(Effect e) {
  switch (e) {
    case Effect::kNone:
      return;
    case Effect::kSync:
      on_sync_found();
      return;
    case Effect::kHeaderDone:
      finish_header();
      return;
    case Effect::kPayloadBad:
      deliver_payload_bad();
      return;
    case Effect::kPayloadDone:
      on_payload_complete();
      return;
  }
}

// ---------------------------------------------------------------------------
// Per-sample entry (classic path; also runs every effect sample)
// ---------------------------------------------------------------------------

void Receiver::on_bit(phy::Logic4 sample) {
  if (taken_) replay_taken();
  if (!configured_) return;  // not configured yet
  if (sample != phy::Logic4::kZ) ++carrier_samples_;
  bool bit;
  switch (sample) {
    case phy::Logic4::kZero:
      bit = false;
      break;
    case phy::Logic4::kOne:
      bit = true;
      break;
    case phy::Logic4::kZ:
      bit = false;  // no carrier: the demodulator slices noise floor
      break;
    default:  // collision: garbled symbol
      bit = env_.rng().bernoulli(0.5);
      break;
  }
  execute(step(machine_, bit));
}

// ---------------------------------------------------------------------------
// Burst-transport sink: probe and bulk consumption
// ---------------------------------------------------------------------------

void Receiver::on_sample(phy::Logic4 v) {
  const bool searching = configured_ && machine_.phase == Phase::kSearch;
  on_bit(v);
  if (searching && machine_.phase == Phase::kTrailer) {
    ++clean_stats_.air_bits;  // a packet synced on the per-bit path
  }
}

void Receiver::on_run_sample(const phy::AirPacket* run, std::size_t at) {
  if (taken_ && !feeds_taken(run, at)) replay_taken();
  if (taken_) {
    assert(at == taken_effect_at());
    ++carrier_samples_;
    taken_next_ = at + 1;
    if (machine_.phase == Phase::kPayload) {
      take_payload();
    } else {
      take_header();
    }
    return;
  }
  const bool searching = configured_ && machine_.phase == Phase::kSearch;
  on_bit(run != nullptr ? phy::from_bit(run->word(at, 1) != 0)
                        : phy::Logic4::kZ);
  if (searching && machine_.phase == Phase::kTrailer) try_take(run, at);
}

std::size_t Receiver::quiet_prefix(const phy::AirPacket* run,
                                   std::size_t first, std::size_t count) {
  if (taken_ && !feeds_taken(run, first)) replay_taken();
  if (!configured_) return count;  // unconfigured: samples are dropped
  if (taken_) {
    // The framing alone: the header ends at air bit 125, the payload at
    // the packet's last bit.
    const std::size_t at = taken_effect_at() - first;
    return at < count ? at : count;
  }
  if (machine_.phase == Phase::kSearch) {
    // Search only touches the correlator. An all-'Z' future is answered
    // from the register's weight; real bits dry-run a register copy.
    if (run == nullptr) return machine_.correlator.silent_prefix(count);
    const TxPacket* tx = tx_of(run);
    Correlator c = machine_.correlator;
    for (std::size_t i = 0; i < count;) {
      const unsigned chunk = search_chunk(tx, first + i, count - i);
      const std::uint64_t w = run_word(run, first + i, chunk);
      for (unsigned b = 0; b < chunk; ++b) {
        if (c.push((w >> b) & 1u)) return i + b;
      }
      i += chunk;
    }
    return count;
  }
  const sim::BitVector* bits = run != nullptr ? &run->bits() : nullptr;
  // Assembly phases: the framing fixes where trailer, header and a
  // length-resolved payload end, whatever the bits.
  if (const std::size_t at = effect_index(machine_); at != kUnknown) {
    return at < count ? at : count;
  }
  // Payload length not resolved yet: dry-run the few bits up to the
  // payload header on a scratch copy (the copy-assign reuses the scratch
  // buffers' capacity -- no steady-state allocation), then answer
  // analytically. A corrupted header that passed HEC can name a reserved
  // type whose length never resolves -- the per-bit path just
  // accumulates one bit per microsecond there, so the dry run must not
  // chase the full horizon. Capping the answer is always sound: the
  // caller treats the capped position as a barrier and runs that one
  // sample through the exact per-sample path, then re-probes.
  constexpr std::size_t kProbeCap = 8192;  // > any real packet framing
  const std::size_t limit = count < kProbeCap ? count : kProbeCap;
  scratch_ = machine_;
  for (std::size_t i = 0; i < limit; ++i) {
    const bool bit = bits != nullptr && (*bits)[first + i];
    if (step(scratch_, bit) != Effect::kNone) return i;
    if (const std::size_t at = effect_index(scratch_); at != kUnknown) {
      return at < count - i - 1 ? i + 1 + at : count;
    }
  }
  return limit;
}

void Receiver::consume_quiet(const phy::AirPacket* run, std::size_t first,
                             std::size_t count) {
  if (taken_ && !feeds_taken(run, first)) replay_taken();
  if (!configured_ || count == 0) return;
  if (run != nullptr) carrier_samples_ += count;
  if (taken_) {
    taken_next_ += count;  // applied to the machine only if replayed
    return;
  }
  if (machine_.phase == Phase::kSearch) {
    // Shift up to 64 known-quiet bits into the correlator at once (a
    // prior probe certified no position fires). Leaving the search is
    // always an effect, so the whole span stays here.
    const TxPacket* tx = tx_of(run);
    for (std::size_t i = 0; i < count;) {
      const unsigned chunk = search_chunk(tx, first + i, count - i);
      const std::uint64_t w = run_word(run, first + i, chunk);
#ifndef NDEBUG
      {
        Correlator check = machine_.correlator;
        for (unsigned b = 0; b < chunk; ++b) {
          assert(!check.push((w >> b) & 1u) &&
                 "consume_quiet crossed a sync fire");
        }
      }
#endif
      machine_.correlator.advance(w, chunk);
      i += chunk;
    }
    return;
  }
  const sim::BitVector* bits = run != nullptr ? &run->bits() : nullptr;
#ifndef NDEBUG
  // Per-bit oracle: the same span stepped bit by bit on the scratch copy
  // must stay quiet and land on the state the word path reaches.
  scratch_ = machine_;
  for (std::size_t i = 0; i < count; ++i) {
    [[maybe_unused]] const Effect e =
        step(scratch_, bits != nullptr && (*bits)[first + i]);
    assert(e == Effect::kNone && "consume_quiet crossed a side effect");
  }
#endif
  consume_assembly(machine_, bits, first, count);
  assert(scratch_ == machine_ && "word consume diverged from per-bit step");
}

void Receiver::consume_assembly(Machine& m, const sim::BitVector* bits,
                                std::size_t first, std::size_t count) {
  std::size_t i = 0;
  if (m.phase == Phase::kTrailer) {
    const std::size_t left = kTrailerBits - m.collected.size();
    const std::size_t take = count < left ? count : left;
    append_samples(m.collected, bits, first, take);
    i = take;
    if (take == left) {
      m.collected.clear();
      m.phase = Phase::kHeader;
    }
  }
  if (i < count && m.phase == Phase::kHeader) {
    // Quiet: the 54th header bit is an effect, so the span ends short.
    assert(m.collected.size() + (count - i) < kHeaderCodedBits);
    append_samples(m.collected, bits, first + i, count - i);
    i = count;
  }
  if (i < count) consume_payload(m, bits, first + i, count - i);
}

void Receiver::consume_payload(Machine& m, const sim::BitVector* bits,
                               std::size_t pos, std::size_t n) {
  assert(m.phase == Phase::kPayload);
  if (!is_fec23(m.header.type)) {
    // Unprotected payload: every coded bit is a data bit, de-whitened a
    // keystream word at a time. The length resolves from the first data
    // bits alone, so one check after the span equals the per-bit ones.
    const std::size_t start = m.collected.size();
    append_samples(m.collected, bits, pos, n);
    for (std::size_t done = 0; done < n;) {
      const auto chunk = static_cast<unsigned>(n - done < 64 ? n - done : 64);
      std::uint64_t w = m.collected.extract_word(start + done, chunk);
      if (m.have_whitener) w ^= m.whitener.keystream(chunk);
      m.payload_data_bits.append_uint(w, chunk);
      done += chunk;
    }
    [[maybe_unused]] const Effect e = payload_progress(m);
    assert(e == Effect::kNone && "consume_quiet crossed a payload effect");
    return;
  }
  // FEC 2/3: fill and decode one 15-bit block at a time. The length
  // check runs after every block, so a block failure before the payload
  // header resolves is seen exactly where the per-bit path sees it.
  for (std::size_t done = 0; done < n;) {
    const std::size_t into = m.collected.size() % kFec23BlockBits;
    const std::size_t left = kFec23BlockBits - into;
    const std::size_t take = n - done < left ? n - done : left;
    append_samples(m.collected, bits, pos + done, take);
    done += take;
    if (take == left) {
      decode_block(m, static_cast<std::uint16_t>(m.collected.extract_word(
                          m.collected.size() - kFec23BlockBits,
                          kFec23BlockBits)));
      [[maybe_unused]] const Effect e = payload_progress(m);
      assert(e == Effect::kNone && "consume_quiet crossed a payload effect");
    }
  }
}

// ---------------------------------------------------------------------------
// Effect execution
// ---------------------------------------------------------------------------

Receiver::Result& Receiver::fresh_result() {
  result_.is_id = false;
  result_.header_ok = false;
  result_.payload_ok = false;
  result_.fec_failed = false;
  result_.header = PacketHeader{};
  result_.payload_body.clear();
  result_.packet_start = sim::SimTime::zero();
  return result_;
}

void Receiver::on_sync_found() {
  ++syncs_;
  sync_done_time_ = env_.now();
  if (expect_ == Expect::kIdOnly) {
    Result& r = fresh_result();
    r.is_id = true;
    r.packet_start = sync_done_time_ - kSyncEndOffset;
    machine_.correlator.reset();
    deliver(r);
    return;
  }
  machine_.collected.clear();
  machine_.have_whitener = whiten_init_.has_value();
  if (whiten_init_) machine_.whitener = Whitener(*whiten_init_);
  machine_.phase = Phase::kTrailer;
}

void Receiver::finish_header() {
  // FEC-1/3 majority vote of the 54 coded header bits into the 18
  // information bits, then de-whitening -- all in one register, no
  // intermediate BitVector.
  std::uint32_t info = 0;
  for (unsigned i = 0; i < 18; ++i) {
    const auto triplet =
        static_cast<unsigned>(machine_.collected.extract_word(3 * i, 3));
    info |= static_cast<std::uint32_t>(std::popcount(triplet) >= 2) << i;
  }
  if (machine_.have_whitener) {
    info ^= static_cast<std::uint32_t>(machine_.whitener.keystream(18));
  }
  const auto header10 = static_cast<std::uint16_t>(info & 0x3FFu);
  const auto hec = static_cast<std::uint8_t>((info >> 10) & 0xFFu);
  if (hec_compute10(header10, check_init_) != hec) {
    ++hec_failures_;
    Result& r = fresh_result();
    r.packet_start = sync_done_time_ - kSyncEndOffset;
    deliver(r);  // header_ok == false
    reset_machine();
    return;
  }
  accept_header(header10);
}

void Receiver::accept_header(std::uint16_t header10) {
  machine_.header = PacketHeader::unpack(header10);
  if (header_hook_ && !header_hook_(machine_.header)) {
    // Addressed elsewhere: the link controller told us to stop listening.
    if (taken_) ++clean_stats_.hook;
    reset_machine();
    return;
  }
  if (!has_payload(machine_.header.type)) {
    Result& r = fresh_result();
    r.header = machine_.header;
    r.header_ok = true;
    r.payload_ok = true;
    r.packet_start = sync_done_time_ - kSyncEndOffset;
    deliver(r);
    reset_machine();
    return;
  }
  // Start the payload phase.
  machine_.phase = Phase::kPayload;
  machine_.collected.clear();
  machine_.payload_data_bits.clear();
  machine_.payload_fec_failed = false;
  machine_.payload_body_bytes = 0;
  machine_.payload_total_coded_bits = 0;
  if (machine_.header.type == PacketType::kFhs) {
    machine_.payload_body_bytes = kFhsBytes + 2;  // + CRC
    machine_.payload_total_coded_bits =
        (8 * machine_.payload_body_bytes + kFec23DataBits - 1) /
        kFec23DataBits * kFec23BlockBits;
  }
}

void Receiver::deliver_payload_bad() {
  Result& r = fresh_result();
  r.header = machine_.header;
  r.header_ok = true;
  r.fec_failed = machine_.payload_fec_failed;
  r.packet_start = sync_done_time_ - kSyncEndOffset;
  ++crc_failures_;
  deliver(r);
  reset_machine();
}

void Receiver::on_payload_complete() {
  Result& r = fresh_result();
  r.header = machine_.header;
  r.header_ok = true;
  r.fec_failed = machine_.payload_fec_failed;
  r.packet_start = sync_done_time_ - kSyncEndOffset;

  // Repack the decoded bits into the reusable body buffer (capacity is
  // retained across packets: no steady-state allocation).
  std::vector<std::uint8_t>& bytes = r.payload_body;
  for (std::size_t i = 0;
       i + 8 <= machine_.payload_data_bits.size() &&
       bytes.size() < machine_.payload_body_bytes;
       i += 8) {
    bytes.push_back(static_cast<std::uint8_t>(
        machine_.payload_data_bits.extract_word(i, 8)));
  }
  bool payload_ok = false;
  if (bytes.size() == machine_.payload_body_bytes &&
      !machine_.payload_fec_failed) {
    if (has_crc(machine_.header.type)) {
      const auto crc = static_cast<std::uint16_t>(
          bytes[bytes.size() - 2] |
          (static_cast<std::uint16_t>(bytes.back()) << 8));
      bytes.resize(bytes.size() - 2);
      if (crc16_check(bytes, check_init_, crc)) {
        payload_ok = true;
      } else {
        ++crc_failures_;
      }
    } else {
      payload_ok = true;
    }
  } else if (machine_.payload_fec_failed) {
    // already counted in machine_.fec_failures
  } else {
    ++crc_failures_;
  }
  r.payload_ok = payload_ok;
  if (!payload_ok) bytes.clear();
  deliver(r);
  reset_machine();
}

void Receiver::deliver(const Result& r) {
  if (!r.is_id) ++(taken_ ? clean_stats_.clean : clean_stats_.air);
  if (taken_ && !taken_view_.flips().empty()) ++clean_stats_.noisy;
  // The packet is done: a handler that reconfigures or feeds samples
  // finds no taken samples to replay.
  taken_ = false;
  if (handler_) handler_(r);
}

// ---------------------------------------------------------------------------
// Taken packets: a run delivered from its logical form and its flips
// ---------------------------------------------------------------------------

bool Receiver::feeds_taken(const phy::AirPacket* run,
                           std::size_t first) const {
  return run == taken_src_ && tx_of(run) == taken_tx_ &&
         taken_tx_->serial() == taken_serial_ && first == taken_next_;
}

void Receiver::try_take(const phy::AirPacket* run, std::size_t at) {
  // The sync just fired and the machine entered its trailer phase, which
  // only a kFull receiver does.
  const TxPacket* tx = tx_of(run);
  if (tx == nullptr) {
    ++clean_stats_.air_bits;
  } else if (at != kIdPacketBits - 1) {
    ++clean_stats_.offset;
  } else if (!tx->framed() ||
             tx->code().sync != machine_.correlator.expected() ||
             tx->params().check_init != check_init_ ||
             tx->params().whiten_init != whiten_init_) {
    ++clean_stats_.mismatch;
  } else if (read_flips(*tx, run->flips())) {
    // From here on the air bits would decode to exactly this packet and
    // its error pattern: same sync word, HEC/CRC init and whitening, a
    // framing that ends the payload at the packet's last bit, and flips
    // that leave that framing intact.
    taken_packet_ = *tx;  // copy-assign: the buffers keep their capacity
    taken_view_.show(taken_packet_);
    taken_view_.positions().assign(run->flips().begin(), run->flips().end());
    taken_src_ = run;
    taken_tx_ = tx;
    taken_serial_ = tx->serial();
    taken_next_ = taken_mark_ = kIdPacketBits;
    taken_ = true;
  }
}

bool Receiver::read_flips(const TxPacket& p,
                          std::span<const std::uint32_t> flips) {
  taken_fec_ends_.clear();
  taken_data_errors_.clear();
  // Flips in the access code only moved the correlator, which fired at
  // air bit 67 all the same; the trailer is discarded.
  auto it = std::lower_bound(flips.begin(), flips.end(), kAccessCodeBits);
  // Header: the majority vote restores a triple with at most one flip,
  // so the header and its HEC decode as sent.
  std::size_t last_triple = kUnknown;
  for (; it != flips.end() && *it < kPayloadStart; ++it) {
    const std::size_t triple = (*it - kAccessCodeBits) / 3;
    if (triple == last_triple) {
      ++clean_stats_.header_flips;
      return false;
    }
    last_triple = triple;
  }
  // Payload: every stage of the decode is linear in the errors. A DH
  // data bit is the air bit; FEC 2/3 is syndrome decoding, so a block
  // decodes to data(c) ^ decode(e) and fails exactly when its error
  // pattern e alone does. Whitening cancels out of the difference.
  const PacketType type = p.header().type;
  const std::size_t data_bits =
      8 * (p.body().size() + (has_crc(type) ? 2u : 0u));
  auto data_error = [&](std::size_t bit) {
    if (bit < data_bits) {
      taken_data_errors_.push_back(static_cast<std::uint32_t>(bit));
    }
  };
  if (!is_fec23(type)) {
    for (; it != flips.end(); ++it) data_error(*it - kPayloadStart);
  } else {
    while (it != flips.end()) {
      const std::size_t block = (*it - kPayloadStart) / kFec23BlockBits;
      const std::size_t start = kPayloadStart + block * kFec23BlockBits;
      std::uint16_t e = 0;
      for (; it != flips.end() && *it < start + kFec23BlockBits; ++it) {
        e = static_cast<std::uint16_t>(e | 1u << (*it - start));
      }
      const Fec23Block d = fec23_decode_block15(e);
      if (d.failed) taken_fec_ends_.push_back(start + kFec23BlockBits - 1);
      for (unsigned i = 0; i < kFec23DataBits; ++i) {
        if ((d.data10 >> i) & 1u) data_error(block * kFec23DataBits + i);
      }
    }
  }
  // The payload header must frame the payload as sent: no block fails
  // before its length resolves, and no error reaches the length field
  // (data bits 3-7, and 8-11 of a two-byte header).
  if (const std::size_t hdr = payload_header_bytes(type); hdr > 0) {
    const std::size_t blocks = (8 * hdr + kFec23DataBits - 1) / kFec23DataBits;
    if (!taken_fec_ends_.empty() &&
        taken_fec_ends_.front() < kPayloadStart + blocks * kFec23BlockBits) {
      ++clean_stats_.early_fec;
      return false;
    }
    const std::uint32_t length_end = hdr == 2 ? 12 : 8;
    for (const std::uint32_t bit : taken_data_errors_) {
      if (bit >= length_end) break;
      if (bit >= 3) {
        ++clean_stats_.length_flips;
        return false;
      }
    }
  }
  return true;
}

void Receiver::replay_taken() {
  taken_ = false;
  ++clean_stats_.interrupted;
  if (taken_next_ == taken_mark_) return;  // nothing pending: no compose
  consume_assembly(machine_, &taken_view_.bits(), taken_mark_,
                   taken_next_ - taken_mark_);
}

std::size_t Receiver::taken_effect_at() const {
  return machine_.phase == Phase::kPayload ? taken_packet_.size() - 1
                                           : kPayloadStart - 1;
}

void Receiver::take_header() {
  // finish_header() would majority-decode and de-whiten the composed
  // header to the packet's header and its HEC under the shared check
  // init, which passes; the de-whitening steps the register 18 bits.
  if (machine_.have_whitener) machine_.whitener.keystream(18);
  taken_mark_ = kPayloadStart;
  accept_header(taken_packet_.header().pack());
}

void Receiver::take_payload() {
  const TxPacket& p = taken_packet_;
  if (machine_.have_whitener) {
    // The bit path de-whitens one keystream bit per decoded data bit:
    // ten per FEC 2/3 block, else one per coded bit.
    const std::size_t coded = p.size() - kPayloadStart;
    std::size_t n = is_fec23(p.header().type)
                        ? coded / kFec23BlockBits * kFec23DataBits
                        : coded;
    for (; n > 64; n -= 64) machine_.whitener.keystream(64);
    if (n > 0) machine_.whitener.keystream(static_cast<unsigned>(n));
  }
  // on_payload_complete() of the decoded bits: a failed block fails the
  // payload (already counted per block), else the CRC decides.
  machine_.fec_failures += taken_fec_ends_.size();
  Result& r = fresh_result();
  r.header = machine_.header;
  r.header_ok = true;
  r.fec_failed = !taken_fec_ends_.empty();
  r.packet_start = sync_done_time_ - kSyncEndOffset;
  const std::size_t body_bits = 8 * p.body().size();
  bool ok = !r.fec_failed;
  if (ok && !taken_data_errors_.empty() && has_crc(p.header().type)) {
    // The CRC sent matches the body sent, and the CRC is linear: the
    // decoded payload passes iff the body errors change the CRC exactly
    // as the errors in the CRC field do (bit i of the field is data bit
    // body_bits + i).
    std::uint16_t syndrome = 0;
    for (const std::uint32_t bit : taken_data_errors_) {
      syndrome ^= bit < body_bits
                      ? crc16_single_bit(body_bits - 1 - bit)
                      : static_cast<std::uint16_t>(1u << (bit - body_bits));
    }
    ok = syndrome == 0;
    if (!ok) ++crc_failures_;
  }
  if (ok) {
    // Delivered as decoded: the body XOR its errors (an error the CRC
    // does not detect included).
    r.payload_body.assign(p.body().begin(), p.body().end());
    for (const std::uint32_t bit : taken_data_errors_) {
      if (bit < body_bits) {
        r.payload_body[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
  }
  r.payload_ok = ok;
  deliver(r);
  reset_machine();
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kRecvTag = sim::snapshot_tag("RECV");

}  // namespace

template <class Self, class M, class Ar>
void Receiver::io(Self& s, M& m, Ar& a) {
  using sim::as;
  a.section(kRecvTag, [&] {
    a.io(s.configured_, s.check_init_);
    a.opt_or_zero(s.whiten_init_);
    a.io(as<std::uint8_t>(s.expect_));
    // Decode machine (scratch_ is a probe buffer, result_ a delivery
    // buffer: neither carries state across samples).
    a.io(as<std::uint8_t>(m.phase));
    Correlator::io(m.correlator, a);
    a.io(m.collected,
         sim::prop(m.header, &PacketHeader::pack,
                   [](PacketHeader& h, std::uint16_t v) {
                     h = PacketHeader::unpack(v);
                   }),
         m.have_whitener,
         sim::prop(m.whitener, &Whitener::state,
                   [](Whitener& wh, std::uint8_t v) { wh = Whitener(v); }),
         m.payload_total_coded_bits, m.payload_body_bytes,
         m.payload_data_bits, m.payload_fec_failed, m.fec_failures,
         s.sync_done_time_, s.carrier_samples_, s.syncs_, s.hec_failures_,
         s.crc_failures_);
  });
}

void Receiver::save_state(sim::SnapshotWriter& w) const {
  if (!taken_) {
    io(*this, machine_, w);
    return;
  }
  // A taken packet is saved as the machine its bits would have built.
  Machine m = machine_;
  consume_assembly(m, &taken_view_.bits(), taken_mark_,
                   taken_next_ - taken_mark_);
  io(*this, m, w);
}

void Receiver::restore_state(sim::SnapshotReader& r) {
  io(*this, machine_, r);
  taken_ = false;
}

}  // namespace btsc::baseband
