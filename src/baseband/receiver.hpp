// Receiver: assembles packets from the sampled channel bit stream.
//
// The radio delivers one Logic4 sample per microsecond while the RX chain
// is enabled; this module runs the sliding sync-word correlator and, once
// synchronised, peels off trailer, FEC-1/3 header (HEC checked) and the
// type-dependent payload (FEC-2/3 decoded block by block, de-whitened,
// CRC checked). Undefined samples are tolerated: 'Z' (no carrier) reads
// as 0 and 'X' (collision) as a random bit, modelling the garbled output
// of a real demodulator during overlap.
//
// Results are pushed to a handler; a separate header hook lets the link
// controller abort payload reception early when a packet is addressed to
// a different slave (the paper's Fig. 5 shows exactly this RX gating).
//
// Burst transport: the receiver also implements phy::BurstRxSink. The
// decode state machine is factored into a small copyable `Machine` whose
// step() reports, instead of performing, every externally visible effect
// (handler/hook invocation, RNG draw); step() is the per-bit reference
// that on_bit() runs. quiet_prefix() locates the next effect: while
// searching by scanning the correlator over word reads (a silent medium
// is answered from the correlator's weight), while assembling
// analytically from the framing (trailer and header lengths, the
// payload's coded length once its header resolves) -- only the few bits
// before a payload length resolves are dry-run on a scratch copy.
// consume_quiet() then advances the real machine a word at a time --
// correlator shifts, trailer/header/payload bits appended in words,
// DH payloads de-whitened by keystream words, DM/FHS payloads decoded
// one FEC block at a time -- and on_sample()/on_bit() executes effect
// samples through the classic path at exactly their own instants.
//
// Logical runs: the radio feeds the sink the packet the medium shows --
// a TxPacket for a clean run, a phy::FlippedPacket (the TxPacket plus
// its flip positions) for a noisy one. Either is read from its cached
// access code (XOR the flips) while the correlator searches, so a sync
// costs no composing. When the sync fires at the access code's last bit
// (air bit 67), the receiver is configured for the packet's sync word,
// check init and whitening, and the flips leave the framing intact (no
// header triple holds two flips, the payload header decodes to the sent
// length, no FEC block fails before that length resolves), the receiver
// *takes* the packet: it copies the logical packet and its flips, and
// from then on answers quiet_prefix() from the framing alone, counts
// quiet samples, and fills the header and payload results from the
// packet and its error pattern -- no HEC, no decode of unflipped blocks,
// and the CRC checked from the flipped data bits alone. Everything else
// reads the packet's bits. The quiet samples of a taken packet are
// replayed from its composed (and flipped) bits into the machine the
// moment the receiver is fed anything else (the run fell back or was
// aborted, the radio moved), and a checkpoint saves the machine those
// bits would have built, so the snapshot and every result stay those of
// the per-bit path (docs/ARCHITECTURE.md, "Clean runs carry the
// packet").
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baseband/access_code.hpp"
#include "baseband/packet.hpp"
#include "baseband/tx_packet.hpp"
#include "baseband/whitening.hpp"
#include "phy/air_packet.hpp"
#include "phy/logic4.hpp"
#include "phy/radio.hpp"
#include "sim/bitvector.hpp"
#include "sim/environment.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace btsc::baseband {

class Receiver : public phy::BurstRxSink, public sim::Snapshotable {
 public:
  /// What the current state machine phase expects on the air.
  enum class Expect : std::uint8_t {
    kIdOnly,  // bare access code (inquiry/page ID packets)
    kFull,    // access code + header (+ payload)
  };

  struct Result {
    bool is_id = false;        // bare ID packet detected
    bool header_ok = false;    // HEC passed (always false for ID)
    bool payload_ok = false;   // payload CRC passed (or no payload)
    bool fec_failed = false;   // uncorrectable FEC 2/3 block
    PacketHeader header;
    /// Payload body after FEC decode and CRC strip: payload header +
    /// user bytes for ACL packets, the 18 information bytes for FHS.
    std::vector<std::uint8_t> payload_body;
    /// Time the first bit of the packet hit the air (derived from the
    /// sync completion instant).
    sim::SimTime packet_start;
  };

  using Handler = std::function<void(const Result&)>;
  /// Called right after a valid header; return false to abort payload
  /// reception (packet addressed elsewhere).
  using HeaderHook = std::function<bool(const PacketHeader&)>;

  Receiver(sim::Environment& env, std::string name);

  /// Arms the receiver for a sync word (a sync_bits() word) and link
  /// context. Resets assembly.
  void configure(std::uint64_t sync_word, std::uint8_t check_init,
                 std::optional<std::uint8_t> whiten_init, Expect expect);

  void set_handler(Handler h) { handler_ = std::move(h); }
  void set_header_hook(HeaderHook h) { header_hook_ = std::move(h); }

  /// Burst-transport wiring (done by Device): `catch_up` materialises
  /// the radio's pending lazy samples (invoked before carrier_samples()
  /// reads), `state_changed` tells the radio to re-derive its
  /// side-effect barrier after an out-of-band reconfiguration.
  void set_transport_hooks(sim::UniqueFunction catch_up,
                           sim::UniqueFunction state_changed) {
    catch_up_ = std::move(catch_up);
    state_changed_ = std::move(state_changed);
  }

  /// Feed one channel sample (the radio's per-sample entry).
  void on_bit(phy::Logic4 sample);

  // ---- phy::BurstRxSink ----
  std::size_t quiet_prefix(const phy::AirPacket* run, std::size_t first,
                           std::size_t count) override;
  void consume_quiet(const phy::AirPacket* run, std::size_t first,
                     std::size_t count) override;
  void on_sample(phy::Logic4 v) override;
  void on_run_sample(const phy::AirPacket* run, std::size_t at) override;

  /// True once a sync word has been found and the packet is assembling.
  /// Lazy-safe: search->assembly transitions only happen inside effect
  /// samples, which always execute at their own instants.
  bool assembling() const { return machine_.phase != Phase::kSearch; }

  /// Number of samples carrying a real signal (not 'Z') since the
  /// receiver was configured. The link controller compares snapshots of
  /// this counter for carrier sensing: an idle-slot listen window closes
  /// after ~32.5 us when nothing but 'Z' was heard (the paper's 2.6%
  /// active-mode RX duty). Materialises pending lazy samples first.
  std::uint64_t carrier_samples() const {
    if (catch_up_) catch_up_();
    return carrier_samples_;
  }

  // ---- checkpointing ----

  /// Saves/restores the configuration, the full decode machine
  /// (correlator/whitener registers, collected and decoded bits) and the
  /// counters. The receiver owns no timers, so no rearm handler; the
  /// handler/hook wiring is structural and re-created by construction.
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;

  // ---- statistics ----
  std::uint64_t syncs_detected() const { return syncs_; }
  std::uint64_t hec_failures() const { return hec_failures_; }
  std::uint64_t crc_failures() const { return crc_failures_; }
  /// FEC blocks decoded with an uncorrectable error. Materialises pending
  /// lazy samples first: a payload's blocks decode quietly, and a taken
  /// packet's failed blocks count once the samples past them are in.
  std::uint64_t fec_failures() const {
    if (catch_up_) catch_up_();
    if (!taken_) return machine_.fec_failures;
    // The taken packet's blocks whose last bit has been counted.
    return machine_.fec_failures +
           static_cast<std::uint64_t>(
               std::lower_bound(taken_fec_ends_.begin(),
                                taken_fec_ends_.end(), taken_next_) -
               taken_fec_ends_.begin());
  }

  /// How this receiver's packets (ID packets aside) were decoded. Kept in
  /// the process only: never checkpointed, never in result bytes.
  struct CleanPathStats {
    std::uint64_t clean = 0;  // delivered from a taken logical packet
    std::uint64_t noisy = 0;  // of those, taken with flips inside
    std::uint64_t air = 0;    // delivered from air bits
    // Why a packet whose sync fired was not taken, or not kept:
    std::uint64_t air_bits = 0;      // the medium showed bits (raw or
                                     // restored bits, the per-bit path)
    std::uint64_t mismatch = 0;      // another sync word, check init or
                                     // whitening, or a packet it cannot
                                     // frame (ID, bad length field)
    std::uint64_t offset = 0;        // sync not at air bit 67
    std::uint64_t header_flips = 0;  // a header triple holds 2+ flips
    std::uint64_t length_flips = 0;  // flips change the payload length
    std::uint64_t early_fec = 0;     // a FEC block fails before the
                                     // payload length resolves
    std::uint64_t hook = 0;          // the header hook rejected it
    std::uint64_t interrupted = 0;   // replayed into the machine mid-way
  };
  const CleanPathStats& clean_path_stats() const { return clean_stats_; }

 private:
  /// The checkpoint layout, shared by save_state and restore_state;
  /// `m` is the decode machine to write or read.
  template <class Self, class M, class Ar>
  static void io(Self& s, M& m, Ar& a);

  enum class Phase : std::uint8_t { kSearch, kTrailer, kHeader, kPayload };

  /// What executing one more sample would make externally visible.
  enum class Effect : std::uint8_t {
    kNone,         // pure state update
    kSync,         // correlator fired: handler (ID) or assembly start
    kHeaderDone,   // 54 header bits in: HEC check + hook + result path
    kPayloadBad,   // unframeable payload: failure result delivery
    kPayloadDone,  // payload complete: CRC check + result delivery
  };

  /// Copyable decode state. step() performs every *quiet* state change
  /// and reports -- without performing -- the first effect, so a probe
  /// can dry-run a scratch copy bit by bit.
  struct Machine {
    Phase phase = Phase::kSearch;
    Correlator correlator;
    sim::BitVector collected;
    PacketHeader header;
    bool have_whitener = false;
    Whitener whitener{0};
    std::size_t payload_total_coded_bits = 0;  // 0 = unknown yet
    std::size_t payload_body_bytes = 0;
    sim::BitVector payload_data_bits;  // decoded (FEC removed) bits
    bool payload_fec_failed = false;
    /// Cumulative uncorrectable-block count (lives here so quiet block
    /// decodes can bump it and probes on copies stay side-effect-free).
    std::uint64_t fec_failures = 0;

    friend bool operator==(const Machine&, const Machine&) = default;
  };

  /// effect_index() answer when the framing does not fix it yet.
  static constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);

  static Effect step(Machine& m, bool bit);
  static Effect payload_step(Machine& m);
  /// Decodes one 15-bit FEC 2/3 block (air order) into the data bits.
  static void decode_block(Machine& m, std::uint16_t air15);
  /// Payload length resolution and completion check, run after every
  /// data-bit update.
  static Effect payload_progress(Machine& m);
  /// Offset, from the next sample, of the sample carrying an assembling
  /// machine's next effect when the framing alone fixes it; kUnknown
  /// while searching or before a payload length resolves.
  static std::size_t effect_index(const Machine& m);
  /// Word-level quiet consumption of assembly samples [pos, pos+n) (the
  /// machine past its search phase; a null source is silence).
  static void consume_assembly(Machine& m, const sim::BitVector* bits,
                               std::size_t pos, std::size_t n);
  /// Word-level quiet consumption of payload samples [pos, pos+n).
  static void consume_payload(Machine& m, const sim::BitVector* bits,
                              std::size_t pos, std::size_t n);
  /// Runs the effectful part of a sample whose step() reported `e`.
  void execute(Effect e);

  void on_sync_found();
  void finish_header();
  /// Header hook and payload set-up of a header that passed its HEC.
  void accept_header(std::uint16_t header10);
  void deliver_payload_bad();
  void on_payload_complete();
  void reset_machine();
  void deliver(const Result& r);

  // ---- taken packets (logical runs) ----
  /// True when `run` at sample `first` continues the taken packet.
  bool feeds_taken(const phy::AirPacket* run, std::size_t first) const;
  /// Takes `run`'s logical packet if its sync just fired at air bit
  /// `at`, else counts why not.
  void try_take(const phy::AirPacket* run, std::size_t at);
  /// Reads the error pattern `flips` leave in `p` (the payload's data
  /// errors and failed FEC blocks); false, with the reason counted, when
  /// they break the header or the payload's framing.
  bool read_flips(const TxPacket& p, std::span<const std::uint32_t> flips);
  /// Replays the taken packet's pending quiet samples into the machine
  /// and leaves taken mode.
  void replay_taken();
  /// Run index of the taken packet's next effect sample.
  std::size_t taken_effect_at() const;
  void take_header();
  void take_payload();

  sim::Environment& env_;
  std::string name_;

  // configuration
  bool configured_ = false;
  std::uint8_t check_init_ = kDefaultCheckInit;
  std::optional<std::uint8_t> whiten_init_;
  Expect expect_ = Expect::kIdOnly;

  /// Clears and returns the reusable delivery record (its payload_body
  /// keeps its capacity, so steady-state packet delivery performs no
  /// heap allocation). Handlers must not retain references past the
  /// callback.
  Result& fresh_result();

  Machine machine_;
  /// Probe dry-run state, and the per-bit oracle of consume_quiet()'s
  /// debug cross-check (capacity reused: no steady-state allocation).
  Machine scratch_;

  /// The taken packet: a copy of its logical form (capacity reused), the
  /// run and logical packet it is fed from and the packet's serial, the
  /// run index of the next sample, and the first sample not yet applied
  /// to the machine (the machine holds the state of the last effect).
  bool taken_ = false;
  TxPacket taken_packet_;
  const phy::AirPacket* taken_src_ = nullptr;
  const TxPacket* taken_tx_ = nullptr;
  std::uint64_t taken_serial_ = 0;
  std::size_t taken_next_ = 0;
  std::size_t taken_mark_ = 0;
  /// The copy with its flips (the air bits a replay or a save reads),
  /// and what the flips do to the payload: the decoded data bits (body,
  /// then CRC) they leave in error, ascending, and the last air bit of
  /// each failed FEC block. All keep their capacity across packets.
  phy::FlippedPacket taken_view_;
  std::vector<std::uint32_t> taken_data_errors_;
  std::vector<std::size_t> taken_fec_ends_;
  CleanPathStats clean_stats_;
  Result result_;            // reused delivery record
  sim::SimTime sync_done_time_;

  Handler handler_;
  HeaderHook header_hook_;
  mutable sim::UniqueFunction catch_up_;
  sim::UniqueFunction state_changed_;

  std::uint64_t carrier_samples_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t hec_failures_ = 0;
  std::uint64_t crc_failures_ = 0;
};

}  // namespace btsc::baseband
