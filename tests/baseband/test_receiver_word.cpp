// Burst-vs-bit differential tests for the receiver's burst sink on runs
// of plain bits (the packets it does not take): the quiet_prefix()
// probes -- correlator scans, framing-derived answers, the dry run up to
// a payload length -- and the consume_quiet() spans -- word shifts while
// searching, per-bit steps while assembling -- must deliver the same
// results at the same samples, and leave the same decode machine (the
// RECV snapshot section, byte for byte), as feeding every sample to the
// per-sample on_sample() reference -- for every packet type, whitened or
// not, clean or noisy, from real bits or from an all-'Z' source, and
// wherever a consume is split.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseband/access_code.hpp"
#include "baseband/fec.hpp"
#include "baseband/hec.hpp"
#include "baseband/packet.hpp"
#include "baseband/receiver.hpp"
#include "phy/air_packet.hpp"
#include "phy/logic4.hpp"
#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"
#include "support/bits.hpp"

namespace btsc::baseband {
namespace {

using sim::BitVector;

constexpr std::uint32_t kLap = 0x3B6A1D;
constexpr std::uint8_t kUap = 0x5C;
constexpr std::uint8_t kWhiten = 0x4D;
constexpr auto kReserved = static_cast<PacketType>(0b0101);
constexpr std::size_t kWhole = std::numeric_limits<std::size_t>::max();

/// One delivered result and the sample index that delivered it.
struct Delivery {
  std::size_t at = 0;
  bool is_id = false;
  bool header_ok = false;
  bool payload_ok = false;
  bool fec_failed = false;
  std::uint16_t header = 0;
  std::vector<std::uint8_t> body;
  std::uint64_t start_ns = 0;
  friend bool operator==(const Delivery&, const Delivery&) = default;
};

std::vector<std::uint8_t> snapshot(const Receiver& rx) {
  sim::SnapshotWriter w;
  rx.save_state(w);
  return w.take();
}

void restore(Receiver& rx, const std::vector<std::uint8_t>& bytes) {
  sim::SnapshotReader r(bytes);
  rx.restore_state(r);
}

/// A receiver under test plus the log of every effect it produced.
struct Rig {
  explicit Rig(sim::Environment& env, bool whiten) : rx(env, "rx") {
    rx.configure(sync_bits(kLap), kUap,
                 whiten ? std::optional<std::uint8_t>(kWhiten) : std::nullopt,
                 Receiver::Expect::kFull);
    rx.set_handler([this](const Receiver::Result& r) {
      deliveries.push_back({index, r.is_id, r.header_ok, r.payload_ok,
                            r.fec_failed, r.header.pack(), r.payload_body,
                            r.packet_start.as_ns()});
    });
    rx.set_header_hook([this](const PacketHeader&) {
      ++hooks;
      return true;
    });
  }

  /// Effects so far: syncs, HEC failures, hook calls and deliveries.
  std::size_t effects() const {
    return rx.syncs_detected() + rx.hec_failures() + hooks +
           deliveries.size();
  }

  Receiver rx;
  std::size_t index = 0;  // sample being processed
  std::size_t hooks = 0;
  std::vector<Delivery> deliveries;
};

phy::Logic4 sample(const BitVector* bits, std::size_t i) {
  return bits != nullptr ? phy::from_bit((*bits)[i]) : phy::Logic4::kZ;
}

/// The per-bit reference over samples [0, n): marks effect samples and
/// keeps the state after each prefix (states[k] = after k samples) --
/// after every one with `all_states`, else only after effect samples
/// and at the end (the others stay empty).
struct Reference {
  std::vector<std::vector<std::uint8_t>> states;
  std::vector<bool> effect;
};

Reference run_per_bit(Rig& rig, const BitVector* bits, std::size_t n,
                      bool all_states = true) {
  Reference ref;
  ref.states.push_back(snapshot(rig.rx));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = rig.effects();
    rig.index = i;
    rig.rx.on_sample(sample(bits, i));
    ref.effect.push_back(rig.effects() != before);
    const bool keep = all_states || ref.effect.back() || i + 1 == n;
    ref.states.push_back(keep ? snapshot(rig.rx) : std::vector<std::uint8_t>{});
  }
  return ref;
}

/// The radio's burst protocol over samples [0, n): probe, consume the
/// quiet span in pieces of at most `piece` samples, run the effect
/// sample per sample, repeat. Each probe answer is checked against the
/// reference's next effect, and the state after each effect sample
/// against the reference's.
void run_burst(Rig& rig, const BitVector* bits, std::size_t n,
               std::size_t piece, const Reference& ref) {
  phy::BitsPacket packet;
  if (bits != nullptr) packet.mutable_bits() = *bits;
  const phy::AirPacket* run = bits != nullptr ? &packet : nullptr;
  std::size_t pos = 0;
  while (pos < n) {
    const std::size_t q = rig.rx.quiet_prefix(run, pos, n - pos);
    std::size_t next = pos;
    while (next < n && !ref.effect[next]) ++next;
    ASSERT_EQ(q, next - pos) << "probe at sample " << pos;
    for (std::size_t done = 0; done < q;) {
      const std::size_t take = q - done < piece ? q - done : piece;
      rig.rx.consume_quiet(run, pos + done, take);
      done += take;
    }
    pos += q;
    if (pos == n) break;
    rig.index = pos;
    rig.rx.on_sample(sample(bits, pos));
    ++pos;
    ASSERT_EQ(snapshot(rig.rx), ref.states[pos]) << "after effect " << pos;
  }
}

struct Case {
  PacketType type;
  bool whiten;
  double ber;
  std::uint64_t seed;
};

std::string describe(const Case& c) {
  return std::string(c.type == kReserved ? "reserved" : to_string(c.type)) +
         (c.whiten ? " whitened" : " plain") + " ber=" +
         std::to_string(c.ber) + " seed=" + std::to_string(c.seed);
}

/// Random lead-in, access code, the packet, random tail; then channel
/// noise over the whole stream.
BitVector make_stream(const Case& c) {
  sim::Rng rng(c.seed);
  auto random_bits = [&](BitVector& v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) v.push_back(rng.bernoulli(0.5));
  };
  BitVector s;
  random_bits(s, 11);
  AccessCode::of(kLap).append_to(s, kAccessCodeBits);
  PacketHeader h;
  h.type = c.type;
  h.lt_addr = 3;
  h.seqn = true;
  LinkParams params;
  params.check_init = kUap;
  if (c.whiten) params.whiten_init = kWhiten;
  if (c.type == kReserved) {
    // compose() refuses reserved codes: a valid header (whitening is
    // off for this case) followed by bits no length ever frames.
    BitVector info;
    info.append_uint(h.pack(), 10);
    info.append_uint(hec_compute10(h.pack(), kUap), 8);
    s.append(fec13_encode(info));
    random_bits(s, 300);
  } else {
    std::vector<std::uint8_t> body;
    if (c.type == PacketType::kFhs) {
      for (std::size_t i = 0; i < kFhsBytes; ++i) {
        body.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
      }
    } else if (has_payload(c.type)) {
      std::vector<std::uint8_t> user(max_user_bytes(c.type) - 1);
      for (auto& b : user) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
      body = build_acl_body(c.type, kLlidStart, true, user);
    }
    compose_after_access_code(h, body, params, s);
  }
  random_bits(s, 23);
  if (c.ber > 0.0) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (rng.bernoulli(c.ber)) test::flip_bit(s, i);
    }
  }
  return s;
}

/// Runs `stream` per bit and through the burst path at several consume
/// granularities and from every split point, then (the all-'Z' source)
/// lets the receiver starve on silence from states sampled along the
/// packet. Every run must match the reference exactly.
std::vector<Delivery> check_equivalence(const Case& c,
                                        const BitVector& stream) {
  SCOPED_TRACE(describe(c));
  sim::Environment env;
  env.run(sim::SimTime::ms(1));  // packet_start stays non-negative
  const std::size_t n = stream.size();
  Rig ref_rig(env, c.whiten);
  const Reference ref = run_per_bit(ref_rig, &stream, n);
  EXPECT_GT(ref_rig.effects(), 0u);

  for (std::size_t piece : {kWhole, std::size_t{1}, std::size_t{7},
                            std::size_t{64}}) {
    SCOPED_TRACE("piece=" + std::to_string(piece));
    Rig rig(env, c.whiten);
    run_burst(rig, &stream, n, piece, ref);
    EXPECT_EQ(rig.deliveries, ref_rig.deliveries);
    EXPECT_EQ(snapshot(rig.rx), ref.states[n]);
  }

  // Every split point: from the reference state at sample k, one probe
  // and one consume up to the next effect sample (or the end) must land
  // on the reference state there -- a consume starting anywhere in a
  // trailer, header, FEC block or unprotected payload.
  Rig rig(env, c.whiten);
  phy::BitsPacket packet;
  packet.mutable_bits() = stream;
  std::size_t next = n;
  for (std::size_t k = n; k-- > 0;) {
    if (ref.effect[k]) next = k;
    restore(rig.rx, ref.states[k]);
    const std::size_t q = rig.rx.quiet_prefix(&packet, k, n - k);
    rig.rx.consume_quiet(&packet, k, next - k);
    if (q != next - k || snapshot(rig.rx) != ref.states[next]) {
      ADD_FAILURE() << "split at sample " << k << ": probe " << q
                    << ", next effect " << next - k;
      break;
    }
  }

  // All-'Z' source: the transmitter vanishes after sample k and the
  // receiver finishes (or keeps assembling) on the noise floor.
  constexpr std::size_t kSilence = 3000;
  for (std::size_t k = 0; k <= n; k += 37) {
    Rig a(env, c.whiten);
    Rig b(env, c.whiten);
    restore(a.rx, ref.states[k]);
    restore(b.rx, ref.states[k]);
    const Reference silent = run_per_bit(a, nullptr, kSilence, false);
    run_burst(b, nullptr, kSilence, kWhole, silent);
    if (b.deliveries != a.deliveries ||
        snapshot(b.rx) != silent.states[kSilence]) {
      ADD_FAILURE() << "silence after sample " << k;
      break;
    }
  }
  return ref_rig.deliveries;
}

constexpr PacketType kAllTypes[] = {
    PacketType::kNull, PacketType::kPoll, PacketType::kFhs,
    PacketType::kDm1,  PacketType::kDm3,  PacketType::kDm5,
    PacketType::kDh1,  PacketType::kDh3,  PacketType::kDh5,
    PacketType::kAux1, kReserved,
};

TEST(ReceiverWordTest, CleanPacketsMatchPerBitPath) {
  for (PacketType t : kAllTypes) {
    for (bool whiten : {false, true}) {
      if (t == kReserved && whiten) continue;  // composed unwhitened
      const Case c{t, whiten, 0.0, 11};
      check_equivalence(c, make_stream(c));
    }
  }
}

TEST(ReceiverWordTest, NoisyPacketsMatchPerBitPath) {
  // Noise high enough for HEC failures, FEC 2/3 block failures and CRC
  // failures across the seeds.
  std::size_t hec_bad = 0, fec_bad = 0, crc_bad = 0, ok = 0;
  for (PacketType t : kAllTypes) {
    for (bool whiten : {false, true}) {
      if (t == kReserved && whiten) continue;
      for (const auto& [ber, seed] : {std::pair{1.0 / 40, 3u},
                                      std::pair{1.0 / 12, 4u}}) {
        const Case c{t, whiten, ber, seed};
        for (const Delivery& d : check_equivalence(c, make_stream(c))) {
          if (!d.header_ok) {
            ++hec_bad;
          } else if (d.fec_failed) {
            ++fec_bad;
          } else if (!d.payload_ok) {
            ++crc_bad;
          } else {
            ++ok;
          }
        }
      }
    }
  }
  EXPECT_GT(hec_bad, 0u);
  EXPECT_GT(fec_bad, 0u);
  EXPECT_GT(crc_bad, 0u);
  EXPECT_GT(ok, 0u);
}

/// Offset of the first payload bit in a make_stream() stream.
constexpr std::size_t kPayloadStart = 11 + kAccessCodeBits + 54;

TEST(ReceiverWordTest, FecFailureBeforeLengthResolvesIsBadAtSecondBlock) {
  // DM3/DM5 carry a 2-byte payload header: its length resolves only
  // after the second FEC block. A double error in the first block (the
  // (15,10) code detects but cannot correct it) must report the packet
  // as unframeable exactly at the second block boundary on both paths.
  for (PacketType t : {PacketType::kDm3, PacketType::kDm5}) {
    for (bool whiten : {false, true}) {
      const Case c{t, whiten, 0.0, 21};
      BitVector s = make_stream(c);
      test::flip_bit(s, kPayloadStart + 2);
      test::flip_bit(s, kPayloadStart + 9);
      check_equivalence(c, s);
      sim::Environment env;
      Rig rig(env, whiten);
      run_per_bit(rig, &s, s.size());
      ASSERT_EQ(rig.deliveries.size(), 1u) << to_string(t);
      const Delivery& d = rig.deliveries.front();
      EXPECT_TRUE(d.header_ok);
      EXPECT_FALSE(d.payload_ok);
      EXPECT_TRUE(d.fec_failed);
      EXPECT_EQ(d.at, kPayloadStart + 2 * kFec23BlockBits - 1);
    }
  }
}

TEST(ReceiverWordTest, LengthAboveMaximumIsBadWhereItResolves) {
  // A payload header naming more user bytes than the type can carry
  // (31 > 17 for DM1, > 27 for DH1) cannot be framed: the packet fails
  // at the sample that completes the length field.
  for (PacketType t : {PacketType::kDm1, PacketType::kDh1}) {
    for (bool whiten : {false, true}) {
      PacketHeader h;
      h.type = t;
      h.lt_addr = 2;
      LinkParams params;
      params.check_init = kUap;
      if (whiten) params.whiten_init = kWhiten;
      std::vector<std::uint8_t> body(1 + max_user_bytes(t), 0x3C);
      body[0] = static_cast<std::uint8_t>(kLlidStart | (1u << 2) | (31u << 3));
      BitVector s;
      for (int i = 0; i < 11; ++i) s.push_back(i % 3 == 0);
      AccessCode::of(kLap).append_to(s, kAccessCodeBits);
      compose_after_access_code(h, body, params, s);
      s.append_uint(0, 40);
      const Case c{t, whiten, 0.0, 0};
      check_equivalence(c, s);
      sim::Environment env;
      Rig rig(env, whiten);
      run_per_bit(rig, &s, s.size());
      ASSERT_EQ(rig.deliveries.size(), 1u) << to_string(t);
      const Delivery& d = rig.deliveries.front();
      EXPECT_TRUE(d.header_ok);
      EXPECT_FALSE(d.payload_ok);
      EXPECT_FALSE(d.fec_failed);
      const std::size_t resolves =
          is_fec23(t) ? kFec23BlockBits : std::size_t{8};
      EXPECT_EQ(d.at, kPayloadStart + resolves - 1) << to_string(t);
    }
  }
}

/// Puts `rx` in the sync search with the given correlator registers,
/// through the RECV snapshot section (the receiver's only register-level
/// entry point). The fields follow Receiver::save_state; the round trip
/// check below catches any drift from that layout.
void set_search_registers(Receiver& rx, std::uint64_t expected,
                          std::uint64_t window, std::uint64_t bits_seen) {
  sim::SnapshotWriter w;
  w.begin_section(sim::snapshot_tag("RECV"));
  w.b(true);   // configured
  w.u8(kUap);  // check_init
  w.b(false);  // no whitening
  w.u8(0);
  w.u8(static_cast<std::uint8_t>(Receiver::Expect::kFull));
  w.u8(0);  // phase: search
  w.u64(expected);
  w.u64(window);
  w.u64(bits_seen);
  w.io(BitVector{});        // collected
  w.u16(0);                 // header
  w.b(false);               // have_whitener
  w.u8(0);                  // whitener register
  w.u64(0);                 // payload_total_coded_bits
  w.u64(0);                 // payload_body_bytes
  w.io(BitVector{});        // payload_data_bits
  w.b(false);               // payload_fec_failed
  w.u64(0);                 // fec_failures
  w.time(sim::SimTime{});   // sync_done_time
  for (int i = 0; i < 4; ++i) w.u64(0);  // carrier, syncs, HEC, CRC counts
  w.end_section();
  const std::vector<std::uint8_t> bytes = w.take();
  restore(rx, bytes);
  ASSERT_EQ(snapshot(rx), bytes) << "RECV layout drifted";
}

/// A correlator holding the given raw registers, loaded through its
/// checkpoint layout.
Correlator correlator_with(std::uint64_t expected, std::uint64_t window,
                           std::uint64_t bits_seen) {
  sim::SnapshotWriter w;
  w.io(expected, window, bits_seen);
  const std::vector<std::uint8_t> bytes = w.take();
  sim::SnapshotReader r(bytes);
  Correlator c;
  Correlator::io(c, r);
  return c;
}

/// A random word with exactly `weight` set bits.
std::uint64_t word_of_weight(sim::Rng& rng, int weight) {
  std::uint64_t w = 0;
  while (std::popcount(w) < weight) w |= 1ull << rng.uniform(0, 63);
  return w;
}

TEST(ReceiverWordTest, SilentProbeMatchesPushReference) {
  // The all-'Z' probe of a searching receiver (quiet_prefix with a null
  // source) answers from the correlator's weight when that excludes any
  // fire, and dry-runs zero pushes otherwise. Both must equal the
  // reference: the first of `count` zero pushes that fires.
  constexpr int kTolerated = 64 - kSyncCorrelationThreshold;
  sim::Rng rng(1919);
  sim::Environment env;
  Rig rig(env, false);
  auto pick = [&rng](int lo, int hi) {
    return static_cast<int>(rng.uniform(lo, hi));
  };
  int bound_cases = 0, pushed_cases = 0, fired_cases = 0, pushed_quiet = 0;
  for (int trial = 0; trial < 12000; ++trial) {
    std::uint64_t expected = 0, window = 0;
    switch (trial % 3) {
      case 0:  // low-weight window next to a typical sync word
        expected = sync_bits(static_cast<std::uint32_t>(pick(0, 0xFFFFFF)));
        window = pick(0, 3) == 0 ? 0 : word_of_weight(rng, pick(1, 12));
        break;
      case 1: {  // sync word within the tolerance of the window's weight
        window = rng.next();
        const int shift = pick(0, 64);
        expected = shift == 64 ? 0 : window >> shift;
        const int flips = pick(0, 12);
        for (int f = 0; f < flips; ++f) expected ^= 1ull << pick(0, 63);
        break;
      }
      default:  // degenerate sync word that fires on silence
        expected = word_of_weight(rng, pick(0, kTolerated));
        window = word_of_weight(rng, pick(0, 20));
        break;
    }
    const std::uint64_t bits_seen = rng.uniform(0, 1) ? rng.uniform(0, 63)
                                                      : rng.uniform(64, 5000);
    const std::size_t count = rng.uniform(0, 200);

    Correlator ref = correlator_with(expected, window, bits_seen);
    std::size_t want = count;
    for (std::size_t i = 0; i < count; ++i) {
      if (ref.push(false)) {
        want = i;
        break;
      }
    }
    const bool bounded = std::popcount(expected) - std::popcount(window) >
                         kTolerated;
    bound_cases += bounded;
    pushed_cases += !bounded;
    fired_cases += want < count;
    pushed_quiet += !bounded && want == count;

    Correlator c = correlator_with(expected, window, bits_seen);
    ASSERT_EQ(c.silent_prefix(count), want) << "trial " << trial;

    set_search_registers(rig.rx, expected, window, bits_seen);
    const std::size_t q = rig.rx.quiet_prefix(nullptr, 0, count);
    ASSERT_EQ(q, want) << "trial " << trial << std::hex << " expected "
                       << expected << " window " << window;
    // Consume the quiet span (assert-armed builds replay it per bit
    // through the correlator), then the effect sample must sync.
    const std::uint64_t syncs = rig.rx.syncs_detected();
    rig.rx.consume_quiet(nullptr, 0, q);
    if (q < count) {
      rig.rx.on_sample(phy::Logic4::kZ);
      ASSERT_EQ(rig.rx.syncs_detected(), syncs + 1) << "trial " << trial;
    }
  }
  // Every branch ran: the weight bound, the push fallback with and
  // without a fire.
  EXPECT_GT(bound_cases, 1000);
  EXPECT_GT(pushed_cases, 1000);
  EXPECT_GT(fired_cases, 500);
  EXPECT_GT(pushed_quiet, 100);
}

}  // namespace
}  // namespace btsc::baseband
