// SnapshotWriter/SnapshotReader primitives: scalar codecs round-trip
// bit-exactly, sections nest and validate their tags and lengths, and
// every malformed stream is rejected with SnapshotError rather than
// silently misread -- the foundation the module-level round-trip goldens
// and the forked-vs-cold sweep gates build on.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/bitvector.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"

namespace btsc::sim {
namespace {

constexpr std::uint32_t kTagA = snapshot_tag("AAAA");
constexpr std::uint32_t kTagB = snapshot_tag("BB  ");

TEST(Snapshot, ScalarsRoundTrip) {
  SnapshotWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.b(true);
  w.b(false);
  w.f64(-1.5e-300);
  w.time(SimTime::ns(123456789));
  w.str("hello \n world");
  w.str("");
  const std::vector<std::uint8_t> blob = {1, 2, 3, 255};
  w.byte_vec(blob);
  const auto bytes = w.take();

  SnapshotReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.f64(), -1.5e-300);
  EXPECT_EQ(r.time(), SimTime::ns(123456789));
  EXPECT_EQ(r.str(), "hello \n world");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.byte_vec(), blob);
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, DoubleBitPatternsSurvive) {
  // f64 must preserve the exact bit pattern, not the value: the
  // byte-stability contract depends on it (NaN payloads, signed zero).
  const double values[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min()};
  SnapshotWriter w;
  for (double v : values) w.f64(v);
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  for (double v : values) {
    const double got = r.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Snapshot, SectionsNest) {
  SnapshotWriter w;
  w.begin_section(kTagA);
  w.u32(7);
  w.begin_section(kTagB);
  w.str("inner");
  w.end_section();
  w.u32(9);
  w.end_section();
  const auto bytes = w.take();

  SnapshotReader r(bytes);
  r.enter_section(kTagA);
  EXPECT_EQ(r.u32(), 7u);
  r.enter_section(kTagB);
  EXPECT_EQ(r.str(), "inner");
  r.leave_section();
  EXPECT_EQ(r.u32(), 9u);
  r.leave_section();
  EXPECT_TRUE(r.at_end());
}

// ---- the shared io() overload set ------------------------------------------
//
// Each io() spelling must write exactly the bytes of the named primitive
// it replaces (the snapshot format is pinned) and read them back.

/// Writes with `new_form` and with `old_form` into two fresh writers and
/// requires identical streams; returns the stream.
template <class New, class Old>
std::vector<std::uint8_t> same_bytes(New&& new_form, Old&& old_form) {
  SnapshotWriter a, b;
  new_form(a);
  old_form(b);
  auto bytes = a.take();
  EXPECT_EQ(bytes, b.take());
  return bytes;
}

enum class Colour : std::uint8_t { kRed = 3, kBlue = 200 };

TEST(Snapshot, IoIntegersAndWireCastsMatchNamedPrimitives) {
  const bool t = true, f = false;
  const std::uint8_t u8v = 0xAB;
  const std::uint16_t u16v = 0xBEEF;
  const std::uint32_t u32v = 0xDEADBEEFu;
  const std::uint64_t u64v = 0x0123456789ABCDEFull;
  const std::size_t size = 12345;
  const int neg = -7;
  const Colour colour = Colour::kBlue;
  const auto bytes = same_bytes(
      [&](SnapshotWriter& w) {
        w.io(t, f, u8v, u16v, u32v, u64v, size);
        w.io(as<std::uint32_t>(neg), as<std::uint8_t>(colour));
        w.io(as<std::uint64_t>(neg));
      },
      [&](SnapshotWriter& w) {
        w.b(true);
        w.b(false);
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEADBEEFu);
        w.u64(0x0123456789ABCDEFull);
        w.u64(12345);
        w.u32(static_cast<std::uint32_t>(-7));
        w.u8(200);
        w.u64(static_cast<std::uint64_t>(-7));
      });

  SnapshotReader r(bytes);
  bool rt = false, rf = true;
  std::uint8_t r8 = 0;
  std::uint16_t r16 = 0;
  std::uint32_t r32 = 0;
  std::uint64_t r64 = 0;
  std::size_t rsize = 0;
  int rneg = 0, rneg64 = 0;
  Colour rcolour = Colour::kRed;
  r.io(rt, rf, r8, r16, r32, r64, rsize);
  r.io(as<std::uint32_t>(rneg), as<std::uint8_t>(rcolour));
  r.io(as<std::uint64_t>(rneg64));
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(rt);
  EXPECT_FALSE(rf);
  EXPECT_EQ(r8, u8v);
  EXPECT_EQ(r16, u16v);
  EXPECT_EQ(r32, u32v);
  EXPECT_EQ(r64, u64v);
  EXPECT_EQ(rsize, size);
  EXPECT_EQ(rneg, -7);
  EXPECT_EQ(rneg64, -7);
  EXPECT_EQ(rcolour, Colour::kBlue);
}

TEST(Snapshot, IoDoubleTimeStringAndBytesMatchNamedPrimitives) {
  const double values[] = {-1.5e-300, -0.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()};
  const SimTime when = SimTime::ns(123456789);
  const std::string text = "hello \n world", empty;
  const std::vector<std::uint8_t> blob = {1, 2, 3, 255};
  const auto bytes = same_bytes(
      [&](SnapshotWriter& w) {
        for (const double& v : values) w.io(v);
        w.io(when, text, empty, blob);
      },
      [&](SnapshotWriter& w) {
        for (double v : values) w.f64(v);
        w.time(when);
        w.str(text);
        w.str(empty);
        w.byte_vec(blob);
      });

  SnapshotReader r(bytes);
  for (double v : values) {
    double got = 0;
    r.io(got);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(v));
  }
  SimTime rwhen;
  std::string rtext, rempty = "stale";
  std::vector<std::uint8_t> rblob = {9};
  r.io(rwhen, rtext, rempty, rblob);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(rwhen, when);
  EXPECT_EQ(rtext, text);
  EXPECT_EQ(rempty, "");
  EXPECT_EQ(rblob, blob);
}

TEST(Snapshot, BitVectorRoundTrip) {
  // The word boundary, a non-multiple-of-64 tail and two full words.
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
    BitVector v;
    for (std::size_t i = 0; i < n; ++i) v.push_back((i * 7 + 3) % 5 < 2);
    const auto bytes = same_bytes([&](SnapshotWriter& w) { w.io(v); },
                                  [&](SnapshotWriter& w) {
                                    // u64 bit count, then the packed words.
                                    w.u64(n);
                                    for (std::size_t i = 0; i < v.num_words();
                                         ++i) {
                                      w.u64(v.word(i));
                                    }
                                  });
    SnapshotReader r(bytes);
    BitVector out;
    out.push_back(true);  // must be cleared by the read
    r.io(out);
    EXPECT_TRUE(r.at_end());
    ASSERT_EQ(out.size(), v.size()) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], v[i]) << "n=" << n;
  }
}

TEST(Snapshot, IoOptionalLayouts) {
  const std::optional<std::uint32_t> some = 0xCAFEu, none;
  const std::optional<std::string> msg = std::string("ab"), no_msg;
  const auto item = [](SnapshotWriter& w) {
    return [&w](const std::string& m) { w.io(m); };
  };
  const auto bytes = same_bytes(
      [&](SnapshotWriter& w) {
        w.opt_or_zero(some);
        w.opt_or_zero(none);
        w.opt(msg, item(w));
        w.opt(no_msg, item(w));
      },
      [&](SnapshotWriter& w) {
        w.b(true);  // flag, then the value always
        w.u32(0xCAFEu);
        w.b(false);
        w.u32(0);
        w.b(true);  // flag, then the value only when present
        w.str("ab");
        w.b(false);
      });

  SnapshotReader r(bytes);
  std::optional<std::uint32_t> rsome, rnone = 5u;
  std::optional<std::string> rmsg, rno_msg = std::string("stale");
  const auto read = [&r](std::string& m) { r.io(m); };
  r.opt_or_zero(rsome);
  r.opt_or_zero(rnone);
  r.opt(rmsg, read);
  r.opt(rno_msg, read);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(rsome, some);
  EXPECT_EQ(rnone, std::nullopt);
  EXPECT_EQ(rmsg, msg);
  EXPECT_EQ(rno_msg, std::nullopt);
}

TEST(Snapshot, SaveRestoreSeq) {
  const std::vector<std::uint32_t> three = {5, 10, 15}, empty;
  const std::map<std::uint8_t, bool> flags = {{1, true}, {4, false}};
  const auto bytes = same_bytes(
      [&](SnapshotWriter& w) {
        const auto item = [&w](const std::uint32_t& v) { w.io(v); };
        w.seq(empty, item);
        w.seq(three, item);
        w.each(three, item);
        w.seq(flags, [&w](const auto& e) { w.io(e.first, e.second); });
      },
      [&](SnapshotWriter& w) {
        w.u32(0);
        for (int pass = 0; pass < 2; ++pass) {
          w.u32(3);
          for (std::uint32_t v : three) w.u32(v);
        }
        w.u32(2);
        w.u8(1);
        w.b(true);
        w.u8(4);
        w.b(false);
      });

  SnapshotReader r(bytes);
  const auto item = [&r](std::uint32_t& v) { r.io(v); };
  std::vector<std::uint32_t> rempty = {99}, rthree = {1};
  std::vector<std::uint32_t> fixed(3);
  std::map<std::uint8_t, bool> rflags = {{9, true}};
  r.seq(rempty, item);  // refills: stale content is dropped
  r.seq(rthree, item);
  r.each(fixed, item);  // fills in place
  r.seq(rflags, [&r](auto& e) { r.io(e.first, e.second); });
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(rempty.empty());
  EXPECT_EQ(rthree, three);
  EXPECT_EQ(fixed, three);
  EXPECT_EQ(rflags, flags);

  // each() keeps the container's size: a different saved count throws.
  SnapshotReader again(bytes);
  std::vector<std::uint32_t> unused;
  again.seq(unused, item);
  std::vector<std::uint32_t> two(2);
  EXPECT_THROW(again.each(two, item), SnapshotError);
}

/// A module whose layout is one templated body, as in src/: a section, a
/// nested module and a field behind an accessor pair.
class Probe {
 public:
  void save_state(SnapshotWriter& w) const { io(*this, w); }
  void restore_state(SnapshotReader& r) { io(*this, r); }

  std::uint16_t count = 0;
  Probe* inner = nullptr;
  std::uint32_t hidden() const { return hidden_; }
  void set_hidden(std::uint32_t v) { hidden_ = v; }

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.section(kTagA, [&] {
      a.io(s.count, prop(s, &Probe::hidden, &Probe::set_hidden));
      if (s.inner != nullptr) a.io(*s.inner);
    });
  }
  std::uint32_t hidden_ = 0;
};

TEST(Snapshot, IoOneBodyWritesAndReadsAModule) {
  Probe leaf, root;
  leaf.count = 3;
  leaf.set_hidden(0xFEED);
  root.count = 1;
  root.set_hidden(42);
  root.inner = &leaf;
  const auto bytes = same_bytes([&](SnapshotWriter& w) { root.save_state(w); },
                                [](SnapshotWriter& w) {
                                  w.begin_section(kTagA);
                                  w.u16(1);
                                  w.u32(42);
                                  w.begin_section(kTagA);
                                  w.u16(3);
                                  w.u32(0xFEED);
                                  w.end_section();
                                  w.end_section();
                                });

  Probe leaf2, root2;
  root2.inner = &leaf2;
  SnapshotReader r(bytes);
  root2.restore_state(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(root2.count, 1);
  EXPECT_EQ(root2.hidden(), 42u);
  EXPECT_EQ(leaf2.count, 3);
  EXPECT_EQ(leaf2.hidden(), 0xFEEDu);
}

TEST(Snapshot, IoTruncatedStreamThrows) {
  Probe leaf, root;
  root.inner = &leaf;
  root.set_hidden(7);
  SnapshotWriter w;
  root.save_state(w);
  const auto bytes = w.take();
  // Every proper prefix is rejected, whether by the checksum or by the
  // reads of the shared body.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + n);
    Probe leaf2, root2;
    root2.inner = &leaf2;
    EXPECT_THROW(
        {
          SnapshotReader r(cut);
          root2.restore_state(r);
        },
        SnapshotError)
        << "prefix " << n;
  }
  // A well-sealed stream whose payload ends before the body's fields do.
  SnapshotWriter short_w;
  short_w.begin_section(kTagA);
  short_w.u16(1);
  short_w.end_section();
  const auto short_bytes = short_w.take();
  SnapshotReader r(short_bytes);
  Probe p;
  EXPECT_THROW(p.restore_state(r), SnapshotError);
  // And a read past the end outside any section.
  SnapshotWriter tiny;
  tiny.u8(1);
  const auto tiny_bytes = tiny.take();
  SnapshotReader t(tiny_bytes);
  std::uint32_t v = 0;
  EXPECT_THROW(t.io(v), SnapshotError);
}

TEST(Snapshot, RejectsBadMagic) {
  SnapshotWriter w;
  auto bytes = w.take();
  bytes[0] ^= 0xFF;
  EXPECT_THROW(SnapshotReader r(bytes), SnapshotError);
}

TEST(Snapshot, RejectsVersionMismatch) {
  SnapshotWriter w;
  auto bytes = w.take();
  bytes[4] += 1;  // version is the second little-endian u32
  EXPECT_THROW(SnapshotReader r(bytes), SnapshotError);
}

TEST(Snapshot, RejectsWrongSectionTag) {
  SnapshotWriter w;
  w.begin_section(kTagA);
  w.end_section();
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  EXPECT_THROW(r.enter_section(kTagB), SnapshotError);
}

TEST(Snapshot, RejectsShortRead) {
  SnapshotWriter w;
  w.u16(42);
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  r.u16();
  EXPECT_THROW(r.u8(), SnapshotError);
}

TEST(Snapshot, RejectsReadPastSectionEnd) {
  SnapshotWriter w;
  w.begin_section(kTagA);
  w.u8(1);
  w.end_section();
  w.u64(0);  // data after the section must be unreachable from inside it
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  r.enter_section(kTagA);
  r.u8();
  EXPECT_THROW(r.u8(), SnapshotError);
}

TEST(Snapshot, RejectsUnderReadSection) {
  SnapshotWriter w;
  w.begin_section(kTagA);
  w.u32(1);
  w.end_section();
  const auto bytes = w.take();
  SnapshotReader r(bytes);
  r.enter_section(kTagA);
  // Leaving with unconsumed body bytes is a structural mismatch.
  EXPECT_THROW(r.leave_section(), SnapshotError);
}

TEST(Snapshot, TakeRejectsUnclosedSection) {
  SnapshotWriter w;
  w.begin_section(kTagA);
  EXPECT_THROW(w.take(), SnapshotError);
}

TEST(Snapshot, WriteIsByteStable) {
  // Two writers fed the same values must produce identical streams --
  // the property every round-trip golden ultimately reduces to.
  auto make = [] {
    SnapshotWriter w;
    w.begin_section(kTagA);
    w.u64(99);
    w.f64(3.25);
    w.str("stable");
    w.end_section();
    return w.take();
  };
  EXPECT_EQ(make(), make());
}

}  // namespace
}  // namespace btsc::sim
