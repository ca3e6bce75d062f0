// Snapshot: versioned tagged byte streams for checkpointing a simulation.
//
// A snapshot is the serialized MUTABLE state of a simulation at a settled
// instant (between run() calls, no callback running). Restoring never
// rebuilds the object graph: the caller constructs the scenario through
// its ordinary deterministic construction path and then overwrites every
// mutable field from the byte stream. Pointers therefore never enter a
// snapshot -- connections between modules are structural and re-created
// by construction; pending timers are saved as re-armable descriptors
// (see Environment::save_state) rather than as closures.
//
// One layout, written once
// ------------------------
// A section's layout is stated in exactly one place: a templated body
// `template <class Self, class Ar> static void io(Self& s, Ar& a)` that
// names each field once. SnapshotWriter and SnapshotReader share one
// overload set -- io(), section(), seq(), each(), opt(), opt_or_zero()
// -- so the same body writes when Ar is the writer (Self const) and
// reads when it is the reader. save_state() and restore_state() stay the
// public entry points and call that body; restore_state adds only what a
// load needs beyond the fields -- range checks, re-linking derived
// state, resetting timer ids and callbacks -- after it, and save_state
// only refusals (e.g. an unsnapshotable live callback) before it.
//
// Two tables stay hand-written as save/restore pairs, because the two
// directions do different work: Environment's timer descriptors (save
// collects and orders them from the live queue, restore validates each
// and replays it through its owner's rearm handler) and NoisyChannel's
// burst-run table (save walks the active runs, restore range-checks each
// port and frequency and re-claims it).
//
// Stream format
// -------------
//   "BTSC" magic, u32 version, then a sequence of nested sections. Each
//   section is a u32 tag (fourcc, e.g. "ENV ") + u32 byte length + body.
//   All integers are little-endian and fixed-width, doubles travel as
//   their IEEE-754 bit pattern, so a snapshot is byte-stable across runs
//   and platforms of the same endianness class -- the property the
//   round-trip golden tests (save -> restore -> save, byte-equal) and the
//   forked-vs-cold sweep gates assert.
//
// Error model: SnapshotReader throws SnapshotError on any mismatch (bad
// magic/version/tag, short read, trailing bytes in a section, corrupted
// payload). The stream carries a trailing FNV-1a checksum over every
// preceding byte, verified before any field is consumed -- a truncated
// or bit-flipped image always throws instead of silently restoring
// wrong state (property-tested by sim_test_snapshot_fuzz). A snapshot
// is only ever read by the build that wrote it (in-memory fork images),
// so there is no cross-version migration -- the version bump is a guard,
// not a compatibility scheme.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/bitvector.hpp"
#include "sim/time.hpp"

namespace btsc::sim {

inline constexpr std::uint32_t kSnapshotMagic = 0x42545343u;    // "BTSC"
inline constexpr std::uint32_t kSnapshotVersion = 7;

/// FNV-1a 64-bit hash of `n` bytes; the snapshot integrity checksum.
inline std::uint64_t snapshot_checksum(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Builds a section tag from a 4-character literal ("ENV ").
constexpr std::uint32_t snapshot_tag(const char (&s)[5]) {
  return static_cast<std::uint32_t>(s[0]) |
         (static_cast<std::uint32_t>(s[1]) << 8) |
         (static_cast<std::uint32_t>(s[2]) << 16) |
         (static_cast<std::uint32_t>(s[3]) << 24);
}

class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---- field wrappers for the shared io() bodies -----------------------------

/// A field stored as wire type W (an `int` as u32, an enum as u8): the
/// writer stores static_cast<W>(v), the reader casts the wire value back.
template <class W, class T>
struct As {
  T& v;
};
template <class W, class T>
As<W, T> as(T& v) {
  return {v};
}

/// A field reached through an accessor pair: the writer stores
/// get(obj); the reader reads a value of that type and calls
/// set(obj, value). `set` is never called on the writer's const object.
template <class T, class Get, class Set>
struct Prop {
  T& obj;
  Get get;
  Set set;
};
template <class T, class Get, class Set>
Prop<T, Get, Set> prop(T& obj, Get get, Set set) {
  return {obj, get, set};
}

/// Serializes state into a tagged byte stream.
class SnapshotWriter {
 public:
  SnapshotWriter() {
    buf_.reserve(256);  // header + small streams without regrowth
    u32(kSnapshotMagic);
    u32(kSnapshotVersion);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void time(SimTime t) { u64(t.as_ns()); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const std::uint8_t* p, std::size_t n) {
    u32(static_cast<std::uint32_t>(n));
    buf_.insert(buf_.end(), p, p + n);
  }
  void byte_vec(const std::vector<std::uint8_t>& v) {
    bytes(v.data(), v.size());
  }

  // ---- the shared overload set (mirrored by SnapshotReader) ----
  void io(const bool& v) { b(v); }
  void io(const std::uint8_t& v) { u8(v); }
  void io(const std::uint16_t& v) { u16(v); }
  void io(const std::uint32_t& v) { u32(v); }
  void io(const std::uint64_t& v) { u64(v); }
  void io(const double& v) { f64(v); }
  void io(const SimTime& v) { time(v); }
  void io(const std::string& v) { str(v); }
  void io(const std::vector<std::uint8_t>& v) { byte_vec(v); }
  /// u64 bit count, then the packed words (the tail word zero-padded).
  void io(const BitVector& v) {
    u64(v.size());
    for (std::size_t i = 0; i < v.num_words(); ++i) u64(v.word(i));
  }
  template <class T, std::size_t N>
  void io(const std::array<T, N>& v) {
    for (const T& e : v) io(e);
  }
  template <class W, class T>
  void io(const As<W, T>& f) {
    io(static_cast<W>(f.v));
  }
  template <class T, class Get, class Set>
  void io(const Prop<T, Get, Set>& p) {
    io(std::invoke(p.get, std::as_const(p.obj)));
  }
  /// A nested module, through its own save_state.
  template <class T>
    requires requires(const T& t, SnapshotWriter& w) { t.save_state(w); }
  void io(const T& v) {
    v.save_state(*this);
  }
  /// Several fields, in order.
  template <class... T>
    requires(sizeof...(T) > 1)
  void io(const T&... fields) {
    (io(fields), ...);
  }

  /// A tagged section around `body()`.
  template <class F>
  void section(std::uint32_t tag, F&& body) {
    begin_section(tag);
    body();
    end_section();
  }
  /// A counted sequence: u32 count, then item(e) for each element.
  template <class C, class F>
  void seq(const C& c, F&& item) {
    u32(static_cast<std::uint32_t>(c.size()));
    for (const auto& e : c) item(e);
  }
  /// Same layout as seq(); the reader fills a fixed-size container in
  /// place instead of refilling it.
  template <class C, class F>
  void each(const C& c, F&& item) {
    seq(c, item);
  }
  /// Optional, value always present: the flag, then the value or T{}.
  template <class T>
  void opt_or_zero(const std::optional<T>& v) {
    b(v.has_value());
    io(v.value_or(T{}));
  }
  /// Optional, value only if present: the flag, then item(*v).
  template <class T, class F>
  void opt(const std::optional<T>& v, F&& item) {
    b(v.has_value());
    if (v) item(*v);
  }

  /// Opens a tagged section; close with end_section(). Sections nest.
  void begin_section(std::uint32_t tag) {
    u32(tag);
    open_.push_back(buf_.size());
    u32(0);  // length placeholder, patched by end_section
  }
  void end_section() {
    const std::size_t at = open_.back();
    open_.pop_back();
    const auto len = static_cast<std::uint32_t>(buf_.size() - at - 4);
    std::memcpy(buf_.data() + at, &len, 4);
  }

  /// The finished stream, sealed with the trailing integrity checksum.
  /// Every begin_section must have been closed.
  std::vector<std::uint8_t> take() {
    if (!open_.empty()) throw SnapshotError("snapshot: unclosed section");
    u64(snapshot_checksum(buf_.data(), buf_.size()));
    return std::move(buf_);
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> open_;
};

/// Reads a stream produced by SnapshotWriter, validating structure.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::vector<std::uint8_t>& data)
      : data_(data.data()), size_(data.size()) {
    if (u32() != kSnapshotMagic) throw SnapshotError("snapshot: bad magic");
    if (const std::uint32_t v = u32(); v != kSnapshotVersion) {
      throw SnapshotError("snapshot: version mismatch: " + std::to_string(v));
    }
    // Verify the trailing checksum before any field is consumed, then
    // hide it from the payload view: a truncated or bit-flipped stream
    // must throw here rather than restore corrupted state downstream.
    if (size_ - pos_ < 8) throw SnapshotError("snapshot: short read");
    std::uint64_t want;
    std::memcpy(&want, data_ + size_ - 8, 8);
    if (snapshot_checksum(data_, size_ - 8) != want) {
      throw SnapshotError("snapshot: checksum mismatch");
    }
    size_ -= 8;
  }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() { return raw16(); }
  std::uint32_t u32() { return raw32(); }
  std::uint64_t u64() { return raw64(); }
  bool b() { return u8() != 0; }
  double f64() { return std::bit_cast<double>(u64()); }
  SimTime time() { return SimTime::ns(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> byte_vec() {
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::uint8_t> v(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return v;
  }

  // ---- the shared overload set (see SnapshotWriter) ----
  void io(bool& v) { v = b(); }
  void io(std::uint8_t& v) { v = u8(); }
  void io(std::uint16_t& v) { v = u16(); }
  void io(std::uint32_t& v) { v = u32(); }
  void io(std::uint64_t& v) { v = u64(); }
  void io(double& v) { v = f64(); }
  void io(SimTime& v) { v = time(); }
  void io(std::string& v) { v = str(); }
  void io(std::vector<std::uint8_t>& v) { v = byte_vec(); }
  void io(BitVector& v) {
    const std::uint64_t n = u64();
    v.clear();
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t done = 0; done < n; done += 64) {
      const auto chunk = static_cast<unsigned>(n - done < 64 ? n - done : 64);
      v.append_uint(u64(), chunk);
    }
  }
  template <class T, std::size_t N>
  void io(std::array<T, N>& v) {
    for (T& e : v) io(e);
  }
  template <class W, class T>
  void io(const As<W, T>& f) {
    W w{};
    io(w);
    f.v = static_cast<T>(w);
  }
  template <class T, class Get, class Set>
  void io(const Prop<T, Get, Set>& p) {
    std::remove_cvref_t<std::invoke_result_t<Get&, const T&>> v{};
    io(v);
    std::invoke(p.set, p.obj, std::move(v));
  }
  template <class T>
    requires requires(T& t, SnapshotReader& r) { t.restore_state(r); }
  void io(T& v) {
    v.restore_state(*this);
  }
  template <class... T>
    requires(sizeof...(T) > 1)
  void io(T&&... fields) {
    (io(std::forward<T>(fields)), ...);
  }

  template <class F>
  void section(std::uint32_t tag, F&& body) {
    enter_section(tag);
    body();
    leave_section();
  }
  /// Clears `c`, then appends one element per saved item; a map gets
  /// (key, value) pairs.
  template <class C, class F>
  void seq(C& c, F&& item) {
    c.clear();
    for (std::uint32_t n = u32(); n > 0; --n) {
      if constexpr (requires { typename C::mapped_type; }) {
        std::pair<typename C::key_type, typename C::mapped_type> e;
        item(e);
        c.insert_or_assign(std::move(e.first), std::move(e.second));
      } else {
        item(c.emplace_back());
      }
    }
  }
  /// The saved count must equal c.size(); elements are read in place.
  template <class C, class F>
  void each(C& c, F&& item) {
    if (u32() != c.size()) {
      throw SnapshotError("snapshot: sequence length mismatch");
    }
    for (auto& e : c) item(e);
  }
  template <class T>
  void opt_or_zero(std::optional<T>& v) {
    const bool have = b();
    T value{};
    io(value);
    v = have ? std::optional<T>(value) : std::nullopt;
  }
  template <class T, class F>
  void opt(std::optional<T>& v, F&& item) {
    if (b()) {
      item(v.emplace());
    } else {
      v.reset();
    }
  }

  /// Enters a section, checking its tag; leave with leave_section(),
  /// which verifies the body was consumed exactly.
  void enter_section(std::uint32_t tag) {
    const std::uint32_t got = u32();
    if (got != tag) {
      throw SnapshotError("snapshot: section tag mismatch (want " +
                          tag_name(tag) + ", got " + tag_name(got) + ")");
    }
    const std::uint32_t len = u32();
    need(len);
    ends_.push_back(pos_ + len);
  }
  void leave_section() {
    const std::size_t end = ends_.back();
    ends_.pop_back();
    if (pos_ != end) {
      throw SnapshotError("snapshot: section length mismatch");
    }
  }

  bool at_end() const { return pos_ == size_; }

 private:
  static std::string tag_name(std::uint32_t tag) {
    std::string s(4, '?');
    for (int i = 0; i < 4; ++i) {
      const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
      s[static_cast<std::size_t>(i)] = (c >= 32 && c < 127) ? c : '?';
    }
    return s;
  }

  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw SnapshotError("snapshot: short read");
    if (!ends_.empty() && pos_ + n > ends_.back()) {
      throw SnapshotError("snapshot: read past section end");
    }
  }
  std::uint16_t raw16() {
    need(2);
    std::uint16_t v;
    std::memcpy(&v, data_ + pos_, 2);
    pos_ += 2;
    return v;
  }
  std::uint32_t raw32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, data_ + pos_, 4);
    pos_ += 4;
    return v;
  }
  std::uint64_t raw64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, data_ + pos_, 8);
    pos_ += 8;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> ends_;
};

/// A stateful layer that can checkpoint its mutable state. Contract:
/// save_state at a settled instant, restore_state into a freshly
/// constructed twin of the same scenario (same construction path), in
/// the same relative order within the containing aggregate.
class Snapshotable {
 public:
  virtual ~Snapshotable() = default;
  virtual void save_state(SnapshotWriter& w) const = 0;
  virtual void restore_state(SnapshotReader& r) = 0;
};

/// Re-creates pending timers from their saved descriptors. A module that
/// schedules descriptor-tagged timers registers one of these with the
/// Environment under a stable name (Environment::register_rearm); on
/// restore the kernel replays every live descriptor, in the saved seq
/// order, through its owner's handler. The handler must schedule exactly
/// one timer, through the same tagged-schedule path the original call
/// used, to fire at absolute time `when`.
class RearmHandler {
 public:
  virtual ~RearmHandler() = default;
  virtual void rearm_timer(std::uint16_t kind, std::uint64_t payload,
                           SimTime when) = 0;
};

}  // namespace btsc::sim
