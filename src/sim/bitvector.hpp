// BitVector: a sequence of bits in air (transmission) order, packed into
// 64-bit words.
//
// Bluetooth transmits the least significant bit of every field first; all
// composers/parsers in this repository therefore agree on the convention
// that bit 0 of a BitVector is the first bit on air and that
// append_uint()/extract_uint() are LSB-first. Bit i lives in word i/64 at
// bit position i%64, so a word read IS an LSB-first 64-bit field extract
// -- the layout the whitener, CRC, FEC and sync-correlator word paths
// rely on.
//
// The accessors (operator[], get_unchecked, word/extract_word, xor_word,
// append_range) are unchecked: assert-guarded in debug builds, free in
// Release.
//
// Invariant: the unused high bits of the last storage word are zero, so
// whole-word equality needs no tail masking.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace btsc::sim {

class BitVector {
 public:
  /// Bits per storage word.
  static constexpr std::size_t kWordBits = 64;

  BitVector() = default;
  explicit BitVector(std::size_t n, bool value = false)
      : words_(word_count(n), value ? ~0ull : 0ull), size_(n) {
    const unsigned off = static_cast<unsigned>(n % kWordBits);
    if (value && off != 0) words_.back() &= (1ull << off) - 1;
  }

  std::size_t size() const { return size_; }
  void reserve(std::size_t n) { words_.reserve(word_count(n)); }

  /// Drops all bits but keeps the storage capacity (hot-path reset).
  void clear() {
    words_.clear();
    size_ = 0;
  }

  bool operator[](std::size_t i) const { return get_unchecked(i); }

  bool get_unchecked(std::size_t i) const {
    assert(i < size_ && "BitVector: index out of range");
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  /// i-th storage word; bit b of the result is bit i*64+b of the vector.
  std::uint64_t word(std::size_t i) const {
    assert(i < words_.size() && "BitVector: word index out of range");
    return words_[i];
  }

  std::size_t num_words() const { return words_.size(); }

  /// Unchecked LSB-first read of `nbits` (<= 64) starting at `pos`;
  /// requires the range to be in bounds (debug assert).
  std::uint64_t extract_word(std::size_t pos, unsigned nbits = 64) const {
    assert(nbits <= 64 && pos + nbits <= size_ &&
           "BitVector::extract_word out of range");
    if (nbits == 0) return 0;
    const std::size_t w = pos / kWordBits;
    const unsigned off = static_cast<unsigned>(pos % kWordBits);
    std::uint64_t v = words_[w] >> off;
    if (off != 0 && w + 1 < words_.size()) {
      v |= words_[w + 1] << (kWordBits - off);
    }
    if (nbits < 64) v &= (1ull << nbits) - 1;
    return v;
  }

  // ---- growth ----

  void push_back(bool b) {
    const unsigned off = static_cast<unsigned>(size_ % kWordBits);
    if (off == 0) words_.push_back(0);
    if (b) words_.back() |= 1ull << off;
    ++size_;
  }

  /// Appends the low `nbits` of `value`, LSB first (air order).
  void append_uint(std::uint64_t value, unsigned nbits) {
    assert(nbits <= 64);
    if (nbits == 0) return;
    if (nbits < 64) value &= (1ull << nbits) - 1;
    const unsigned off = static_cast<unsigned>(size_ % kWordBits);
    if (off == 0) {
      words_.push_back(value);
    } else {
      words_.back() |= value << off;
      if (nbits > kWordBits - off) {
        words_.push_back(value >> (kWordBits - off));
      }
    }
    size_ += nbits;
  }

  void append(const BitVector& other) { append_range(other, 0, other.size_); }

  /// Appends bits [pos, pos+len) of `src` (unchecked; debug assert).
  /// `&src == this` is allowed only for non-overlapping semantics via the
  /// word walk below reading ahead of the write frontier -- callers in
  /// this repository never self-append, so we simply assert.
  void append_range(const BitVector& src, std::size_t pos, std::size_t len) {
    assert(pos + len <= src.size_ && "BitVector::append_range out of range");
    assert(this != &src && "BitVector::append_range: self-append");
    std::size_t done = 0;
    while (done < len) {
      const unsigned chunk =
          static_cast<unsigned>(len - done < 64 ? len - done : 64);
      append_uint(src.extract_word(pos + done, chunk), chunk);
      done += chunk;
    }
  }

  /// XORs `stream` (LSB-first, `nbits` <= 64) onto the bits starting at
  /// `pos` (unchecked; debug assert). The whitener word path.
  void xor_word(std::size_t pos, std::uint64_t stream, unsigned nbits) {
    assert(nbits <= 64 && pos + nbits <= size_ &&
           "BitVector::xor_word out of range");
    if (nbits == 0) return;
    if (nbits < 64) stream &= (1ull << nbits) - 1;
    const std::size_t w = pos / kWordBits;
    const unsigned off = static_cast<unsigned>(pos % kWordBits);
    words_[w] ^= stream << off;
    if (off != 0 && nbits > kWordBits - off) {
      words_[w + 1] ^= stream >> (kWordBits - off);
    }
  }

  /// Whole-word comparison; valid because tail bits are kept zero.
  friend bool operator==(const BitVector&, const BitVector&) = default;

 private:
  static std::size_t word_count(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace btsc::sim
