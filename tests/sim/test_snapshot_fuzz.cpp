// Property/fuzz corpus for the snapshot codec: a truncated, bit-flipped
// or otherwise mangled image must ALWAYS be rejected with SnapshotError
// -- never crash, never restore wrong state silently. The trailing
// FNV-1a checksum (snapshot_checksum, verified before any field is
// consumed) is what makes the property total: structural validation
// alone cannot see a flipped payload byte. Runs under ASan+UBSan in
// scripts/ci.sh, where "never crash" is actually enforced.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "sim/checkpoint_store.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"

namespace btsc::sim {
namespace {

/// A hand-built stream exercising every writer primitive and nesting.
std::vector<std::uint8_t> crafted_stream() {
  SnapshotWriter w;
  w.begin_section(snapshot_tag("OUTR"));
  w.u8(7);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.b(true);
  w.f64(3.14159);
  w.time(SimTime::us(625));
  w.str("fuzz corpus");
  w.begin_section(snapshot_tag("INNR"));
  BitVector bits;
  for (int i = 0; i < 130; ++i) bits.push_back((i % 3) == 0);
  w.io(bits);
  w.end_section();
  w.end_section();
  return w.take();
}

core::SystemConfig fuzz_system_config() {
  core::SystemConfig sc;
  sc.num_slaves = 2;
  sc.ber = 1.0 / 80;
  sc.seed = 424242;
  return sc;
}

/// A real system image: master + 2 slaves under noise, mid-inquiry.
/// A checkpoint is only legal when no completion callback is in flight
/// (Radio::save_state throws); nudge forward until the stream closes.
std::vector<std::uint8_t> system_stream() {
  core::BluetoothSystem sys(fuzz_system_config());
  sys.slave(0).lc().enable_inquiry_scan();
  sys.slave(1).lc().enable_inquiry_scan();
  sys.master().lc().enable_inquiry();
  sys.run(SimTime::ms(100));
  for (int step = 0; step < 64; ++step) {
    try {
      return sys.save_snapshot();
    } catch (const SnapshotError&) {
      sys.run(SimTime::us(25));
    }
  }
  return sys.save_snapshot();
}

/// True when `bytes` is rejected with SnapshotError by both the raw
/// reader and (when a system template is given) a full system restore.
/// Any other outcome -- success, a different exception, a crash -- fails
/// the property.
void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     core::BluetoothSystem* twin) {
  bool threw = false;
  try {
    SnapshotReader r(bytes);
    // If header+checksum somehow validated, structural reads must
    // still throw before the stream is accepted.
    while (!r.at_end()) (void)r.u8();
    // Consuming every byte without error means the reader accepted a
    // mangled image -- only possible if the mutation was a no-op.
  } catch (const SnapshotError&) {
    threw = true;
  }
  EXPECT_TRUE(threw) << "raw reader accepted a mangled image";
  if (twin != nullptr) {
    EXPECT_THROW(twin->restore_snapshot(bytes), SnapshotError)
        << "system restore accepted a mangled image";
  }
}

TEST(SnapshotFuzzTest, IntactStreamsRoundTrip) {
  const auto crafted = crafted_stream();
  SnapshotReader r(crafted);
  r.enter_section(snapshot_tag("OUTR"));
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u16(), 0x1234u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.time(), SimTime::us(625));
  EXPECT_EQ(r.str(), "fuzz corpus");
  r.enter_section(snapshot_tag("INNR"));
  BitVector bits;
  r.io(bits);
  EXPECT_EQ(bits.size(), 130u);
  r.leave_section();
  r.leave_section();
  EXPECT_TRUE(r.at_end());

  // And the system image restores cleanly into a twin when unmangled.
  const auto snap = system_stream();
  core::BluetoothSystem twin(fuzz_system_config());
  twin.restore_snapshot(snap);
  EXPECT_EQ(twin.save_snapshot(), snap);
}

TEST(SnapshotFuzzTest, EveryTruncationThrows) {
  const auto crafted = crafted_stream();
  for (std::size_t len = 0; len < crafted.size(); ++len) {
    std::vector<std::uint8_t> cut(crafted.begin(),
                                  crafted.begin() +
                                      static_cast<std::ptrdiff_t>(len));
    expect_rejected(cut, nullptr);
  }
}

TEST(SnapshotFuzzTest, SystemImageTruncationsThrow) {
  const auto snap = system_stream();
  core::BluetoothSystem twin(fuzz_system_config());
  // Deterministic sample of cut points (every length would be slow on
  // a multi-KB image under sanitizers): all short prefixes, then a
  // pseudo-random spread across the body.
  Rng rng(1);
  std::vector<std::size_t> cuts;
  for (std::size_t len = 0; len < 24 && len < snap.size(); ++len) {
    cuts.push_back(len);
  }
  for (int i = 0; i < 200; ++i) {
    cuts.push_back(static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::uint64_t>(snap.size() - 1))));
  }
  for (std::size_t len : cuts) {
    std::vector<std::uint8_t> cut(snap.begin(),
                                  snap.begin() +
                                      static_cast<std::ptrdiff_t>(len));
    expect_rejected(cut, &twin);
  }
  // The twin must still be usable after every rejected restore.
  twin.restore_snapshot(snap);
  EXPECT_EQ(twin.save_snapshot(), snap);
}

TEST(SnapshotFuzzTest, EveryBitFlipThrows) {
  const auto crafted = crafted_stream();
  for (std::size_t byte = 0; byte < crafted.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mangled = crafted;
      mangled[byte] ^= static_cast<std::uint8_t>(1u << bit);
      expect_rejected(mangled, nullptr);
    }
  }
}

TEST(SnapshotFuzzTest, SystemImageBitFlipsThrow) {
  const auto snap = system_stream();
  core::BluetoothSystem twin(fuzz_system_config());
  Rng rng(2);
  for (int i = 0; i < 400; ++i) {
    auto mangled = snap;
    const auto byte = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::uint64_t>(snap.size() - 1)));
    mangled[byte] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    expect_rejected(mangled, &twin);
  }
  twin.restore_snapshot(snap);
  EXPECT_EQ(twin.save_snapshot(), snap);
}

// ---- file-backed corpus (sim/checkpoint_store) ------------------------
//
// The durable checkpoint layer wraps a system image in a recipe-carrying
// outer stream and reads it back from disk. The same total-rejection
// property must hold against on-disk damage: truncated files, short
// reads, torn headers, flipped bytes and stale-version recipes all
// surface as SnapshotError, and the in-memory scaffold stays usable.

/// A checkpoint file wrapping the real system image, as the warm-up
/// store writes it.
CheckpointFile fuzz_checkpoint() {
  CheckpointFile f;
  f.scenario = "fuzz";
  f.point_index = 1;
  f.warm_seed = 0xFEEDF00Dull;
  f.construction_seed = 0xBADC0FFEull;
  f.config = {0x10, 0x20, 0x30};
  f.snapshot = system_stream();
  return f;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// True when loading `path` is rejected with SnapshotError and the twin
/// system remains restorable afterwards.
void expect_file_rejected(const std::string& path,
                          core::BluetoothSystem* twin,
                          const std::vector<std::uint8_t>& good_snap) {
  EXPECT_THROW(load_checkpoint_file(path), SnapshotError);
  if (twin != nullptr) {
    twin->restore_snapshot(good_snap);
    EXPECT_EQ(twin->save_snapshot(), good_snap);
  }
}

TEST(SnapshotFuzzTest, FileBackedIntactRoundTrip) {
  const std::string path = testing::TempDir() + "fuzz-intact.ckpt";
  const CheckpointFile f = fuzz_checkpoint();
  write_checkpoint_file(path, f);
  const CheckpointFile loaded = load_checkpoint_file(path);
  EXPECT_EQ(loaded.snapshot, f.snapshot);
  // The embedded image is a real snapshot: it must restore.
  core::BluetoothSystem twin(fuzz_system_config());
  twin.restore_snapshot(loaded.snapshot);
  EXPECT_EQ(twin.save_snapshot(), f.snapshot);
  std::remove(path.c_str());
}

TEST(SnapshotFuzzTest, FileBackedTruncationsThrow) {
  const std::string path = testing::TempDir() + "fuzz-trunc.ckpt";
  const CheckpointFile f = fuzz_checkpoint();
  const std::vector<std::uint8_t> bytes = encode_checkpoint_file(f);
  core::BluetoothSystem twin(fuzz_system_config());
  // All short prefixes (torn header / short read territory), then a
  // deterministic spread of cuts across the body.
  Rng rng(3);
  std::vector<std::size_t> cuts;
  for (std::size_t len = 0; len < 32 && len < bytes.size(); ++len) {
    cuts.push_back(len);
  }
  for (int i = 0; i < 120; ++i) {
    cuts.push_back(static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::uint64_t>(bytes.size() - 1))));
  }
  for (std::size_t len : cuts) {
    write_bytes(path, {bytes.begin(),
                       bytes.begin() + static_cast<std::ptrdiff_t>(len)});
    expect_file_rejected(path, &twin, f.snapshot);
  }
  std::remove(path.c_str());
}

TEST(SnapshotFuzzTest, FileBackedBitFlipsThrow) {
  const std::string path = testing::TempDir() + "fuzz-flip.ckpt";
  const CheckpointFile f = fuzz_checkpoint();
  const std::vector<std::uint8_t> bytes = encode_checkpoint_file(f);
  core::BluetoothSystem twin(fuzz_system_config());
  Rng rng(4);
  for (int i = 0; i < 150; ++i) {
    auto mangled = bytes;
    const auto byte = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::uint64_t>(bytes.size() - 1)));
    mangled[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    write_bytes(path, mangled);
    expect_file_rejected(path, &twin, f.snapshot);
  }
  std::remove(path.c_str());
}

TEST(SnapshotFuzzTest, FileBackedStaleVersionRecipeThrows) {
  const std::string path = testing::TempDir() + "fuzz-stale.ckpt";
  core::BluetoothSystem twin(fuzz_system_config());
  CheckpointFile f = fuzz_checkpoint();
  const std::vector<std::uint8_t> good = f.snapshot;
  for (std::uint32_t version :
       {kSnapshotVersion - 1, kSnapshotVersion + 1, 0u, 0xFFFFFFFFu}) {
    f.snapshot_version = version;
    write_bytes(path, encode_checkpoint_file(f));
    expect_file_rejected(path, &twin, good);
  }
  std::remove(path.c_str());
}

TEST(SnapshotFuzzTest, TrailingGarbageThrows) {
  auto crafted = crafted_stream();
  crafted.push_back(0x5A);
  expect_rejected(crafted, nullptr);
  auto snap = system_stream();
  snap.insert(snap.end(), {1, 2, 3, 4});
  core::BluetoothSystem twin(fuzz_system_config());
  expect_rejected(snap, &twin);
}

}  // namespace
}  // namespace btsc::sim
