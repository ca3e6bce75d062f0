// SweepJournal: fresh/resume open semantics, durable record round trip,
// configuration binding, and torn-tail recovery.
#include "runner/journal.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/snapshot.hpp"

namespace btsc::runner {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

JournalConfig sample_config() {
  JournalConfig c;
  c.scenario = "fig08";
  c.base_seed = 1000;
  c.replications = 6;
  c.points = 8;
  c.quick = true;
  c.max_points = 0;
  c.common_random_numbers = false;
  c.staged_warmup = false;
  return c;
}

std::vector<std::uint8_t> sample_bytes(std::uint8_t tag) {
  return {tag, 0x01, 0x02, 0x03};
}

off_t file_size(const std::string& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  return st.st_size;
}

TEST(JournalTest, AppendAndResumeRoundTrip) {
  const std::string path = temp_path("roundtrip.journal");
  {
    SweepJournal j(path, sample_config(), /*resume=*/false);
    EXPECT_EQ(j.completed_count(), 0u);
    j.append(2, 5, 0xABCDull, sample_bytes(0x11));
    j.append(0, 0, 0x1234ull, sample_bytes(0x22));
  }
  SweepJournal j(path, sample_config(), /*resume=*/true);
  EXPECT_EQ(j.completed_count(), 2u);
  ASSERT_NE(j.completed(2, 5), nullptr);
  EXPECT_EQ(j.completed(2, 5)->seed, 0xABCDull);
  EXPECT_EQ(j.completed(2, 5)->sample, sample_bytes(0x11));
  ASSERT_NE(j.completed(0, 0), nullptr);
  EXPECT_EQ(j.completed(0, 0)->seed, 0x1234ull);
  EXPECT_EQ(j.completed(1, 1), nullptr);
  std::remove(path.c_str());
}

TEST(JournalTest, FreshOpenRefusesExistingFile) {
  const std::string path = temp_path("exists.journal");
  { SweepJournal j(path, sample_config(), false); }
  EXPECT_THROW(SweepJournal(path, sample_config(), false), JournalError);
  std::remove(path.c_str());
}

TEST(JournalTest, ResumeOfMissingFileStartsFresh) {
  const std::string path = temp_path("fresh-resume.journal");
  SweepJournal j(path, sample_config(), /*resume=*/true);
  EXPECT_EQ(j.completed_count(), 0u);
  std::remove(path.c_str());
}

TEST(JournalTest, ConfigurationMismatchThrows) {
  const std::string path = temp_path("config.journal");
  { SweepJournal j(path, sample_config(), false); }
  for (int field = 0; field < 8; ++field) {
    JournalConfig c = sample_config();
    switch (field) {
      case 0: c.scenario = "fig10"; break;
      case 1: c.base_seed = 1001; break;
      case 2: c.replications = 7; break;
      case 3: c.points = 9; break;
      case 4: c.quick = false; break;
      case 5: c.max_points = 4; break;
      case 6: c.common_random_numbers = true; break;
      case 7: c.staged_warmup = true; break;
    }
    EXPECT_THROW(SweepJournal(path, c, true), JournalError)
        << "field " << field;
  }
  std::remove(path.c_str());
}

TEST(JournalTest, TornTailIsTruncatedAndResumable) {
  const std::string path = temp_path("torn.journal");
  {
    SweepJournal j(path, sample_config(), false);
    j.append(0, 0, 1, sample_bytes(0x01));
    j.append(0, 1, 2, sample_bytes(0x02));
    j.append(0, 2, 3, sample_bytes(0x03));
  }
  const off_t full = file_size(path);

  // Tear the file at every byte boundary inside the final record: the
  // first two records must survive, the torn third must vanish, and the
  // journal must accept appends again afterwards.
  std::vector<char> bytes(static_cast<std::size_t>(full));
  {
    std::ifstream in(path, std::ios::binary);
    in.read(bytes.data(), full);
  }
  off_t two_records = -1;
  for (off_t cut = full - 1; cut > 0; --cut) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), cut);
    out.close();
    SweepJournal j(path, sample_config(), true);
    if (j.completed_count() == 3) break;  // cut landed past record 3
    if (j.completed_count() < 2) {
      two_records = cut;  // reached tears into record 2; stop scanning
      break;
    }
    EXPECT_EQ(j.completed_count(), 2u) << "cut at " << cut;
    EXPECT_NE(j.completed(0, 0), nullptr);
    EXPECT_NE(j.completed(0, 1), nullptr);
    EXPECT_EQ(j.completed(0, 2), nullptr);
  }
  EXPECT_GT(two_records, 0);  // the scan did reach record 2's territory

  // After a torn-tail truncation, appending and re-resuming works.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), full - 2);
  out.close();
  {
    SweepJournal j(path, sample_config(), true);
    EXPECT_EQ(j.completed_count(), 2u);
    j.append(0, 2, 3, sample_bytes(0x33));
  }
  SweepJournal j(path, sample_config(), true);
  EXPECT_EQ(j.completed_count(), 3u);
  ASSERT_NE(j.completed(0, 2), nullptr);
  EXPECT_EQ(j.completed(0, 2)->sample, sample_bytes(0x33));
  std::remove(path.c_str());
}

TEST(JournalTest, CorruptedRecordTruncatesFromThere) {
  const std::string path = temp_path("corrupt.journal");
  {
    SweepJournal j(path, sample_config(), false);
    j.append(0, 0, 1, sample_bytes(0x01));
  }
  const off_t with_one = file_size(path);
  {
    SweepJournal j(path, sample_config(), true);
    j.append(0, 1, 2, sample_bytes(0x02));
  }
  // Flip a byte inside record 2's payload (past the length prefix).
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(with_one + 8);
    char c;
    f.seekg(with_one + 8);
    f.get(c);
    f.seekp(with_one + 8);
    f.put(static_cast<char>(c ^ 0x40));
  }
  SweepJournal j(path, sample_config(), true);
  EXPECT_EQ(j.completed_count(), 1u);
  EXPECT_NE(j.completed(0, 0), nullptr);
  EXPECT_EQ(j.completed(0, 1), nullptr);
  EXPECT_EQ(file_size(path), with_one);  // corrupt tail severed
  std::remove(path.c_str());
}

TEST(JournalTest, TornHeaderThrows) {
  const std::string path = temp_path("torn-header.journal");
  { SweepJournal j(path, sample_config(), false); }
  const off_t full = file_size(path);
  std::vector<char> bytes(static_cast<std::size_t>(full));
  {
    std::ifstream in(path, std::ios::binary);
    in.read(bytes.data(), full);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), full / 2);
  out.close();
  EXPECT_THROW(SweepJournal(path, sample_config(), true), JournalError);
  std::remove(path.c_str());
}

TEST(JournalTest, PreviousSnapshotVersionThrows) {
  // The header is a snapshot stream, so it carries the snapshot format
  // version: a journal written before a format bump is refused on
  // --resume, even when intact and checksummed, instead of merging
  // samples of another format.
  const std::string path = temp_path("old-version.journal");
  { SweepJournal j(path, sample_config(), false); }
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // [u32 len][magic u32][version u32] ... [u64 FNV-1a over the rest]
  std::uint32_t len = 0;
  std::memcpy(&len, bytes.data(), 4);
  ASSERT_GE(len, 16u);
  const std::uint32_t old_version = sim::kSnapshotVersion - 1;
  std::memcpy(bytes.data() + 8, &old_version, 4);
  const std::uint64_t sum = sim::snapshot_checksum(bytes.data() + 4, len - 8);
  std::memcpy(bytes.data() + 4 + len - 8, &sum, 8);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  try {
    SweepJournal j(path, sample_config(), true);
    ADD_FAILURE() << "a previous-format journal was resumed";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace btsc::runner
