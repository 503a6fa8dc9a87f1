// Tests for the sample-log persistence substrate: CRC32 correctness,
// write/read round-trips, and crash/corruption recovery semantics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/rng.h"
#include "storage/record_stream.h"
#include "storage/sample_log.h"

namespace volley {
namespace {

class SampleLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps parallel test processes apart: each allocates its
    // fixture at the same address under ASan.
    path_ = ::testing::TempDir() + "volley_sample_log_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST(Crc32, KnownVectors) {
  // Standard IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, SensitiveToEveryByte) {
  const std::string base = "hello world";
  const auto reference = crc32(base.data(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] ^= 0x01;
    EXPECT_NE(crc32(mutated.data(), mutated.size()), reference) << i;
  }
}

TEST_F(SampleLogTest, RoundTripsRecords) {
  Rng rng(5);
  std::vector<SampleRecord> written;
  {
    SampleLogWriter writer(path_);
    for (int i = 0; i < 500; ++i) {
      SampleRecord record;
      record.monitor = static_cast<MonitorId>(rng.uniform_int(0, 1000));
      record.tick = rng.uniform_int(0, 1 << 30);
      record.value = rng.normal(0.0, 100.0);
      record.reason = rng.bernoulli(0.2) ? SampleReason::kGlobalPoll
                                         : SampleReason::kScheduled;
      writer.append(record);
      written.push_back(record);
    }
    writer.flush();
  }
  const auto result = read_sample_log(path_);
  EXPECT_TRUE(result.clean);
  ASSERT_EQ(result.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(result.records[i], written[i]) << i;
  }
}

TEST_F(SampleLogTest, EmptyLogIsClean) {
  { SampleLogWriter writer(path_); }
  const auto result = read_sample_log(path_);
  EXPECT_TRUE(result.clean);
  EXPECT_TRUE(result.records.empty());
}

TEST_F(SampleLogTest, TruncatedTailLosesOnlyLastRecord) {
  {
    SampleLogWriter writer(path_);
    for (int i = 0; i < 10; ++i) {
      writer.append(SampleRecord{0, i, static_cast<double>(i),
                                 SampleReason::kScheduled});
    }
  }
  // Simulate a crash mid-append: chop a few bytes off the end.
  {
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 5);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const auto result = read_sample_log(path_);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(result.records.size(), 9u);  // all but the mangled last record
  EXPECT_EQ(result.records.back().tick, 8);
}

TEST_F(SampleLogTest, CorruptionStopsAtBadRecord) {
  {
    SampleLogWriter writer(path_);
    for (int i = 0; i < 10; ++i) {
      writer.append(SampleRecord{1, i, 1.5 * i, SampleReason::kScheduled});
    }
  }
  // Flip one byte inside the 4th record's payload.
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    const std::size_t record_bytes = 25;  // 21 payload + 4 crc
    file.seekp(8 + 3 * record_bytes + 14);
    char byte = 0x5A;
    file.write(&byte, 1);
  }
  const auto result = read_sample_log(path_);
  EXPECT_FALSE(result.clean);
  EXPECT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.bad_offset, 8 + 3 * 25u);
}

TEST_F(SampleLogTest, RejectsForeignFiles) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not a sample log at all";
  }
  EXPECT_THROW(read_sample_log(path_), std::runtime_error);
  EXPECT_THROW(read_sample_log(path_ + ".does_not_exist"),
               std::runtime_error);
}

TEST_F(SampleLogTest, WriterRejectsUnwritablePath) {
  EXPECT_THROW(SampleLogWriter("/nonexistent_dir_volley/x.bin"),
               std::runtime_error);
}

TEST_F(SampleLogTest, FlushReportsWriteErrors) {
  // /dev/full accepts bytes into the stream's buffer and fails them only
  // when they are flushed: 100 records fit the buffer, so the error
  // surfaces at flush(), which must throw as append() does.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  std::filesystem::create_symlink("/dev/full", path_);
  SampleLogWriter writer(path_);
  for (Tick t = 0; t < 100; ++t)
    writer.append({1, t, 0.5, SampleReason::kScheduled});
  EXPECT_THROW(writer.flush(), std::runtime_error);
}

}  // namespace
}  // namespace volley
