// Tests for the control plane's in-process pieces: the task codec (the one
// serialization shared by the wire protocol and the durable store), the
// versioned TaskRegistry (epoch assignment, error statuses, replay), and
// the RegistryStore (snapshot + journal persistence, crash-mid-append
// recovery, compaction).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/wire_io.h"
#include "control/registry_store.h"
#include "control/task_codec.h"
#include "control/task_registry.h"
#include "storage/record_stream.h"

namespace volley {
namespace {

using control::ControlStatus;
using control::RegistryOp;
using control::RegistryOpKind;
using control::RegistryStore;
using control::TaskRecord;
using control::TaskRegistry;

TaskSpec make_spec(double threshold) {
  TaskSpec spec;
  spec.global_threshold = threshold;
  spec.error_allowance = 0.03;
  spec.id_seconds = 2.0;
  spec.max_interval = 25;
  spec.slack_ratio = 0.15;
  spec.patience = 7;
  spec.updating_period = 750;
  spec.estimator.stats_window = 500;
  spec.estimator.stats_warmup = 4;
  spec.estimator.min_observations = 3;
  spec.estimator.bound = ViolationLikelihoodEstimator::Bound::kGaussian;
  return spec;
}

// --- codec ----------------------------------------------------------------

TEST(TaskCodec, SpecRoundTripsEveryField) {
  const TaskSpec in = make_spec(42.5);
  std::vector<std::byte> bytes;
  wire::ByteWriter{bytes}(in);

  TaskSpec out;
  wire::ByteReader reader(bytes);
  ASSERT_TRUE(reader(out));
  EXPECT_TRUE(reader.done());
  EXPECT_TRUE(in == out);
  // operator== itself must not be trivially true.
  TaskSpec other = in;
  other.patience = in.patience + 1;
  EXPECT_FALSE(in == other);
}

TEST(TaskCodec, RecordRoundTripsIdAndEpoch) {
  TaskRecord in;
  in.id = 7;
  in.epoch = 123456789012345ull;
  in.spec = make_spec(10.0);
  std::vector<std::byte> bytes;
  wire::ByteWriter{bytes}(in);

  TaskRecord out;
  wire::ByteReader reader(bytes);
  ASSERT_TRUE(reader(out));
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(out.id, 7u);
  EXPECT_EQ(out.epoch, 123456789012345ull);
  EXPECT_TRUE(in.spec == out.spec);
}

TEST(TaskCodec, DecodeRejectsTruncationAtEveryLength) {
  TaskRecord record;
  record.id = 3;
  record.epoch = 9;
  record.spec = make_spec(5.0);
  std::vector<std::byte> bytes;
  wire::ByteWriter{bytes}(record);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    TaskRecord out;
    EXPECT_FALSE(
        wire::ByteReader(std::span<const std::byte>(bytes.data(), cut))(out))
        << "decoded from a " << cut << "-byte prefix";
  }
}

TEST(TaskCodec, DecodeRejectsInvalidEstimatorBound) {
  std::vector<std::byte> bytes;
  wire::ByteWriter{bytes}(make_spec(5.0));
  bytes.back() = std::byte{7};  // bound tag past kGaussian
  TaskSpec out;
  EXPECT_FALSE(wire::ByteReader(bytes)(out));
}

// --- registry -------------------------------------------------------------

TEST(Registry, AddUpdateRemoveConsumeMonotoneEpochs) {
  TaskRegistry registry;
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_TRUE(registry.empty());

  const auto add = registry.add(1, make_spec(10.0));
  ASSERT_TRUE(add.ok());
  EXPECT_EQ(add.epoch, 1u);
  ASSERT_TRUE(add.op.has_value());
  EXPECT_EQ(add.op->kind, RegistryOpKind::kAdd);
  EXPECT_EQ(add.op->record.epoch, 1u);

  const auto add2 = registry.add(5, make_spec(20.0));
  ASSERT_TRUE(add2.ok());
  EXPECT_EQ(add2.epoch, 2u);

  const auto update = registry.update(1, make_spec(11.0));
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update.epoch, 3u);
  EXPECT_EQ(update.op->kind, RegistryOpKind::kUpdate);
  ASSERT_NE(registry.find(1), nullptr);
  EXPECT_DOUBLE_EQ(registry.find(1)->spec.global_threshold, 11.0);
  EXPECT_EQ(registry.find(1)->epoch, 3u);

  // Removal consumes an epoch too: the version advances past it.
  const auto removed = registry.remove(5);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.epoch, 4u);
  EXPECT_EQ(removed.op->kind, RegistryOpKind::kRemove);
  EXPECT_EQ(registry.find(5), nullptr);
  EXPECT_EQ(registry.version(), 4u);
  EXPECT_EQ(registry.size(), 1u);

  // A re-added id gets a fresh epoch, never its old one.
  const auto readd = registry.add(5, make_spec(20.0));
  ASSERT_TRUE(readd.ok());
  EXPECT_EQ(readd.epoch, 5u);
}

TEST(Registry, MutationErrorsDoNotConsumeEpochs) {
  TaskRegistry registry;
  ASSERT_TRUE(registry.add(1, make_spec(10.0)).ok());

  const auto exists = registry.add(1, make_spec(10.0));
  EXPECT_EQ(exists.status, ControlStatus::kExists);
  EXPECT_FALSE(exists.op.has_value());

  const auto missing = registry.update(9, make_spec(10.0));
  EXPECT_EQ(missing.status, ControlStatus::kNotFound);
  const auto missing_remove = registry.remove(9);
  EXPECT_EQ(missing_remove.status, ControlStatus::kNotFound);

  TaskSpec bad = make_spec(10.0);
  bad.error_allowance = 2.0;  // validate() rejects err outside [0,1]
  const auto invalid = registry.add(2, bad);
  EXPECT_EQ(invalid.status, ControlStatus::kInvalid);
  EXPECT_FALSE(invalid.error.empty());
  const auto invalid_update = registry.update(1, bad);
  EXPECT_EQ(invalid_update.status, ControlStatus::kInvalid);

  // None of the failures advanced the version.
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, ListIsAscendingById) {
  TaskRegistry registry;
  ASSERT_TRUE(registry.add(9, make_spec(1.0)).ok());
  ASSERT_TRUE(registry.add(2, make_spec(2.0)).ok());
  ASSERT_TRUE(registry.add(5, make_spec(3.0)).ok());
  const auto records = registry.list();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].id, 2u);
  EXPECT_EQ(records[1].id, 5u);
  EXPECT_EQ(records[2].id, 9u);
}

TEST(Registry, RestoreReplaysOpsVerbatim) {
  // Drive a live registry, capture its ops, replay them into a fresh one:
  // the replica must match exactly — same tasks, same epochs, same version.
  TaskRegistry live;
  std::vector<RegistryOp> ops;
  auto record_op = [&ops](const control::MutationResult& result) {
    ASSERT_TRUE(result.ok());
    ops.push_back(*result.op);
  };
  record_op(live.add(1, make_spec(10.0)));
  record_op(live.add(2, make_spec(20.0)));
  record_op(live.update(1, make_spec(15.0)));
  record_op(live.remove(2));
  record_op(live.add(3, make_spec(30.0)));

  TaskRegistry replica;
  for (const auto& op : ops) replica.restore(op);

  EXPECT_EQ(replica.version(), live.version());
  const auto a = live.list();
  const auto b = replica.list();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].epoch, b[i].epoch);
    EXPECT_TRUE(a[i].spec == b[i].spec);
  }
}

TEST(Registry, ControlStatusNamesAreStable) {
  EXPECT_STREQ(control::control_status_name(ControlStatus::kOk), "ok");
  EXPECT_STREQ(control::control_status_name(ControlStatus::kNotFound),
               "not_found");
  EXPECT_STREQ(control::control_status_name(ControlStatus::kExists),
               "exists");
  EXPECT_STREQ(control::control_status_name(ControlStatus::kInvalid),
               "invalid");
}

// --- durable store --------------------------------------------------------

class RegistryStoreTest : public ::testing::Test {
 protected:
  // ctest runs each case in its own process, and under ASan those
  // processes allocate the fixture at the same address, so the pid keeps
  // concurrent cases off each other's files.
  void SetUp() override {
    base_ = ::testing::TempDir() + "volley_registry_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  void TearDown() override {
    std::remove((base_ + ".snapshot").c_str());
    std::remove((base_ + ".snapshot.tmp").c_str());
    std::remove((base_ + ".journal").c_str());
  }

  /// Journals an applied mutation through `store` — the second half of the
  /// coordinator's mutate-then-append sequence.
  static void apply(RegistryStore& store,
                    const control::MutationResult& result) {
    ASSERT_TRUE(result.ok()) << result.error;
    store.append(*result.op);
  }

  static void expect_same(const TaskRegistry& a, const TaskRegistry& b) {
    EXPECT_EQ(a.version(), b.version());
    const auto la = a.list();
    const auto lb = b.list();
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t i = 0; i < la.size(); ++i) {
      EXPECT_EQ(la[i].id, lb[i].id);
      EXPECT_EQ(la[i].epoch, lb[i].epoch);
      EXPECT_TRUE(la[i].spec == lb[i].spec);
    }
  }

  std::string base_;
};

TEST_F(RegistryStoreTest, LoadOnEmptyPathIsCleanNoop) {
  TaskRegistry registry;
  RegistryStore store(base_);
  const auto stats = store.load(registry);
  EXPECT_FALSE(stats.had_snapshot);
  EXPECT_EQ(stats.journal_ops, 0u);
  EXPECT_TRUE(stats.journal_clean);
  EXPECT_TRUE(registry.empty());
}

TEST_F(RegistryStoreTest, JournalReplayRestoresExactEpochs) {
  TaskRegistry original;
  {
    RegistryStore store(base_);
    apply(store, original.add(1, make_spec(10.0)));
    apply(store, original.add(2, make_spec(20.0)));
    apply(store, original.update(2, make_spec(25.0)));
    apply(store, original.remove(1));
  }  // "crash": the store goes away without compacting

  TaskRegistry restored;
  RegistryStore reopened(base_);
  const auto stats = reopened.load(restored);
  EXPECT_FALSE(stats.had_snapshot);
  EXPECT_EQ(stats.journal_ops, 4u);
  EXPECT_TRUE(stats.journal_clean);
  expect_same(original, restored);
  ASSERT_NE(restored.find(2), nullptr);
  EXPECT_EQ(restored.find(2)->epoch, 3u);  // the update's epoch, verbatim
  EXPECT_EQ(restored.version(), 4u);       // covers the removal epoch too
}

TEST_F(RegistryStoreTest, SnapshotPlusJournalCompose) {
  TaskRegistry original;
  {
    RegistryStore store(base_);
    apply(store, original.add(1, make_spec(10.0)));
    apply(store, original.add(2, make_spec(20.0)));
    store.compact(original);  // folds both adds into the snapshot
    EXPECT_EQ(store.journal_ops_since_compact(), 0u);
    apply(store, original.update(1, make_spec(12.0)));
    apply(store, original.add(3, make_spec(30.0)));
  }

  TaskRegistry restored;
  RegistryStore reopened(base_);
  const auto stats = reopened.load(restored);
  EXPECT_TRUE(stats.had_snapshot);
  EXPECT_EQ(stats.snapshot_tasks, 2u);
  EXPECT_EQ(stats.journal_ops, 2u);  // only the post-compact ops replay
  EXPECT_TRUE(stats.journal_clean);
  expect_same(original, restored);
}

TEST_F(RegistryStoreTest, CrashMidJournalAppendLosesOnlyTheTornOp) {
  TaskRegistry original;
  std::uint64_t version_before_last = 0;
  {
    RegistryStore store(base_);
    apply(store, original.add(1, make_spec(10.0)));
    apply(store, original.add(2, make_spec(20.0)));
    version_before_last = original.version();
    apply(store, original.update(2, make_spec(25.0)));
  }

  // Simulate a crash mid-append: cut into the last record's bytes.
  const auto journal = base_ + ".journal";
  const auto full = std::filesystem::file_size(journal);
  std::filesystem::resize_file(journal, full - 7);

  TaskRegistry restored;
  RegistryStore reopened(base_);
  const auto stats = reopened.load(restored);
  EXPECT_FALSE(stats.journal_clean);   // the torn tail was detected...
  EXPECT_EQ(stats.journal_ops, 2u);    // ...and the valid prefix replayed
  EXPECT_EQ(restored.version(), version_before_last);
  ASSERT_NE(restored.find(2), nullptr);
  EXPECT_EQ(restored.find(2)->epoch, 2u);  // pre-update revision
  EXPECT_DOUBLE_EQ(restored.find(2)->spec.global_threshold, 20.0);

  // load() re-snapshots the recovered state, so a second restart is clean
  // and can never re-read the torn tail.
  TaskRegistry again;
  RegistryStore third(base_);
  const auto stats2 = third.load(again);
  EXPECT_TRUE(stats2.had_snapshot);
  EXPECT_TRUE(stats2.journal_clean);
  EXPECT_EQ(stats2.journal_ops, 0u);
  expect_same(restored, again);
}

TEST_F(RegistryStoreTest, CorruptJournalRecordStopsReplayAtThatRecord) {
  TaskRegistry original;
  {
    RegistryStore store(base_);
    apply(store, original.add(1, make_spec(10.0)));
    apply(store, original.add(2, make_spec(20.0)));
    apply(store, original.add(3, make_spec(30.0)));
  }

  // Flip one byte inside the *second* record's body: replay must keep op 1,
  // reject op 2 on CRC, and never reach op 3.
  const auto journal = base_ + ".journal";
  const auto size = std::filesystem::file_size(journal);
  const auto record = (size - 8) / 3;  // 3 equal-size records after header
  {
    std::fstream f(journal,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(8 + record + record / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x01;
    f.seekp(static_cast<std::streamoff>(8 + record + record / 2));
    f.write(&byte, 1);
  }

  TaskRegistry restored;
  RegistryStore reopened(base_);
  const auto stats = reopened.load(restored);
  EXPECT_FALSE(stats.journal_clean);
  EXPECT_EQ(stats.journal_ops, 1u);
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_NE(restored.find(1), nullptr);
}

// RegistryOpKind starts at 1: a journal record whose op byte is 0 stops the
// replay even under a valid CRC.
TEST_F(RegistryStoreTest, ZeroOpByteStopsReplayUnderValidCrc) {
  TaskRegistry original;
  {
    RegistryStore store(base_);
    apply(store, original.add(1, make_spec(10.0)));
  }
  const auto later = original.add(2, make_spec(20.0));
  ASSERT_TRUE(later.ok());
  std::vector<std::byte> bytes;
  append_record(bytes, RegistryOp{RegistryOpKind{0}, later.op->record});
  append_record(bytes, *later.op);
  {
    std::ofstream f(base_ + ".journal", std::ios::binary | std::ios::app);
    write_out(f, bytes);
  }

  TaskRegistry restored;
  RegistryStore reopened(base_);
  const auto stats = reopened.load(restored);
  EXPECT_FALSE(stats.journal_clean);
  EXPECT_EQ(stats.journal_ops, 1u);
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.version(), 1u);
}

// A snapshot whose record count reads 0xFFFFFFFF, under a valid CRC, is
// corrupt, not an allocation request: load() ignores it and replays the
// journal.
TEST_F(RegistryStoreTest, HugeSnapshotCountFallsBackToJournal) {
  TaskRegistry original;
  {
    RegistryStore store(base_);
    apply(store, original.add(1, make_spec(10.0)));
    apply(store, original.add(2, make_spec(20.0)));
  }
  {
    // magic | u32 format | {u64 version | u32 count} | u32 crc of the 12
    std::ofstream f(base_ + ".snapshot", std::ios::binary);
    const std::uint32_t format = 2;
    const std::uint64_t version = 7;
    const std::uint32_t count = 0xFFFFFFFFu;
    char head[12];
    std::memcpy(head, &version, sizeof version);
    std::memcpy(head + 8, &count, sizeof count);
    const std::uint32_t crc = crc32(head, sizeof head);
    f.write("VREG", 4);
    f.write(reinterpret_cast<const char*>(&format), sizeof format);
    f.write(head, sizeof head);
    f.write(reinterpret_cast<const char*>(&crc), sizeof crc);
  }

  TaskRegistry restored;
  RegistryStore reopened(base_);
  const auto stats = reopened.load(restored);
  EXPECT_FALSE(stats.had_snapshot);
  EXPECT_EQ(stats.journal_ops, 2u);
  EXPECT_TRUE(stats.journal_clean);
  expect_same(original, restored);
}

TEST_F(RegistryStoreTest, BadMagicThrows) {
  {
    std::ofstream f(base_ + ".journal", std::ios::binary);
    f << "this is not a registry journal";
  }
  TaskRegistry registry;
  RegistryStore store(base_);
  EXPECT_THROW(store.load(registry), std::runtime_error);
}

TEST_F(RegistryStoreTest, MaybeCompactTriggersPastThreshold) {
  TaskRegistry registry;
  RegistryStore store(base_);
  ASSERT_TRUE(registry.add(1, make_spec(10.0)).ok());
  // Journal churn: flip the task's spec until the threshold trips.
  for (std::size_t i = 0; i <= RegistryStore::kCompactThreshold; ++i) {
    const auto result =
        registry.update(1, make_spec(10.0 + static_cast<double>(i)));
    ASSERT_TRUE(result.ok());
    store.append(*result.op);
    store.maybe_compact(registry);
  }
  // The journal was folded into the snapshot and restarted from zero.
  EXPECT_LT(store.journal_ops_since_compact(),
            RegistryStore::kCompactThreshold);
  EXPECT_TRUE(std::filesystem::exists(base_ + ".snapshot"));

  TaskRegistry restored;
  RegistryStore reopened(base_);
  const auto stats = reopened.load(restored);
  EXPECT_TRUE(stats.had_snapshot);
  EXPECT_TRUE(stats.journal_clean);
  expect_same(registry, restored);
}

}  // namespace
}  // namespace volley
