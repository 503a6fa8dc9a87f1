// Robustness ("fuzz-lite") suites: the wire decoder and frame reader must
// be total over arbitrary bytes (network input is untrusted), the Config
// parser must never crash on garbage strings, and round-trip properties
// must hold for randomly generated well-formed messages.
//
// The wire golden (tests/golden/wire_frames.txt) pins the byte layout of one
// canonical instance of every frame, of a registry TaskRecord, and of one
// file in each on-disk format: a sample log, a registry snapshot and a
// registry journal. On a mismatch the test writes the actual set to
// wire_frames.actual.txt in the working directory.
//
// The three on-disk files (the sample log, and the registry store's
// snapshot and journal) get the same structured mutations the wire frames
// get: every truncation, every 4-byte window overwritten, every record CRC
// byte flipped.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/wire_io.h"
#include "control/registry_store.h"
#include "control/task_codec.h"
#include "control/task_registry.h"
#include "net/framing.h"
#include "net/messages.h"
#include "storage/sample_log.h"

namespace volley {
namespace {

// --- canonical frames -------------------------------------------------------

constexpr const char* kFrameNames[] = {
    "Hello",         "LocalViolation", "PollRequest",  "PollResponse",
    "StatsReport",   "AllowanceUpdate", "Bye",         "Shutdown",
    "Heartbeat",     "HeartbeatAck",   "StatsRequest", "StatsReply",
    "AddTask",       "RemoveTask",     "UpdateTask",   "ListTasks",
    "ControlReply",  "TaskListReply",  "TaskAttach",   "TaskDetach",
    "ShardHello",    "ShardSummary",   "ShardAllowance"};
static_assert(std::size(kFrameNames) == std::variant_size_v<net::Message>);

TaskSpec canonical_spec(double threshold) {
  TaskSpec spec;
  spec.global_threshold = threshold;
  spec.error_allowance = 0.04;
  spec.id_seconds = 2.5;
  spec.max_interval = 33;
  spec.slack_ratio = 0.125;
  spec.patience = -3;
  spec.updating_period = 640;
  spec.estimator.stats_window = 480;
  spec.estimator.stats_warmup = 6;
  spec.estimator.min_observations = 5;
  spec.estimator.bound = ViolationLikelihoodEstimator::Bound::kGaussian;
  return spec;
}

control::TaskRecord canonical_record() {
  return control::TaskRecord{11, 0x0102030405060708ull, canonical_spec(77.5)};
}

/// One instance of every frame, in variant order: non-default scalars,
/// two-element vectors, non-empty strings, a negative patience, resume set.
std::vector<net::Message> canonical_frames() {
  using namespace net;
  return {
      Hello{7, true},
      LocalViolation{3, 1234, 5.5, 2},
      PollRequest{-40, 0xA1B2C3D4E5F6ull, 9},
      PollResponse{4, 77, 1500, -2.25, 6},
      StatsReport{5, 0.375, 0.0625, 4096, 12},
      AllowanceUpdate{0.0078125, 3},
      Bye{8, 91, 17},
      Shutdown{},
      Heartbeat{6, 123456789},
      HeartbeatAck{987654321},
      StatsRequest{StatsRequest::kIncludeTrace | StatsRequest::kIncludeShards},
      StatsReply{42, 7, 3, "volley_polls 42\n", "{\"e\":1}\n",
                 {ShardStatsRow{1, 16, 0.01, 250},
                  ShardStatsRow{2, 8, 0.02, -1}}},
      AddTask{21, canonical_spec(12.5)},
      RemoveTask{22},
      UpdateTask{23, canonical_spec(-4.0)},
      ListTasks{},
      ControlReply{control::ControlStatus::kExists, 19, 20, "exists: task 21"},
      TaskListReply{
          31, {TaskEntry{1, 5, 10.0, 0.01, 500, {{0, 0.004}, {1, 0.006}}},
               TaskEntry{2, 9, 20.0, 0.02, 250, {{2, 0.5}, {3, 0.25}}}}},
      TaskAttach{4, 18, 2.5, 0.003, 0.3, -3, 50, 800},
      TaskDetach{4, 26},
      ShardHello{2, 64, true},
      ShardSummary{3, 1, 0.5, 0.25, 2.0, 0.015, 12},
      ShardAllowance{1, 0.0125},
  };
}

std::string to_hex(std::span<const std::byte> bytes) {
  std::string out;
  char buf[3];
  for (const std::byte b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", static_cast<unsigned>(b));
    out += buf;
  }
  return out;
}

/// The bytes of `path` as hex; the file is removed.
std::string file_hex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  return to_hex(std::as_bytes(std::span(bytes)));
}

/// One file in each on-disk format, written through its public writer: a
/// sample log of three records, a snapshot of three tasks, and a journal of
/// an add, an update and a remove.
void add_file_goldens(std::map<std::string, std::string>& actual) {
  const std::string base = ::testing::TempDir() + "volley_wire_golden_" +
                           std::to_string(::getpid());
  {
    SampleLogWriter log(base + ".vlog");
    log.append({3, 1234, 5.5, SampleReason::kScheduled});
    log.append({0xA1B2C3D4u, -40, -2.25, SampleReason::kGlobalPoll});
    log.append({7, 0x0102030405060708, 0.0078125, SampleReason::kScheduled});
  }
  actual["SampleLog"] = file_hex(base + ".vlog");

  control::TaskRegistry registry;
  for (const TaskId id : {1u, 2u, 3u})
    EXPECT_TRUE(registry.add(id, canonical_spec(10.0 * id)).ok());
  control::RegistryStore(base).compact(registry);
  actual["RegistrySnapshot"] = file_hex(base + ".snapshot");
  std::remove((base + ".journal").c_str());

  control::RegistryStore store(base);
  for (const auto& result :
       {registry.add(4, canonical_spec(40.0)),
        registry.update(4, canonical_spec(45.0)), registry.remove(2)}) {
    EXPECT_TRUE(result.ok());
    store.append(*result.op);
  }
  actual["RegistryJournal"] = file_hex(base + ".journal");
}

TEST(WireGolden, FramesMatchCommittedHex) {
  std::map<std::string, std::string> actual;
  const auto frames = canonical_frames();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(frames[i].index(), i) << "canonical_frames() out of order";
    actual[kFrameNames[i]] = to_hex(net::encode(frames[i]));
  }
  std::vector<std::byte> record;
  wire::ByteWriter{record}(canonical_record());
  actual["TaskRecord"] = to_hex(record);
  add_file_goldens(actual);

  std::ifstream in(std::string(VOLLEY_GOLDEN_DIR) + "/wire_frames.txt");
  ASSERT_TRUE(in.good()) << "missing tests/golden/wire_frames.txt";
  std::map<std::string, std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    expected[line.substr(0, space)] =
        space == std::string::npos ? "" : line.substr(space + 1);
  }
  EXPECT_EQ(actual, expected);
  if (actual != expected) {
    std::ofstream dump("wire_frames.actual.txt", std::ios::trunc);
    for (const auto& [name, hex] : actual) dump << name << ' ' << hex << '\n';
  }
}

// --- structured mutations of the golden frames -------------------------------
//
// The property for every input: decode() returns nullopt, or a message whose
// re-encoding is exactly the input. A decoder that accepted two spellings of
// one message (say a bool byte of 2 read as true) would fail it.

void expect_canonical_or_rejected(std::span<const std::byte> input,
                                  const std::string& what) {
  const auto message = net::decode(input);
  if (!message) return;
  const auto again = net::encode(*message);
  EXPECT_TRUE(std::equal(again.begin(), again.end(), input.begin(),
                         input.end()))
      << what << ": decoded " << to_hex(input) << " re-encodes as "
      << to_hex(again);
}

TEST(FuzzDecoder, EveryTypeByteDecodesCanonicallyOrFails) {
  for (const auto& frame : canonical_frames()) {
    auto bytes = net::encode(frame);
    for (int type = 0; type < 256; ++type) {
      bytes[0] = static_cast<std::byte>(type);
      expect_canonical_or_rejected(bytes, kFrameNames[frame.index()] +
                                              std::string(" as type ") +
                                              std::to_string(type));
    }
  }
}

TEST(FuzzDecoder, CountWindowOverwritesDecodeCanonicallyOrFail) {
  // Every 4-byte window of every frame (type byte included) overwritten
  // with an empty count, the count cap, one past it and the largest u32:
  // hits every length and count prefix, and every bool and enum byte.
  constexpr std::uint32_t kValues[] = {0, wire::kMaxCount,
                                       wire::kMaxCount + 1, 0xFFFFFFFFu};
  for (const auto& frame : canonical_frames()) {
    const auto bytes = net::encode(frame);
    for (std::size_t at = 0; at + 4 <= bytes.size(); ++at) {
      for (const std::uint32_t value : kValues) {
        auto mutated = bytes;
        std::memcpy(mutated.data() + at, &value, 4);
        expect_canonical_or_rejected(
            mutated, std::string(kFrameNames[frame.index()]) + " at " +
                         std::to_string(at) + " = " + std::to_string(value));
      }
    }
  }
}

TEST(FuzzDecoder, TrailingByteIsRejected) {
  Rng rng(7006);
  for (const auto& frame : canonical_frames()) {
    auto bytes = net::encode(frame);
    bytes.push_back(static_cast<std::byte>(rng.uniform_int(0, 255)));
    EXPECT_FALSE(net::decode(bytes).has_value()) << kFrameNames[frame.index()];
  }
}

TEST(FuzzDecoder, NonCanonicalBoolIsRejected) {
  // Hello and ShardHello end in their `resume` byte.
  for (const net::Message& frame :
       {net::Message{net::Hello{7, true}},
        net::Message{net::ShardHello{2, 64, true}}}) {
    auto bytes = net::encode(frame);
    bytes.back() = std::byte{2};
    EXPECT_FALSE(net::decode(bytes).has_value()) << kFrameNames[frame.index()];
  }
}

std::vector<std::byte> random_bytes(Rng& rng, std::size_t max_len) {
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::vector<std::byte> out(len);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.uniform_int(0, 255));
  }
  return out;
}

TEST(FuzzDecoder, NeverCrashesOnRandomBytes) {
  Rng rng(7001);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto bytes = random_bytes(rng, 64);
    const auto message = net::decode(bytes);
    if (message) ++decoded;
  }
  // Random bytes occasionally form valid messages (type byte 1..8 with the
  // exact field length); mostly they must be rejected.
  EXPECT_LT(decoded, 2000);
}

TEST(FuzzDecoder, ValidMessagesWithRandomFieldsRoundTrip) {
  Rng rng(7002);
  for (int i = 0; i < 5000; ++i) {
    net::Message message;
    switch (rng.uniform_int(0, 4)) {
      case 0:
        message = net::LocalViolation{
            static_cast<MonitorId>(rng.uniform_int(0, 1 << 30)),
            rng.uniform_int(-(1LL << 40), 1LL << 40),
            rng.normal(0.0, 1e6)};
        break;
      case 1:
        message = net::PollResponse{
            static_cast<MonitorId>(rng.uniform_int(0, 1 << 30)),
            static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 60)),
            rng.uniform_int(0, 1LL << 40), rng.normal(0.0, 1e9)};
        break;
      case 2:
        message = net::StatsReport{
            static_cast<MonitorId>(rng.uniform_int(0, 1 << 30)),
            rng.uniform(), rng.uniform(), rng.uniform_int(0, 1 << 20)};
        break;
      case 3:
        message = net::AllowanceUpdate{rng.uniform()};
        break;
      default:
        message = net::Bye{
            static_cast<MonitorId>(rng.uniform_int(0, 1 << 30)),
            rng.uniform_int(0, 1 << 30), rng.uniform_int(0, 1 << 30)};
        break;
    }
    const auto bytes = net::encode(message);
    const auto decoded = net::decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->index(), message.index());
  }
}

TEST(FuzzDecoder, EveryTruncationOfValidMessageIsRejected) {
  for (const auto& frame : canonical_frames()) {
    const auto bytes = net::encode(frame);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::span<const std::byte> prefix(bytes.data(), len);
      EXPECT_FALSE(net::decode(prefix).has_value())
          << kFrameNames[frame.index()] << " len=" << len;
    }
  }
}

TEST(FuzzFraming, RandomChunkingPreservesFrames) {
  Rng rng(7003);
  for (int trial = 0; trial < 200; ++trial) {
    // Build a stream of several frames, feed in random-sized chunks, and
    // check the reader yields exactly the original payloads.
    std::vector<std::vector<std::byte>> payloads;
    std::vector<std::byte> stream;
    const int frames = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < frames; ++f) {
      auto payload = random_bytes(rng, 200);
      const auto framed = frame_payload(payload);
      stream.insert(stream.end(), framed.begin(), framed.end());
      payloads.push_back(std::move(payload));
    }
    FrameReader reader;
    std::size_t pos = 0;
    std::size_t next_expected = 0;
    while (pos < stream.size()) {
      const auto chunk = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(stream.size() - pos)));
      reader.feed(std::span<const std::byte>(stream.data() + pos, chunk));
      pos += chunk;
      while (auto frame = reader.next()) {
        ASSERT_LT(next_expected, payloads.size());
        EXPECT_EQ(*frame, payloads[next_expected]);
        ++next_expected;
      }
    }
    EXPECT_EQ(next_expected, payloads.size());
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
}

TEST(FuzzFraming, GarbageStreamEitherYieldsFramesOrThrowsOnce) {
  // The name is kept for test-ID continuity; the reader no longer throws, it
  // turns sticky-corrupt instead (the "once" below). Arbitrary bytes interpreted as frames must never read out of bounds:
  // the reader either produces (garbage) frames, waits for more input, or
  // turns corrupt once on an oversized length — never undefined behaviour,
  // never an exception. (Under ASan this test is the real check; here we
  // assert it ends with sane state.)
  Rng rng(7004);
  int corrupted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    FrameReader reader;
    const auto junk = random_bytes(rng, 512);
    reader.feed(junk);
    while (reader.next()) {
    }
    if (reader.corrupt()) {
      ++corrupted;
      EXPECT_EQ(reader.buffered_bytes(), 0u);  // the stream is dropped
      reader.feed(junk);
      EXPECT_FALSE(reader.next().has_value());  // and stays dropped
    }
    EXPECT_LE(reader.buffered_bytes(), junk.size());
  }
  EXPECT_GT(corrupted, 0);
}

TEST(FuzzFraming, FieldSplicedAcrossFramesDecodesCanonicallyOrFails) {
  // Every golden message cut at every byte into two frames: the first
  // frame's length prefix ends inside a field (each byte of every
  // multi-byte field included), so the field's tail opens the next frame.
  // Each payload the reader yields must fail to decode or re-encode to
  // exactly itself, and the well-formed frame after the splice must still
  // decode: the framing stays in step.
  const auto after = net::encode(net::Message{net::Heartbeat{6, 123456789}});
  for (const auto& frame : canonical_frames()) {
    const auto bytes = net::encode(frame);
    const std::span<const std::byte> message(bytes);
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
      std::vector<std::byte> stream;
      for (const auto& part : {frame_payload(message.first(cut)),
                               frame_payload(message.subspan(cut)),
                               frame_payload(after)}) {
        stream.insert(stream.end(), part.begin(), part.end());
      }
      FrameReader reader;
      reader.feed(stream);
      const std::string what = std::string(kFrameNames[frame.index()]) +
                               " cut at " + std::to_string(cut);
      for (int part = 0; part < 2; ++part) {
        const auto payload = reader.next();
        ASSERT_TRUE(payload.has_value()) << what;
        expect_canonical_or_rejected(*payload, what);
      }
      const auto last = reader.next();
      ASSERT_TRUE(last.has_value()) << what;
      const auto decoded = net::decode(*last);
      ASSERT_TRUE(decoded.has_value()) << what;
      EXPECT_EQ(net::encode(*decoded), after) << what;
      EXPECT_EQ(reader.buffered_bytes(), 0u) << what;
    }
  }
}

TEST(FuzzConfig, ParserIsTotalOverPrintableGarbage) {
  Rng rng(7005);
  const char charset[] = "abc=123 #\n\r\t.-_";
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::string> tokens(
        static_cast<std::size_t>(rng.uniform_int(0, 4)));
    for (auto& token : tokens) {
      const auto len = static_cast<std::size_t>(rng.uniform_int(0, 16));
      for (std::size_t i = 0; i < len; ++i) {
        token += charset[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(sizeof(charset) - 2)))];
      }
    }
    try {
      const auto cfg = Config::from_args(tokens);
      (void)cfg;
    } catch (const std::invalid_argument&) {
      // tokens without '=' are rejected loudly — that is the contract
    }
  }
}

// --- on-disk files -----------------------------------------------------------
//
// read_sample_log and RegistryStore::load over damaged files. The
// properties: a read throws only when the magic or the format field changed
// (a foreign file); a snapshot is installed whole or not at all; the sample
// log and the journal yield exactly the records before the first damaged
// one.

/// One damaged copy of a file: its bytes, and which original bytes differ
/// (truncated bytes count as changed).
struct Mutation {
  std::string name;
  std::vector<char> bytes;
  std::vector<bool> changed;

  bool any_changed(std::size_t begin, std::size_t end) const {
    return std::any_of(changed.begin() + static_cast<std::ptrdiff_t>(begin),
                       changed.begin() + static_cast<std::ptrdiff_t>(end),
                       [](bool c) { return c; });
  }
  /// The 8-byte magic + format header is present and differs: a file that
  /// is not one of this format.
  bool foreign_header() const {
    return bytes.size() >= 8 && any_changed(0, 8);
  }
  /// How many of the records that end at `ends` precede the first changed
  /// one.
  std::size_t unchanged_records(const std::vector<std::size_t>& ends) const {
    std::size_t n = 0;
    while (n < ends.size() && !any_changed(n == 0 ? 0 : ends[n - 1], ends[n]))
      ++n;
    return n;
  }
  /// The original file cut at a record boundary, or before its header
  /// completes (an empty stream).
  bool cut_at_boundary(const std::vector<std::size_t>& ends) const {
    const std::size_t size = bytes.size();
    return !any_changed(0, size) &&
           (size <= 8 || std::count(ends.begin(), ends.end(), size) > 0);
  }
};

/// Every truncation, every 4-byte window set to 0x00 and to 0xFF, and every
/// byte of each CRC in `crc_offsets` inverted.
std::vector<Mutation> mutations_of(
    const std::vector<char>& file,
    const std::vector<std::size_t>& crc_offsets) {
  std::vector<Mutation> out;
  const auto make = [&](std::string name, std::vector<char> bytes) {
    Mutation m{std::move(name), std::move(bytes),
               std::vector<bool>(file.size(), true)};
    for (std::size_t i = 0; i < m.bytes.size(); ++i)
      m.changed[i] = m.bytes[i] != file[i];
    out.push_back(std::move(m));
  };
  for (std::size_t len = 0; len < file.size(); ++len) {
    make("truncate to " + std::to_string(len),
         std::vector<char>(file.begin(),
                           file.begin() + static_cast<std::ptrdiff_t>(len)));
  }
  for (const char fill : {'\x00', '\xFF'}) {
    for (std::size_t at = 0; at + 4 <= file.size(); ++at) {
      auto bytes = file;
      std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(at), 4, fill);
      make(std::string(fill == 0 ? "0x00" : "0xFF") + " window at " +
               std::to_string(at),
           std::move(bytes));
    }
  }
  for (const std::size_t crc : crc_offsets) {
    for (std::size_t i = crc; i < crc + 4; ++i) {
      auto bytes = file;
      bytes[i] = static_cast<char>(~bytes[i]);
      make("crc byte " + std::to_string(i) + " flipped", std::move(bytes));
    }
  }
  return out;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A TaskRecord's fixed wire width: the registry files' record body.
std::size_t task_record_bytes() {
  std::vector<std::byte> bytes;
  wire::ByteWriter{bytes}(control::TaskRecord{});
  return bytes.size();
}

// Sample log: header magic "VLOG" | u32 format, then {u32 monitor | i64 tick
// | f64 value | u8 reason} | u32 crc per record. Five records of both
// reasons are damaged.
TEST(FuzzSampleLog, ReadsTheLongestValidPrefix) {
  const std::string path = ::testing::TempDir() + "volley_fuzz_sample_log_" +
                           std::to_string(::getpid());
  std::vector<SampleRecord> records;
  for (std::uint32_t i = 0; i < 5; ++i) {
    records.push_back({i * 7, static_cast<Tick>(i) - 3, 0.5 * i,
                       i % 2 ? SampleReason::kGlobalPoll
                             : SampleReason::kScheduled});
  }
  {
    SampleLogWriter writer(path);
    for (const auto& record : records) writer.append(record);
  }
  const auto original = read_file(path);

  constexpr std::size_t kBodyBytes = 21;
  std::vector<std::size_t> ends, crcs;  // per record: end offset, crc offset
  for (std::size_t at = 8; at < original.size(); at += kBodyBytes + 4) {
    crcs.push_back(at + kBodyBytes);
    ends.push_back(at + kBodyBytes + 4);
  }
  ASSERT_EQ(ends.size(), records.size());
  ASSERT_EQ(ends.back(), original.size());

  for (const Mutation& m : mutations_of(original, crcs)) {
    write_file(path, m.bytes);
    SampleLogReadResult result;
    try {
      result = read_sample_log(path);
    } catch (const std::runtime_error&) {
      EXPECT_TRUE(m.foreign_header()) << m.name << " threw";
      continue;
    }
    EXPECT_FALSE(m.foreign_header()) << m.name << " did not throw";
    const std::size_t valid = m.unchanged_records(ends);
    EXPECT_EQ(result.records,
              std::vector<SampleRecord>(
                  records.begin(),
                  records.begin() + static_cast<std::ptrdiff_t>(valid)))
        << m.name;
    const bool clean = m.cut_at_boundary(ends);
    EXPECT_EQ(result.clean, clean) << m.name;
    // The first damaged record starts where the valid prefix ends.
    EXPECT_EQ(result.bad_offset, clean ? 0 : valid == 0 ? 8 : ends[valid - 1])
        << m.name;
  }
  std::remove(path.c_str());
}

void expect_same_tasks(const control::TaskRegistry& a,
                       const control::TaskRegistry& b,
                       const std::string& what) {
  const auto la = a.list();
  const auto lb = b.list();
  ASSERT_EQ(la.size(), lb.size()) << what;
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].id, lb[i].id) << what;
    EXPECT_EQ(la[i].epoch, lb[i].epoch) << what;
    EXPECT_TRUE(la[i].spec == lb[i].spec) << what;
  }
}

class FuzzRegistryStore : public ::testing::Test {
 protected:
  // Every damaged file logs a warning; thousands of them say nothing here.
  void SetUp() override {
    base_ = ::testing::TempDir() + "volley_fuzz_registry_" +
            std::to_string(::getpid());
    clear();
    log_level_ = Logger::instance().level();
    Logger::instance().set_level(LogLevel::kError);
  }
  void TearDown() override {
    Logger::instance().set_level(log_level_);
    clear();
  }
  void clear() const {
    std::remove(snapshot().c_str());
    std::remove((snapshot() + ".tmp").c_str());
    std::remove(journal().c_str());
  }
  std::string snapshot() const { return base_ + ".snapshot"; }
  std::string journal() const { return base_ + ".journal"; }

  std::string base_;
  LogLevel log_level_{LogLevel::kWarn};
};

// Snapshot: header magic "VREG" | u32 format, then {u64 version | u32 count}
// | u32 crc, then count x {TaskRecord} | u32 crc. A snapshot with three tasks
// is damaged while a one-op journal (task 4) stays intact.
TEST_F(FuzzRegistryStore, SnapshotIsInstalledWholeOrNotAtAll) {
  control::TaskRegistry full;
  std::vector<char> journal_bytes;
  {
    control::RegistryStore store(base_);
    for (const TaskId id : {1u, 2u, 3u})
      ASSERT_TRUE(full.add(id, canonical_spec(10.0 * id)).ok());
    store.compact(full);
    const auto op = full.add(4, canonical_spec(40.0));
    ASSERT_TRUE(op.ok());
    store.append(*op.op);
  }
  const auto original = read_file(snapshot());
  journal_bytes = read_file(journal());
  control::TaskRegistry journal_only;
  journal_only.restore({control::RegistryOpKind::kAdd, *full.find(4)});

  // The {version | count} record's crc at 20, then one per task.
  const std::size_t record = task_record_bytes();
  std::vector<std::size_t> crcs{20};
  for (std::size_t at = 24; at < original.size(); at += record + 4)
    crcs.push_back(at + record);
  ASSERT_EQ(crcs.size(), 4u);
  ASSERT_EQ(crcs.back() + 4, original.size());

  for (const Mutation& m : mutations_of(original, crcs)) {
    write_file(snapshot(), m.bytes);
    write_file(journal(), journal_bytes);
    control::TaskRegistry restored;
    control::RegistryStore store(base_);
    control::RegistryLoadStats stats;
    try {
      stats = store.load(restored);
    } catch (const std::runtime_error&) {
      EXPECT_TRUE(m.foreign_header()) << m.name << " threw";
      continue;
    }
    EXPECT_FALSE(m.foreign_header()) << m.name << " did not throw";
    // Every byte is under a CRC: any change makes load() ignore the
    // snapshot.
    const bool damaged = m.any_changed(0, original.size());
    EXPECT_EQ(stats.had_snapshot, !damaged) << m.name;
    expect_same_tasks(restored, damaged ? journal_only : full, m.name);
    if (!m.any_changed(0, original.size())) {
      EXPECT_EQ(restored.version(), full.version()) << m.name;
    }
  }
}

// Journal: header magic "VRGJ" | u32 format, then {u8 op | TaskRecord} |
// u32 crc per op. Five ops are damaged with no snapshot on disk.
TEST_F(FuzzRegistryStore, JournalReplaysTheLongestValidPrefix) {
  control::TaskRegistry live;
  std::vector<control::RegistryOp> ops;
  {
    control::RegistryStore store(base_);
    const auto journaled = [&](const control::MutationResult& result) {
      ASSERT_TRUE(result.ok()) << result.error;
      store.append(*result.op);
      ops.push_back(*result.op);
    };
    journaled(live.add(1, canonical_spec(10.0)));
    journaled(live.add(2, canonical_spec(20.0)));
    journaled(live.update(2, canonical_spec(25.0)));
    journaled(live.remove(1));
    journaled(live.add(3, canonical_spec(30.0)));
  }
  std::remove(snapshot().c_str());
  const auto original = read_file(journal());

  std::vector<std::size_t> ends, crcs;  // per record: end offset, crc offset
  for (std::size_t at = 8; at < original.size();) {
    at += 1 + task_record_bytes();
    crcs.push_back(at);
    at += 4;
    ends.push_back(at);
  }
  ASSERT_EQ(ends.size(), ops.size());
  ASSERT_EQ(ends.back(), original.size());

  for (const Mutation& m : mutations_of(original, crcs)) {
    std::remove(snapshot().c_str());
    write_file(journal(), m.bytes);
    control::TaskRegistry restored;
    control::RegistryStore store(base_);
    control::RegistryLoadStats stats;
    try {
      stats = store.load(restored);
    } catch (const std::runtime_error&) {
      EXPECT_TRUE(m.foreign_header()) << m.name << " threw";
      continue;
    }
    EXPECT_FALSE(m.foreign_header()) << m.name << " did not throw";
    // The longest valid prefix: every record before the first changed one.
    const std::size_t valid = m.unchanged_records(ends);
    control::TaskRegistry expected;
    for (std::size_t i = 0; i < valid; ++i) expected.restore(ops[i]);
    EXPECT_FALSE(stats.had_snapshot) << m.name;
    EXPECT_EQ(stats.journal_ops, valid) << m.name;
    expect_same_tasks(restored, expected, m.name);
    EXPECT_EQ(restored.version(), expected.version()) << m.name;
    // Clean iff the file is the original cut at a record boundary (or
    // before the header completes: an empty journal).
    EXPECT_EQ(stats.journal_clean, m.cut_at_boundary(ends)) << m.name;
  }
}

}  // namespace
}  // namespace volley
