// Tests for the wire runtime: framing, message codec round-trips, socket
// primitives and the request/reply client, full coordinator + monitors
// sessions over localhost TCP, and the failure model: heartbeat liveness,
// stale-value poll completion, allowance reclamation, coordinator
// restart/reconnect, a stalled coordinator, and the chaos proxy.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <array>
#include <atomic>
#include <csignal>

#include <chrono>
#include <cstring>
#include <thread>

#include "common/wire_io.h"
#include "core/metric_source.h"
#include "net/chaos_proxy.h"
#include "net/coordinator_node.h"
#include "net/framing.h"
#include "net/messages.h"
#include "net/monitor_node.h"
#include "net/request_reply.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace_events.h"
#include "stalled_listener.h"

namespace volley {
namespace {

using net::AllowanceUpdate;
using net::Bye;
using net::Heartbeat;
using net::HeartbeatAck;
using net::Hello;
using net::LocalViolation;
using net::Message;
using net::PollRequest;
using net::PollResponse;
using net::Shutdown;
using net::StatsReply;
using net::StatsReport;
using net::StatsRequest;

std::span<const std::byte> as_bytes(const std::vector<std::byte>& v) {
  return {v.data(), v.size()};
}

TEST(Framing, RoundTripsSingleFrame) {
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2},
                                       std::byte{3}};
  const auto framed = frame_payload(payload);
  EXPECT_EQ(framed.size(), 7u);
  FrameReader reader;
  reader.feed(framed);
  const auto out = reader.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Framing, HandlesPartialDelivery) {
  const std::vector<std::byte> payload(100, std::byte{7});
  const auto framed = frame_payload(payload);
  FrameReader reader;
  // Feed byte by byte: no frame until the last byte arrives.
  for (std::size_t i = 0; i + 1 < framed.size(); ++i) {
    reader.feed(std::span<const std::byte>(&framed[i], 1));
    EXPECT_FALSE(reader.next().has_value());
  }
  reader.feed(std::span<const std::byte>(&framed.back(), 1));
  const auto out = reader.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), 100u);
}

TEST(Framing, HandlesCoalescedFrames) {
  std::vector<std::byte> stream;
  for (int i = 0; i < 3; ++i) {
    const std::vector<std::byte> payload(static_cast<std::size_t>(i + 1),
                                         std::byte{static_cast<unsigned char>(i)});
    const auto framed = frame_payload(payload);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  FrameReader reader;
  reader.feed(stream);
  for (int i = 0; i < 3; ++i) {
    const auto out = reader.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->size(), static_cast<std::size_t>(i + 1));
  }
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Framing, RejectsOversizedFrame) {
  // A good frame, then a length prefix above the limit: the good frame
  // still pops, then the reader turns corrupt for good — it yields nothing
  // and ignores later input, even a well-formed frame.
  auto stream = frame_payload(std::vector<std::byte>(3, std::byte{9}));
  const std::uint32_t huge = kMaxFrameBytes + 1;
  const auto* prefix = reinterpret_cast<const std::byte*>(&huge);
  stream.insert(stream.end(), prefix, prefix + 4);
  FrameReader reader;
  reader.feed(stream);
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.corrupt());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
  EXPECT_EQ(reader.buffered_bytes(), 0u);
  reader.feed(frame_payload(std::vector<std::byte>(2, std::byte{1})));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(Framing, EmptyPayloadIsLegal) {
  const auto framed = frame_payload({});
  FrameReader reader;
  reader.feed(framed);
  const auto out = reader.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Framing, OneByteSlicesReassembleManyFrames) {
  // Fuzz the incremental decoder: 50 frames of varying size (including
  // empty) streamed one byte at a time, so every cut point — mid-header and
  // mid-payload — is exercised for every frame.
  std::vector<std::byte> stream;
  for (int i = 0; i < 50; ++i) {
    const std::vector<std::byte> payload(
        static_cast<std::size_t>((i * 37) % 256),
        std::byte{static_cast<unsigned char>(i)});
    const auto framed = frame_payload(payload);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  FrameReader reader;
  int frames = 0;
  for (const std::byte b : stream) {
    reader.feed(std::span<const std::byte>(&b, 1));
    while (const auto payload = reader.next()) {
      EXPECT_EQ(payload->size(),
                static_cast<std::size_t>((frames * 37) % 256));
      if (!payload->empty()) {
        EXPECT_EQ(payload->front(),
                  std::byte{static_cast<unsigned char>(frames)});
      }
      ++frames;
    }
  }
  EXPECT_EQ(frames, 50);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

// --- batched egress (FrameWriter) ----------------------------------------

struct SocketPair {
  int fds[2]{-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    for (const int fd : fds) ::fcntl(fd, F_SETFL, O_NONBLOCK);
  }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  int writer() const { return fds[0]; }
  /// Reads whatever is currently buffered on the receiving side.
  std::vector<std::byte> drain() {
    std::vector<std::byte> out;
    std::array<std::byte, 16384> buf;
    for (;;) {
      const ssize_t n = ::read(fds[1], buf.data(), buf.size());
      if (n <= 0) break;  // EAGAIN (or EOF): drained
      out.insert(out.end(), buf.begin(), buf.begin() + n);
    }
    return out;
  }
};

TEST(FrameWriterTest, CoalescesQueuedFramesIntoOneVectoredWrite) {
  SocketPair sp;
  FrameWriter writer;
  for (int i = 0; i < 10; ++i) {
    writer.enqueue(frame_payload(std::vector<std::byte>(
        8, std::byte{static_cast<unsigned char>(i)})));
  }
  EXPECT_EQ(writer.queued_frames(), 10u);
  EXPECT_EQ(writer.queued_bytes(), 10u * 12u);
  ASSERT_EQ(writer.flush(sp.writer()), FrameWriter::FlushResult::kDrained);
  // Ten frames left in ONE sendmsg — the batching the reactor path counts
  // on to beat per-frame send_all.
  EXPECT_EQ(writer.stats().writev_calls, 1);
  EXPECT_EQ(writer.stats().frames_written, 10);
  EXPECT_EQ(writer.stats().bytes_written, 120);
  EXPECT_TRUE(writer.empty());

  FrameReader reader;
  reader.feed(as_bytes(sp.drain()));
  for (int i = 0; i < 10; ++i) {
    const auto payload = reader.next();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(payload->size(), 8u);
    EXPECT_EQ(payload->front(), std::byte{static_cast<unsigned char>(i)});
  }
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameWriterTest, DrainsQueuesLargerThanOneIovBatch) {
  SocketPair sp;
  FrameWriter writer;
  constexpr int kFrames = 200;  // > kMaxIov: needs several gather batches
  for (int i = 0; i < kFrames; ++i) {
    writer.enqueue(frame_payload(std::vector<std::byte>(
        4, std::byte{static_cast<unsigned char>(i % 251)})));
  }
  ASSERT_EQ(writer.flush(sp.writer()), FrameWriter::FlushResult::kDrained);
  EXPECT_EQ(writer.stats().frames_written, kFrames);
  EXPECT_GE(writer.stats().writev_calls, 4);  // ceil(200 / kMaxIov)

  FrameReader reader;
  reader.feed(as_bytes(sp.drain()));
  int frames = 0;
  while (const auto payload = reader.next()) {
    EXPECT_EQ(payload->front(),
              std::byte{static_cast<unsigned char>(frames % 251)});
    ++frames;
  }
  EXPECT_EQ(frames, kFrames);
}

TEST(FrameWriterTest, ResumesMidFrameAfterEagain) {
  // A frame much larger than the socket buffers must hit EAGAIN mid-frame;
  // subsequent flushes resume at the saved offset and the receiver still
  // reassembles the exact bytes — plus the small frame queued behind it.
  SocketPair sp;
  std::vector<std::byte> big(512 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = std::byte{static_cast<unsigned char>(i * 31)};
  }
  FrameWriter writer;
  writer.enqueue(frame_payload(big));
  writer.enqueue(
      frame_payload(std::vector<std::byte>{std::byte{0xEE}}));

  auto result = writer.flush(sp.writer());
  EXPECT_EQ(result, FrameWriter::FlushResult::kBlocked);
  EXPECT_FALSE(writer.empty());

  FrameReader reader;
  int rounds = 0;
  while (result == FrameWriter::FlushResult::kBlocked && rounds++ < 10000) {
    reader.feed(as_bytes(sp.drain()));  // make room in the kernel buffers
    result = writer.flush(sp.writer());
  }
  ASSERT_EQ(result, FrameWriter::FlushResult::kDrained);
  EXPECT_GE(writer.stats().writev_calls, 2);
  EXPECT_EQ(writer.stats().frames_written, 2);
  reader.feed(as_bytes(sp.drain()));

  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, big);  // byte-exact across the EAGAIN resume points
  const auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, std::vector<std::byte>{std::byte{0xEE}});
}

TEST(FrameWriterTest, ReportsPeerGoneWithoutSigpipe) {
  SocketPair sp;
  ::close(sp.fds[1]);
  sp.fds[1] = -1;
  FrameWriter writer;
  writer.enqueue(frame_payload(std::vector<std::byte>(8, std::byte{1})));
  // MSG_NOSIGNAL: the dead peer surfaces as a result code, not SIGPIPE.
  EXPECT_EQ(writer.flush(sp.writer()), FrameWriter::FlushResult::kPeerGone);
}

TEST(FrameWriterTest, ClearDropsQueueWithoutWriting) {
  FrameWriter writer;
  writer.enqueue(frame_payload(std::vector<std::byte>(8, std::byte{1})));
  EXPECT_EQ(writer.queued_bytes(), 12u);
  writer.clear();
  EXPECT_TRUE(writer.empty());
  EXPECT_EQ(writer.queued_bytes(), 0u);
  SocketPair sp;
  EXPECT_EQ(writer.flush(sp.writer()), FrameWriter::FlushResult::kDrained);
  EXPECT_EQ(writer.stats().writev_calls, 0);  // nothing reached the socket
}

TEST(FrameWriterTest, FlushBlockingDrainsAcrossFullBuffers) {
  // The shutdown-broadcast path: the queue exceeds the kernel buffers, so
  // the drain must wait on POLLOUT while a peer consumes — and finish.
  SocketPair sp;
  std::vector<std::byte> big(512 * 1024, std::byte{0x5A});
  FrameWriter writer;
  writer.enqueue(frame_payload(big));
  const std::size_t expected = big.size() + 4;

  std::size_t received = 0;
  std::thread consumer([&] {
    std::array<std::byte, 16384> buf;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (received < expected &&
           std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{sp.fds[1], POLLIN, 0};
      ::poll(&pfd, 1, 100);
      const ssize_t n = ::read(sp.fds[1], buf.data(), buf.size());
      if (n > 0) received += static_cast<std::size_t>(n);
    }
  });
  EXPECT_EQ(writer.flush_blocking(sp.writer(), 5000),
            FrameWriter::FlushResult::kDrained);
  consumer.join();
  EXPECT_EQ(received, expected);
  EXPECT_EQ(writer.stats().bytes_written,
            static_cast<std::int64_t>(expected));
}

template <typename T>
T round_trip(const T& in) {
  const auto bytes = net::encode(Message{in});
  const auto out = net::decode(as_bytes(bytes));
  EXPECT_TRUE(out.has_value());
  return std::get<T>(*out);
}

TEST(Messages, HelloRoundTrip) {
  const auto out = round_trip(Hello{42});
  EXPECT_EQ(out.monitor, 42u);
  EXPECT_FALSE(out.resume);
}

TEST(Messages, HelloResumeRoundTrip) {
  const auto out = round_trip(Hello{42, true});
  EXPECT_EQ(out.monitor, 42u);
  EXPECT_TRUE(out.resume);
}

TEST(Messages, HeartbeatRoundTrips) {
  const auto beat = round_trip(Heartbeat{9, 123456789u});
  EXPECT_EQ(beat.monitor, 9u);
  EXPECT_EQ(beat.seq, 123456789u);
  const auto ack = round_trip(HeartbeatAck{123456789u});
  EXPECT_EQ(ack.seq, 123456789u);
}

TEST(Messages, LocalViolationRoundTrip) {
  const auto out = round_trip(LocalViolation{7, 123456789, -3.25});
  EXPECT_EQ(out.monitor, 7u);
  EXPECT_EQ(out.tick, 123456789);
  EXPECT_DOUBLE_EQ(out.value, -3.25);
}

TEST(Messages, PollRoundTrips) {
  const auto req = round_trip(PollRequest{55, 99});
  EXPECT_EQ(req.tick, 55);
  EXPECT_EQ(req.poll_id, 99u);
  const auto resp = round_trip(PollResponse{3, 99, 55, 17.5});
  EXPECT_EQ(resp.monitor, 3u);
  EXPECT_DOUBLE_EQ(resp.value, 17.5);
}

TEST(Messages, StatsAllowanceByeShutdownRoundTrip) {
  const auto stats = round_trip(StatsReport{1, 0.25, 0.001, 40});
  EXPECT_DOUBLE_EQ(stats.avg_gain, 0.25);
  EXPECT_EQ(stats.observations, 40);
  const auto update = round_trip(AllowanceUpdate{0.007});
  EXPECT_DOUBLE_EQ(update.error_allowance, 0.007);
  const auto bye = round_trip(Bye{2, 100, 5});
  EXPECT_EQ(bye.scheduled_ops, 100);
  EXPECT_NO_THROW(round_trip(Shutdown{}));
}

TEST(Messages, StatsRequestReplyRoundTrip) {
  StatsRequest req;
  req.flags = StatsRequest::kIncludeTrace | StatsRequest::kMetricsJson;
  const auto req_out = round_trip(req);
  EXPECT_EQ(req_out.flags, req.flags);

  StatsReply reply;
  reply.global_polls = 12;
  reply.reallocations = 3;
  reply.alerts = 2;
  reply.metrics = "# HELP volley_x_total test\nvolley_x_total 5\n";
  reply.trace_jsonl = "{\"seq\":0,\"kind\":\"sample_taken\"}\n";
  const auto reply_out = round_trip(reply);
  EXPECT_EQ(reply_out.global_polls, 12);
  EXPECT_EQ(reply_out.reallocations, 3);
  EXPECT_EQ(reply_out.alerts, 2);
  EXPECT_EQ(reply_out.metrics, reply.metrics);
  EXPECT_EQ(reply_out.trace_jsonl, reply.trace_jsonl);

  // Empty strings encode and decode cleanly too.
  const auto empty_out = round_trip(StatsReply{});
  EXPECT_TRUE(empty_out.metrics.empty());
  EXPECT_TRUE(empty_out.trace_jsonl.empty());
}

TEST(Messages, StatsReplyDecodeRejectsTruncatedString) {
  StatsReply reply;
  reply.metrics = "some metrics payload";
  auto bytes = net::encode(Message{reply});
  bytes.resize(bytes.size() - 4);  // cut into the string bytes
  EXPECT_FALSE(net::decode(as_bytes(bytes)).has_value());
}

TEST(Messages, DecodeRejectsGarbage) {
  EXPECT_FALSE(net::decode({}).has_value());
  const std::vector<std::byte> unknown{std::byte{0xFF}};
  EXPECT_FALSE(net::decode(as_bytes(unknown)).has_value());
  // Truncated LocalViolation.
  auto bytes = net::encode(Message{LocalViolation{1, 2, 3.0}});
  bytes.pop_back();
  EXPECT_FALSE(net::decode(as_bytes(bytes)).has_value());
  // Trailing junk is rejected too.
  bytes = net::encode(Message{Hello{1}});
  bytes.push_back(std::byte{0});
  EXPECT_FALSE(net::decode(as_bytes(bytes)).has_value());
}

// --- control-plane frames -------------------------------------------------

TaskSpec control_spec(double threshold) {
  TaskSpec spec;
  spec.global_threshold = threshold;
  spec.error_allowance = 0.05;
  spec.id_seconds = 3.0;
  spec.max_interval = 16;
  spec.slack_ratio = 0.25;
  spec.patience = 5;
  spec.updating_period = 600;
  spec.estimator.bound = ViolationLikelihoodEstimator::Bound::kGaussian;
  return spec;
}

TEST(Messages, AddUpdateTaskRoundTripCarrySpec) {
  const auto add = round_trip(net::AddTask{9, control_spec(33.0)});
  EXPECT_EQ(add.task, 9u);
  EXPECT_TRUE(add.spec == control_spec(33.0));

  const auto update = round_trip(net::UpdateTask{9, control_spec(44.0)});
  EXPECT_EQ(update.task, 9u);
  EXPECT_DOUBLE_EQ(update.spec.global_threshold, 44.0);
}

TEST(Messages, RemoveListControlReplyRoundTrip) {
  EXPECT_EQ(round_trip(net::RemoveTask{3}).task, 3u);
  EXPECT_NO_THROW(round_trip(net::ListTasks{}));

  net::ControlReply reply;
  reply.status = control::ControlStatus::kExists;
  reply.epoch = 17;
  reply.registry_version = 19;
  reply.message = "task 3 already exists";
  const auto out = round_trip(reply);
  EXPECT_EQ(out.status, control::ControlStatus::kExists);
  EXPECT_EQ(out.epoch, 17u);
  EXPECT_EQ(out.registry_version, 19u);
  EXPECT_EQ(out.message, reply.message);
}

TEST(Messages, ControlReplyRejectsUnknownStatusByte) {
  auto bytes = net::encode(Message{net::ControlReply{}});
  bytes[1] = std::byte{99};  // status is the first field after the type
  EXPECT_FALSE(net::decode(as_bytes(bytes)).has_value());
}

TEST(Messages, TaskListReplyRoundTrip) {
  net::TaskListReply reply;
  reply.registry_version = 42;
  net::TaskEntry entry;
  entry.task = 7;
  entry.epoch = 41;
  entry.global_threshold = 30.0;
  entry.error_allowance = 0.06;
  entry.updating_period = 500;
  entry.allowance_split = {{0, 0.02}, {1, 0.03}, {2, 0.01}};
  reply.tasks = {entry, net::TaskEntry{}};

  const auto out = round_trip(reply);
  EXPECT_EQ(out.registry_version, 42u);
  ASSERT_EQ(out.tasks.size(), 2u);
  EXPECT_EQ(out.tasks[0].task, 7u);
  EXPECT_EQ(out.tasks[0].epoch, 41u);
  EXPECT_DOUBLE_EQ(out.tasks[0].global_threshold, 30.0);
  ASSERT_EQ(out.tasks[0].allowance_split.size(), 3u);
  EXPECT_EQ(out.tasks[0].allowance_split[1].first, 1u);
  EXPECT_DOUBLE_EQ(out.tasks[0].allowance_split[1].second, 0.03);
  EXPECT_TRUE(out.tasks[1].allowance_split.empty());
}

TEST(Messages, TaskListReplyRejectsOversizedCounts) {
  // An empty reply is 13 bytes: type | u64 version | u32 count. Patching
  // the count past wire::kMaxCount must fail the decode outright (a corrupt
  // count must not drive a near-unbounded parse loop), and a
  // smaller-but-wrong count must fail on truncation.
  const auto base = net::encode(Message{net::TaskListReply{}});
  ASSERT_EQ(base.size(), 13u);

  auto oversized = base;
  const std::uint32_t huge = wire::kMaxCount + 1;
  std::memcpy(oversized.data() + 9, &huge, 4);
  EXPECT_FALSE(net::decode(as_bytes(oversized)).has_value());

  auto lying = base;
  const std::uint32_t one = 1;
  std::memcpy(lying.data() + 9, &one, 4);  // promises an entry, has none
  EXPECT_FALSE(net::decode(as_bytes(lying)).has_value());
}

TEST(Messages, TaskAttachDetachRoundTrip) {
  net::TaskAttach attach;
  attach.task = 4;
  attach.epoch = 12;
  attach.local_threshold = 2.5;
  attach.error_allowance = 0.015;
  attach.slack_ratio = 0.3;
  attach.patience = -1;  // negative patience survives the u32 wire encoding
  attach.max_interval = 64;
  attach.updating_period = 250;
  const auto out = round_trip(attach);
  EXPECT_EQ(out.task, 4u);
  EXPECT_EQ(out.epoch, 12u);
  EXPECT_DOUBLE_EQ(out.local_threshold, 2.5);
  EXPECT_DOUBLE_EQ(out.error_allowance, 0.015);
  EXPECT_DOUBLE_EQ(out.slack_ratio, 0.3);
  EXPECT_EQ(out.patience, -1);
  EXPECT_EQ(out.max_interval, 64);
  EXPECT_EQ(out.updating_period, 250);

  const auto detach = round_trip(net::TaskDetach{4, 13});
  EXPECT_EQ(detach.task, 4u);
  EXPECT_EQ(detach.epoch, 13u);
}

TEST(Messages, TaskScopedFramesCarryTaskId) {
  EXPECT_EQ(round_trip(LocalViolation{7, 11, 1.5, 3}).task, 3u);
  EXPECT_EQ(round_trip(PollRequest{55, 99, 3}).task, 3u);
  EXPECT_EQ(round_trip(PollResponse{1, 99, 55, 2.0, 3}).task, 3u);
  EXPECT_EQ(round_trip(StatsReport{1, 0.5, 0.01, 10, 3}).task, 3u);
  EXPECT_EQ(round_trip(AllowanceUpdate{0.02, 3}).task, 3u);
}

TEST(Messages, ControlFramesRejectTruncation) {
  const std::vector<Message> frames = {
      net::AddTask{1, control_spec(5.0)},
      net::RemoveTask{1},
      net::UpdateTask{1, control_spec(6.0)},
      net::ControlReply{control::ControlStatus::kOk, 1, 1, "msg"},
      net::TaskAttach{1, 2, 3.0, 0.01, 0.2, 20, 40, 1000},
      net::TaskDetach{1, 2},
  };
  for (const auto& frame : frames) {
    auto bytes = net::encode(frame);
    bytes.pop_back();
    EXPECT_FALSE(net::decode(as_bytes(bytes)).has_value())
        << "frame type index " << frame.index();
  }
  // ListTasks is a bare type byte; trailing junk is the malformed case.
  auto list = net::encode(Message{net::ListTasks{}});
  list.push_back(std::byte{0});
  EXPECT_FALSE(net::decode(as_bytes(list)).has_value());
}

TEST(Messages, ControlRequestClassifier) {
  EXPECT_TRUE(net::is_control_request(net::AddTask{1, control_spec(5.0)}));
  EXPECT_TRUE(net::is_control_request(net::RemoveTask{1}));
  EXPECT_TRUE(net::is_control_request(net::UpdateTask{1, control_spec(5.0)}));
  EXPECT_TRUE(net::is_control_request(net::ListTasks{}));
  EXPECT_FALSE(net::is_control_request(Hello{0}));
  EXPECT_FALSE(net::is_control_request(StatsRequest{}));
  EXPECT_FALSE(net::is_control_request(net::ControlReply{}));
  EXPECT_FALSE(net::is_control_request(net::TaskListReply{}));
}

TEST(Socket, LoopbackEcho) {
  TcpListener listener(0);
  std::thread server([&listener] {
    auto conn = listener.accept();
    ASSERT_TRUE(conn.has_value());
    std::array<std::byte, 64> buf;
    const auto n = conn->recv_some(buf);
    ASSERT_TRUE(n.has_value());
    conn->send_all(std::span<const std::byte>(buf.data(), *n));
  });
  auto client = TcpConnection::connect("127.0.0.1", listener.port());
  const std::vector<std::byte> msg{std::byte{0xAB}, std::byte{0xCD}};
  ASSERT_TRUE(client.send_all(msg));
  std::array<std::byte, 64> buf;
  const auto n = client.recv_some(buf);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(buf[0], std::byte{0xAB});
  server.join();
}

TEST(Socket, ConnectToClosedPortThrows) {
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }  // listener closed
  EXPECT_THROW(TcpConnection::connect("127.0.0.1", dead_port),
               std::system_error);
}

TEST(Socket, ConnectTimeoutIsBounded) {
  // A listener that never accepts: once its accept backlog (64) is full the
  // kernel stops answering SYNs, so a deadline-less connect would sit in
  // SYN retransmission for minutes. With timeout_ms set, the attempt must
  // fail on the deadline instead (or immediately, on stacks that RST).
  TcpListener listener(0);
  std::vector<TcpConnection> filler;
  bool failed = false;
  const auto start = std::chrono::steady_clock::now();
  try {
    for (int i = 0; i < 100; ++i) {
      filler.push_back(
          TcpConnection::connect("127.0.0.1", listener.port(), 250));
    }
  } catch (const std::system_error&) {
    failed = true;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(failed);
  EXPECT_LT(elapsed.count(), 10000);
}

TEST(Socket, TryConnectReportsFailureWithoutThrowing) {
  std::uint16_t dead_port;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }  // listener closed
  EXPECT_FALSE(
      TcpConnection::try_connect("127.0.0.1", dead_port, 200).has_value());
  TcpListener listener(0);
  const auto conn =
      TcpConnection::try_connect("127.0.0.1", listener.port(), 200);
  ASSERT_TRUE(conn.has_value());
  EXPECT_TRUE(conn->valid());
}

TEST(Socket, NonblockingRecvReturnsNulloptWhenIdle) {
  TcpListener listener(0);
  auto client = TcpConnection::connect("127.0.0.1", listener.port());
  auto served = listener.accept();
  ASSERT_TRUE(served.has_value());
  client.set_nonblocking(true);
  std::array<std::byte, 8> buf;
  EXPECT_FALSE(client.recv_some(buf).has_value());
}

// Nagle must be off on every connect path — deadline-less, with timeout, and
// on accepted sockets — or heartbeat/poll frames sit in the kernel for an
// RTT and the liveness math in the coordinator drifts.
TEST(Socket, ConnectedSocketsHaveNodelay) {
  const auto nodelay_on = [](int fd) {
    int flag = 0;
    socklen_t len = sizeof(flag);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &flag, &len), 0);
    return flag != 0;
  };
  TcpListener listener(0);
  auto plain = TcpConnection::connect("127.0.0.1", listener.port());
  auto accepted_plain = listener.accept();
  ASSERT_TRUE(accepted_plain.has_value());
  auto timed = TcpConnection::connect("127.0.0.1", listener.port(), 500);
  auto accepted_timed = listener.accept();
  ASSERT_TRUE(accepted_timed.has_value());
  EXPECT_TRUE(nodelay_on(plain.fd()));
  EXPECT_TRUE(nodelay_on(timed.fd()));
  EXPECT_TRUE(nodelay_on(accepted_plain->fd()));
  EXPECT_TRUE(nodelay_on(accepted_timed->fd()));
}

namespace {
void eintr_noop_handler(int) {}
}  // namespace

// TcpConnection::connect's poll(2) wait must retry across EINTR (shrinking
// the remaining budget) instead of reporting a connect failure. A SIGALRM
// interval timer storms this thread while a deadline'd connect completes
// against a live listener, and while another attempt times out against a
// backlog-saturated one — both outcomes must match the storm-free behavior.
TEST(Socket, ConnectRetriesAcrossEintr) {
  struct sigaction storm {};
  storm.sa_handler = eintr_noop_handler;  // no SA_RESTART: syscalls see EINTR
  sigemptyset(&storm.sa_mask);
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGALRM, &storm, &previous), 0);
  itimerval interval{};
  interval.it_interval.tv_usec = 2000;
  interval.it_value.tv_usec = 2000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &interval, nullptr), 0);

  // Live listener: the connect must succeed despite interrupted polls.
  {
    TcpListener listener(0);
    auto conn = TcpConnection::connect("127.0.0.1", listener.port(), 2000);
    EXPECT_TRUE(conn.valid());
  }

  // Saturated backlog: the deadline must still bound the attempt — EINTR
  // retries shrink the remaining budget rather than restarting it.
  {
    TcpListener listener(0);
    std::vector<TcpConnection> filler;
    bool failed = false;
    const auto start = std::chrono::steady_clock::now();
    try {
      for (int i = 0; i < 100; ++i) {
        filler.push_back(
            TcpConnection::connect("127.0.0.1", listener.port(), 250));
      }
    } catch (const std::system_error&) {
      failed = true;
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_TRUE(failed);
    EXPECT_LT(elapsed.count(), 10000);
  }

  itimerval off{};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &off, nullptr), 0);
  ASSERT_EQ(::sigaction(SIGALRM, &previous, nullptr), 0);
}

// request_reply's deadline covers the wait for the reply: a listener that
// completes the handshake and never answers costs timeout_ms, not forever
// (a blocking recv would never re-check it). A closed port is a connect
// failure, reported apart from a broken exchange.
TEST(Socket, RequestReplyHonoursItsDeadline) {
  TcpListener silent(0);  // the kernel accepts; nobody ever answers
  net::RequestError error{};
  const auto start = std::chrono::steady_clock::now();
  const auto reply = net::request_reply("127.0.0.1", silent.port(), 300,
                                        Message{net::ListTasks{}}, &error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(error, net::RequestError::kTransport);
  EXPECT_LT(elapsed.count(), 300 + 200);

  std::uint16_t dead_port = 0;
  {
    TcpListener closed(0);
    dead_port = closed.port();
  }
  EXPECT_FALSE(net::request_reply("127.0.0.1", dead_port, 300,
                                  Message{net::ListTasks{}}, &error)
                   .has_value());
  EXPECT_EQ(error, net::RequestError::kConnect);
}

// End-to-end distributed session: one coordinator, three monitors over
// localhost TCP. Monitor 0 carries a sustained violation window; the other
// two stay quiet. The coordinator must see global polls and, because the
// aggregate crosses T, record at least one alert.
TEST(NetIntegration, CoordinatorAndMonitorsDetectViolation) {
  constexpr Tick kTicks = 400;
  net::CoordinatorNodeOptions copt;
  copt.monitors = 3;
  copt.global_threshold = 10.0;
  copt.error_allowance = 0.03;
  net::CoordinatorNode coordinator(copt);

  std::vector<std::unique_ptr<CallableSource>> sources;
  sources.push_back(std::make_unique<CallableSource>(
      [](Tick t) { return (t >= 200 && t < 260) ? 20.0 : 0.5; }, kTicks));
  sources.push_back(std::make_unique<CallableSource>(
      [](Tick) { return 0.5; }, kTicks));
  sources.push_back(std::make_unique<CallableSource>(
      [](Tick) { return 0.5; }, kTicks));

  std::vector<std::unique_ptr<net::MonitorNode>> nodes;
  for (MonitorId id = 0; id < 3; ++id) {
    net::MonitorNodeOptions mopt;
    mopt.id = id;
    mopt.coordinator_port = coordinator.port();
    mopt.local_threshold = 10.0 / 3.0;
    mopt.sampler.error_allowance = 0.01;
    mopt.sampler.patience = 3;
    mopt.sampler.max_interval = 8;
    mopt.ticks = kTicks;
    mopt.updating_period = 100;
    mopt.tick_micros = 300;
    nodes.push_back(
        std::make_unique<net::MonitorNode>(mopt, *sources[id]));
  }

  std::thread coord_thread([&coordinator] { coordinator.run(); });
  std::vector<std::thread> monitor_threads;
  monitor_threads.reserve(nodes.size());
  for (auto& node : nodes) {
    monitor_threads.emplace_back([&node] { node->run(); });
  }
  for (auto& t : monitor_threads) t.join();
  coord_thread.join();

  EXPECT_GT(coordinator.global_polls(), 0);
  ASSERT_FALSE(coordinator.alerts().empty());
  for (const auto& alert : coordinator.alerts()) {
    EXPECT_GT(alert.value, 10.0);
  }
  // Every monitor reported its op totals on Bye.
  EXPECT_EQ(coordinator.reported_ops().size(), 3u);
  // Monitors saved ops versus periodic sampling on the quiet stretches.
  for (const auto& [id, ops] : coordinator.reported_ops()) {
    EXPECT_GT(ops, 0);
    EXPECT_LT(ops, kTicks);
  }
}

// The allowance reallocation path: monitors with different volatility run a
// session with StatsReports; the coordinator must issue AllowanceUpdates
// (observable as reallocations > 0) without breaking the session, and record
// each round as the sim Coordinator does: kAllowanceAdjusted events, the
// reallocation counter and one share observation per reachable monitor per
// round.
TEST(NetIntegration, AllowanceReallocationHappens) {
  constexpr Tick kTicks = 500;
  net::CoordinatorNodeOptions copt;
  copt.monitors = 2;
  copt.global_threshold = 100.0;
  copt.error_allowance = 0.04;
  copt.adaptive_allocation = true;
  net::CoordinatorNode coordinator(copt);

  CallableSource quiet([](Tick) { return 0.1; }, kTicks);
  CallableSource wiggly(
      [](Tick t) { return 5.0 + 4.0 * ((t % 7) / 6.0); }, kTicks);

  net::MonitorNodeOptions m0;
  m0.id = 0;
  m0.coordinator_port = coordinator.port();
  m0.local_threshold = 50.0;
  m0.ticks = kTicks;
  m0.updating_period = 120;
  m0.tick_micros = 200;
  net::MonitorNodeOptions m1 = m0;
  m1.id = 1;
  net::MonitorNode node0(m0, quiet), node1(m1, wiggly);

  // The coordinator's loop thread records into a run-scoped registry and
  // trace sink (both bindings are thread-local).
  obs::MetricsRegistry registry;
  obs::TraceSink sink;
  std::thread ct([&] {
    obs::ScopedMetricsRegistry metrics_scope(registry);
    obs::ScopedTraceSink trace_scope(sink);
    coordinator.run();
  });
  std::thread t0([&node0] { node0.run(); });
  std::thread t1([&node1] { node1.run(); });
  t0.join();
  t1.join();
  ct.join();

  EXPECT_GT(coordinator.reallocations(), 0);
  bool adjusted = false;
  for (const auto& event : sink.snapshot()) {
    adjusted = adjusted ||
               (event.kind == obs::TraceKind::kAllowanceAdjusted &&
                event.monitor <= 1);
  }
  EXPECT_TRUE(adjusted) << "no allowance_adjusted event names monitor 0/1";
  const std::int64_t rounds = coordinator.reallocations();
  EXPECT_EQ(registry.counter("volley_coordinator_reallocations_total").value(),
            rounds);
  // Two shares per round, or one when a monitor said Bye before the other's
  // last StatsReport (done monitors leave the round). Each round's shares
  // sum to 1, so the observations sum to the round count either way.
  const auto shares =
      registry.histogram("volley_coordinator_allowance_share", 0.0, 1.0, 20)
          .snapshot();
  EXPECT_GE(shares.count(), rounds);
  EXPECT_LE(shares.count(), 2 * rounds);
  if (shares.count() > 0) {
    EXPECT_NEAR(shares.mean() * static_cast<double>(shares.count()),
                static_cast<double>(rounds), 1e-9);
  }
}

// Introspection endpoint: a stats client connects mid-session, sends
// StatsRequest instead of Hello, gets one StatsReply with the metrics
// snapshot (and the trace export), and the monitoring session is untouched
// — the stats client never counts toward the expected monitors.
TEST(NetIntegration, StatsEndpointServesMetricsMidSession) {
  constexpr Tick kTicks = 1500;
  net::CoordinatorNodeOptions copt;
  copt.monitors = 2;
  copt.global_threshold = 10.0;
  copt.error_allowance = 0.03;
  net::CoordinatorNode coordinator(copt);

  CallableSource hot(
      [](Tick t) { return (t % 100 < 20) ? 20.0 : 0.5; }, kTicks);
  CallableSource quiet([](Tick) { return 0.5; }, kTicks);

  net::MonitorNodeOptions m0;
  m0.id = 0;
  m0.coordinator_port = coordinator.port();
  m0.local_threshold = 5.0;
  m0.sampler.patience = 3;
  m0.sampler.max_interval = 8;
  m0.ticks = kTicks;
  m0.updating_period = 300;
  m0.tick_micros = 300;
  net::MonitorNodeOptions m1 = m0;
  m1.id = 1;
  net::MonitorNode node0(m0, hot), node1(m1, quiet);

  std::thread ct([&coordinator] { coordinator.run(); });
  std::thread t0([&node0] { node0.run(); });
  std::thread t1([&node1] { node1.run(); });

  // Let the session get going, then query it from the side.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  StatsRequest request;
  request.flags = StatsRequest::kIncludeTrace;
  const auto reply =
      net::request_reply("127.0.0.1", coordinator.port(), 3000, request);
  ASSERT_TRUE(reply.has_value()) << "no StatsReply within the deadline";
  const auto* stats = std::get_if<StatsReply>(&*reply);
  ASSERT_NE(stats, nullptr);
  // The Prometheus snapshot names the net-runtime instruments and the trace
  // export carries events from the in-process monitors.
  EXPECT_NE(stats->metrics.find("volley_net_stats_requests_total"),
            std::string::npos);
  EXPECT_NE(stats->metrics.find("volley_sampler_observations_total"),
            std::string::npos);
  EXPECT_FALSE(stats->trace_jsonl.empty());

  t0.join();
  t1.join();
  ct.join();

  // The session completed normally: both real monitors said Bye and the
  // stats client never became a phantom third monitor.
  EXPECT_EQ(coordinator.reported_ops().size(), 2u);
  EXPECT_GT(coordinator.global_polls(), 0);
}

// One write carrying Hello plus 3000 heartbeats (~51 KB) fills the
// coordinator's 8 KiB read buffer several times over. Ingress stops at a
// short read and relies on level-triggered readiness for the rest, so every
// heartbeat must still be acked, once and in order, on the one session.
TEST(NetIntegration, BurstLargerThanReadBufferAcksEveryHeartbeatInOrder) {
  constexpr std::uint64_t kBeats = 3000;
  net::CoordinatorNodeOptions copt;
  copt.monitors = 1;
  copt.global_threshold = 10.0;
  copt.error_allowance = 0.02;
  net::CoordinatorNode coordinator(copt);
  std::thread ct([&coordinator] { coordinator.run(); });

  auto conn = TcpConnection::connect("127.0.0.1", coordinator.port(), 2000);
  std::vector<std::byte> burst = frame_payload(net::encode(Message{Hello{0}}));
  for (std::uint64_t seq = 1; seq <= kBeats; ++seq) {
    const auto frame = frame_payload(net::encode(Message{Heartbeat{0, seq}}));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_GT(burst.size(), 4 * 8192U);
  ASSERT_TRUE(conn.send_all(burst));

  std::vector<std::uint64_t> acked;
  FrameReader reader;
  std::array<std::byte, 4096> buf;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (acked.size() < kBeats && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{conn.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const auto n = conn.recv_some(buf);
    if (!n || *n == 0) break;  // the coordinator closed the session
    reader.feed(std::span<const std::byte>(buf.data(), *n));
    while (auto payload = reader.next()) {
      const auto message = net::decode(as_bytes(*payload));
      if (message && std::holds_alternative<HeartbeatAck>(*message)) {
        acked.push_back(std::get<HeartbeatAck>(*message).seq);
      }
    }
  }
  EXPECT_TRUE(conn.send_all(frame_payload(net::encode(Message{Bye{0, 0, 0}}))));
  if (acked.size() != kBeats) coordinator.request_stop();
  ct.join();

  ASSERT_EQ(acked.size(), kBeats);
  for (std::uint64_t i = 0; i < kBeats; ++i) ASSERT_EQ(acked[i], i + 1);
  EXPECT_EQ(coordinator.reported_ops().count(0), 1u);
}

// --- failure model -------------------------------------------------------
//
// The scripted scenarios below drive the coordinator with FakeMonitor — a
// synchronous protocol client controlled from the test thread — so the
// exact timing of deaths, silences, and responses is deterministic.

class FakeMonitor {
 public:
  FakeMonitor(std::uint16_t port, MonitorId id, bool resume = false)
      : conn_(TcpConnection::connect("127.0.0.1", port, 2000)), id_(id) {
    send(Hello{id, resume});
  }

  void send(const Message& message) {
    EXPECT_TRUE(conn_.send_all(frame_payload(net::encode(message))))
        << "FakeMonitor " << id_ << ": send failed";
  }

  void close() { conn_.close(); }

  /// Reads until a message of type T arrives (skipping any other type);
  /// fails the test and returns T{} on timeout or peer close.
  template <typename T>
  T await(int timeout_ms = 2500) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    std::array<std::byte, 4096> buf;
    for (;;) {
      while (auto payload = reader_.next()) {
        const auto message = net::decode(as_bytes(*payload));
        if (message && std::holds_alternative<T>(*message)) {
          return std::get<T>(*message);
        }
      }
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) break;
      pollfd pfd{conn_.fd(), POLLIN, 0};
      ::poll(&pfd, 1, static_cast<int>(remaining));
      if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const auto n = conn_.recv_some(buf);
      if (n && *n == 0) {
        ADD_FAILURE() << "FakeMonitor " << id_ << ": peer closed while "
                      << "awaiting a message";
        return T{};
      }
      if (n && *n > 0) {
        reader_.feed(std::span<const std::byte>(buf.data(), *n));
      }
    }
    ADD_FAILURE() << "FakeMonitor " << id_ << ": timed out awaiting message";
    return T{};
  }

 private:
  TcpConnection conn_;
  FrameReader reader_;
  MonitorId id_;
};

// Scenario: a monitor dies mid-poll. The in-flight poll must complete with
// the dead monitor's last known value (the simulator's poll_response_loss
// fallback), and past the staleness bound the monitor is declared dead, its
// allowance reclaimed for the survivors, and aggregation continues without
// it.
TEST(NetFaults, MonitorDeathStalePollThenAllowanceReclaim) {
  net::CoordinatorNodeOptions copt;
  copt.monitors = 3;
  copt.global_threshold = 10.0;
  copt.error_allowance = 0.03;
  copt.poll_timeout_ms = 3000;
  copt.heartbeat_timeout_ms = 3000;  // deaths come from EOF, not silence
  copt.staleness_bound_ms = 250;
  copt.idle_timeout_ms = 10000;
  net::CoordinatorNode coordinator(copt);
  std::thread coord_thread([&coordinator] { coordinator.run(); });

  FakeMonitor f0(coordinator.port(), 0);
  FakeMonitor f1(coordinator.port(), 1);
  FakeMonitor f2(coordinator.port(), 2);

  // Poll 1: all three answer; monitor 0 carries the violation.
  f0.send(LocalViolation{0, 5, 12.0});
  auto poll = f0.await<PollRequest>();
  f0.send(PollResponse{0, poll.poll_id, 5, 20.0});
  poll = f1.await<PollRequest>();
  f1.send(PollResponse{1, poll.poll_id, 5, 1.0});
  poll = f2.await<PollRequest>();
  f2.send(PollResponse{2, poll.poll_id, 5, 1.0});

  // Poll 2: monitor 0 reports a violation, then dies before answering.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  f0.send(LocalViolation{0, 10, 12.0});
  f0.close();
  poll = f1.await<PollRequest>();
  f1.send(PollResponse{1, poll.poll_id, 10, 1.0});
  poll = f2.await<PollRequest>();
  f2.send(PollResponse{2, poll.poll_id, 10, 1.0});

  // Past the staleness bound the dead monitor's allowance is reclaimed:
  // survivors get pushed their rescaled share (0.03/2 each, from 0.03/3).
  const auto update1 = f1.await<AllowanceUpdate>();
  EXPECT_NEAR(update1.error_allowance, 0.015, 1e-9);
  const auto update2 = f2.await<AllowanceUpdate>();
  EXPECT_NEAR(update2.error_allowance, 0.015, 1e-9);

  // Poll 3: the survivors alone cross T; the dead monitor is excluded.
  f1.send(LocalViolation{1, 20, 8.0});
  poll = f1.await<PollRequest>();
  f1.send(PollResponse{1, poll.poll_id, 20, 8.0});
  poll = f2.await<PollRequest>();
  f2.send(PollResponse{2, poll.poll_id, 20, 5.0});

  f1.send(Bye{1, 50, 5});
  f2.send(Bye{2, 60, 6});
  f1.await<Shutdown>();
  f2.await<Shutdown>();
  coord_thread.join();

  EXPECT_EQ(coordinator.global_polls(), 3);
  ASSERT_EQ(coordinator.alerts().size(), 3u);
  EXPECT_NEAR(coordinator.alerts()[0].value, 22.0, 1e-9);
  // Poll 2 settled with monitor 0's last known value: 1 + 1 + stale 20.
  EXPECT_NEAR(coordinator.alerts()[1].value, 22.0, 1e-9);
  // Poll 3 excluded the dead monitor entirely: 8 + 5.
  EXPECT_NEAR(coordinator.alerts()[2].value, 13.0, 1e-9);

  const auto& faults = coordinator.fault_stats();
  EXPECT_EQ(faults.stale_polls, 1);
  EXPECT_EQ(faults.stale_values, 1);
  EXPECT_GE(faults.suspected, 1);
  EXPECT_EQ(faults.declared_dead, 1);
  EXPECT_GE(faults.allowance_reclaims, 1);
  EXPECT_EQ(coordinator.reported_ops().size(), 2u);  // survivors' Byes only
}

// Scenario: the coordinator crashes mid-run (request_stop drops the
// connections without a Shutdown) and a successor comes up on the same
// port. The monitor must ride it out in degraded mode, reconnect with
// backoff, resync via Hello{resume}, and complete the session.
TEST(NetFaults, CoordinatorRestartMonitorReconnectsAndResumes) {
  net::CoordinatorNodeOptions copt;
  copt.monitors = 1;
  copt.global_threshold = 100.0;
  copt.error_allowance = 0.02;
  auto first = std::make_unique<net::CoordinatorNode>(copt);
  const std::uint16_t port = first->port();
  std::thread first_thread([&first] { first->run(); });

  constexpr Tick kTicks = 1500;
  CallableSource quiet([](Tick) { return 0.5; }, kTicks);
  net::MonitorNodeOptions mopt;
  mopt.id = 0;
  mopt.coordinator_port = port;
  mopt.local_threshold = 50.0;
  mopt.ticks = kTicks;
  mopt.updating_period = 400;
  mopt.tick_micros = 400;  // ~600 ms run
  mopt.heartbeat_interval_ms = 50;
  mopt.coordinator_timeout_ms = 400;
  mopt.connect_timeout_ms = 300;
  mopt.reconnect_backoff_ms = 20;
  mopt.reconnect_backoff_max_ms = 100;
  mopt.max_reconnect_attempts = 200;
  net::MonitorNode monitor(mopt, quiet);
  std::thread monitor_thread([&monitor] { monitor.run(); });

  // Crash the first coordinator mid-run; leave a gap with no listener so
  // the monitor provably runs degraded and retries with backoff.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  first->request_stop();
  first_thread.join();
  first.reset();  // closes listener + connection: the monitor sees EOF
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  copt.port = port;
  net::CoordinatorNode successor(copt);
  std::thread successor_thread([&successor] { successor.run(); });

  monitor_thread.join();
  successor_thread.join();

  EXPECT_GE(monitor.reconnects(), 1);
  EXPECT_GT(monitor.degraded_ticks(), 0);
  EXPECT_FALSE(monitor.coordinator_lost());
  // The successor saw the resumed session through to its Bye.
  EXPECT_EQ(successor.reported_ops().size(), 1u);
  EXPECT_GE(successor.fault_stats().reconnects, 1);
}

// A coordinator that is up but never completes a handshake (full accept
// queue): every connect attempt waits out connect_timeout_ms. Degraded
// sampling must keep its tick cadence meanwhile — no window goes
// unobserved because the node sat in a connect. A watchdog stops the node
// so a regression fails instead of hanging.
TEST(NetFaults, StalledConnectKeepsDegradedTickCadence) {
  constexpr Tick kTicks = 500;
  testing::StalledListener coordinator;
  CallableSource quiet([](Tick) { return 0.5; }, kTicks);
  net::MonitorNodeOptions mopt;
  mopt.id = 0;
  mopt.coordinator_port = coordinator.port();
  mopt.local_threshold = 50.0;
  mopt.ticks = kTicks;
  mopt.tick_micros = 1000;  // 0.5 s of ticks
  mopt.connect_timeout_ms = 500;
  net::MonitorNode monitor(mopt, quiet);

  const auto start = std::chrono::steady_clock::now();
  std::thread runner([&monitor] { monitor.run(); });
  std::atomic<bool> finished{false};
  std::thread watchdog([&monitor, &finished] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(4);
    while (!finished.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    monitor.request_stop();
  });
  runner.join();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  finished.store(true);
  watchdog.join();

  EXPECT_LE(seconds, 1.5);
  EXPECT_EQ(monitor.degraded_ticks(), kTicks);
  EXPECT_EQ(monitor.reconnects(), 0);
}

// poll_timeout_ms: a poll blocked on a live-but-unresponsive monitor must
// settle with the responses that arrived (no last known value -> simply
// aggregate without the silent monitor).
/// Blocks until the peer closes `conn` (recv returns 0); false on timeout.
bool await_peer_close(TcpConnection& conn, int timeout_ms) {
  std::array<std::byte, 256> buf;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{conn.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    const auto n = conn.recv_some(buf);
    if (n && *n == 0) return true;
  }
  return false;
}

// A corrupt length prefix (0xFFFFFFFF, far above kMaxFrameBytes) is peer
// loss for that one connection, never a process abort: the coordinator
// drops a raw pre-Hello client and a bound session that send it, keeps
// serving the real monitor, and settles that monitor's polls.
TEST(NetFaults, OversizedLengthPrefixDropsOnlyThatPeer) {
  constexpr Tick kTicks = 300;
  net::CoordinatorNodeOptions copt;
  copt.monitors = 2;
  copt.global_threshold = 10.0;
  copt.error_allowance = 0.02;
  copt.staleness_bound_ms = 300;  // the dropped session goes dead quickly
  net::CoordinatorNode coordinator(copt);
  std::thread ct([&coordinator] { coordinator.run(); });

  const std::array<std::byte, 4> evil{std::byte{0xFF}, std::byte{0xFF},
                                      std::byte{0xFF}, std::byte{0xFF}};
  // Pre-Hello: a raw client's first four bytes are the bad prefix.
  auto raw = TcpConnection::try_connect("127.0.0.1", coordinator.port(), 1000);
  ASSERT_TRUE(raw.has_value());
  ASSERT_TRUE(raw->send_all(evil));
  EXPECT_TRUE(await_peer_close(*raw, 2000));
  // Bound session: monitor 1 says Hello, then sends the bad prefix.
  auto bound = TcpConnection::try_connect("127.0.0.1", coordinator.port(), 1000);
  ASSERT_TRUE(bound.has_value());
  ASSERT_TRUE(bound->send_all(frame_payload(net::encode(Message{Hello{1}}))));
  ASSERT_TRUE(bound->send_all(evil));
  EXPECT_TRUE(await_peer_close(*bound, 2000));

  CallableSource spiky(
      [](Tick t) { return (t >= 100 && t < 160) ? 20.0 : 0.5; }, kTicks);
  net::MonitorNodeOptions mopt;
  mopt.id = 0;
  mopt.coordinator_port = coordinator.port();
  mopt.local_threshold = 10.0;
  mopt.ticks = kTicks;
  mopt.updating_period = 100;
  mopt.tick_micros = 300;
  net::MonitorNode monitor(mopt, spiky);
  std::thread mt([&monitor] { monitor.run(); });
  mt.join();
  ct.join();

  EXPECT_GT(coordinator.global_polls(), 0);
  EXPECT_EQ(coordinator.poll_settle_ms().size(),
            static_cast<std::size_t>(coordinator.global_polls()));
  EXPECT_FALSE(coordinator.alerts().empty());
  EXPECT_EQ(coordinator.reported_ops().count(0), 1u);
  EXPECT_EQ(coordinator.fault_stats().declared_dead, 1);
}

TEST(NetFaults, PollTimeoutSettlesWithPartialResponses) {
  net::CoordinatorNodeOptions copt;
  copt.monitors = 2;
  copt.global_threshold = 3.0;
  copt.error_allowance = 0.02;
  copt.poll_timeout_ms = 120;
  copt.heartbeat_timeout_ms = 5000;  // the silent monitor stays "active"
  copt.staleness_bound_ms = 5000;
  copt.idle_timeout_ms = 10000;
  net::CoordinatorNode coordinator(copt);
  std::thread coord_thread([&coordinator] { coordinator.run(); });

  FakeMonitor f0(coordinator.port(), 0);
  FakeMonitor f1(coordinator.port(), 1);
  f0.send(LocalViolation{0, 3, 5.0});
  const auto poll = f0.await<PollRequest>();
  f0.send(PollResponse{0, poll.poll_id, 3, 5.0});
  f1.await<PollRequest>();  // received, deliberately never answered

  // Give the poll time to hit poll_timeout_ms, then wind the session down.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  f0.send(Bye{0, 10, 1});
  f1.send(Bye{1, 12, 2});
  f0.await<Shutdown>();
  f1.await<Shutdown>();
  coord_thread.join();

  EXPECT_EQ(coordinator.global_polls(), 1);
  ASSERT_EQ(coordinator.alerts().size(), 1u);
  EXPECT_NEAR(coordinator.alerts()[0].value, 5.0, 1e-9);
  // The non-responder had no last known value, so nothing was stale.
  EXPECT_EQ(coordinator.fault_stats().stale_polls, 0);
}

// idle_timeout_ms: a session that goes fully silent (here: one of two
// monitors joins, then nothing) must abort instead of hanging forever.
TEST(NetFaults, IdleTimeoutAbortsSilentSession) {
  net::CoordinatorNodeOptions copt;
  copt.monitors = 2;
  copt.idle_timeout_ms = 150;
  copt.heartbeat_timeout_ms = 10000;
  copt.staleness_bound_ms = 10000;
  net::CoordinatorNode coordinator(copt);
  const auto start = std::chrono::steady_clock::now();
  std::thread coord_thread([&coordinator] { coordinator.run(); });
  FakeMonitor f0(coordinator.port(), 0);  // joins, then never speaks again
  coord_thread.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 5000);
  EXPECT_TRUE(coordinator.reported_ops().empty());
}

// Chaos proxy, transport fault: a mid-stream cut after N frames. The
// monitor must notice the dead link, reconnect through the proxy, resume
// its session, and still deliver its Bye.
TEST(NetFaults, ChaosProxyCutForcesReconnect) {
  net::CoordinatorNodeOptions copt;
  copt.monitors = 1;
  copt.global_threshold = 100.0;
  copt.error_allowance = 0.02;
  copt.heartbeat_timeout_ms = 1500;
  copt.staleness_bound_ms = 6000;
  net::CoordinatorNode coordinator(copt);

  net::ChaosProxyOptions popt;
  popt.upstream_port = coordinator.port();
  popt.plan.disconnect_after_frames = 40;
  popt.plan.max_disconnects = 1;
  net::ChaosProxy proxy(popt);

  constexpr Tick kTicks = 2000;
  CallableSource quiet([](Tick) { return 0.5; }, kTicks);
  net::MonitorNodeOptions mopt;
  mopt.id = 0;
  mopt.coordinator_port = proxy.port();
  mopt.local_threshold = 50.0;
  mopt.ticks = kTicks;
  mopt.updating_period = 500;
  mopt.tick_micros = 400;           // ~800 ms run
  mopt.heartbeat_interval_ms = 10;  // frames flow fast: the cut lands early
  mopt.coordinator_timeout_ms = 500;
  mopt.connect_timeout_ms = 300;
  mopt.reconnect_backoff_ms = 20;
  mopt.reconnect_backoff_max_ms = 100;
  net::MonitorNode monitor(mopt, quiet);

  std::thread coord_thread([&coordinator] { coordinator.run(); });
  std::thread proxy_thread([&proxy] { proxy.run(); });
  std::thread monitor_thread([&monitor] { monitor.run(); });
  monitor_thread.join();
  coord_thread.join();
  proxy.request_stop();
  proxy_thread.join();

  EXPECT_EQ(proxy.stats().disconnects, 1);
  EXPECT_GE(monitor.reconnects(), 1);
  EXPECT_FALSE(monitor.coordinator_lost());
  EXPECT_GE(coordinator.fault_stats().reconnects, 1);
  EXPECT_EQ(coordinator.reported_ops().size(), 1u);
}

// Chaos proxy, message faults: seeded frame drops, delays, and partial
// writes on every link. A sustained violation must still be detected (the
// stale-value fallback and repeated reports absorb the losses), and the
// session must complete for all monitors.
TEST(NetFaults, ChaosProxyLossyLinkStillDetects) {
  net::CoordinatorNodeOptions copt;
  copt.monitors = 2;
  copt.global_threshold = 10.0;
  copt.error_allowance = 0.03;
  copt.poll_timeout_ms = 80;
  copt.heartbeat_timeout_ms = 1000;
  copt.staleness_bound_ms = 6000;
  net::CoordinatorNode coordinator(copt);

  net::ChaosProxyOptions popt;
  popt.upstream_port = coordinator.port();
  popt.plan.message_loss.violation_report_loss = 0.25;
  popt.plan.message_loss.poll_response_loss = 0.15;
  popt.plan.message_loss.seed = 7;
  popt.plan.heartbeat_loss = 0.2;
  popt.plan.delay_prob = 0.2;
  popt.plan.delay_ms = 10;
  popt.plan.partial_write_prob = 0.2;
  net::ChaosProxy proxy(popt);

  constexpr Tick kTicks = 1500;
  CallableSource spiky(
      [](Tick t) { return (t >= 400 && t < 1200) ? 30.0 : 0.5; }, kTicks);
  CallableSource quiet([](Tick) { return 0.5; }, kTicks);

  std::vector<std::unique_ptr<net::MonitorNode>> nodes;
  for (MonitorId id = 0; id < 2; ++id) {
    net::MonitorNodeOptions mopt;
    mopt.id = id;
    mopt.coordinator_port = proxy.port();
    mopt.local_threshold = 5.0;
    mopt.ticks = kTicks;
    mopt.updating_period = 500;
    mopt.tick_micros = 400;  // violation window ~320 ms: several polls
    mopt.heartbeat_interval_ms = 50;
    mopt.coordinator_timeout_ms = 600;
    mopt.connect_timeout_ms = 300;
    mopt.reconnect_backoff_ms = 20;
    mopt.reconnect_backoff_max_ms = 100;
    nodes.push_back(std::make_unique<net::MonitorNode>(
        mopt, id == 0 ? static_cast<const MetricSource&>(spiky) : quiet));
  }

  std::thread coord_thread([&coordinator] { coordinator.run(); });
  std::thread proxy_thread([&proxy] { proxy.run(); });
  std::vector<std::thread> monitor_threads;
  for (auto& node : nodes) {
    monitor_threads.emplace_back([&node] { node->run(); });
  }
  for (auto& t : monitor_threads) t.join();
  coord_thread.join();
  proxy.request_stop();
  proxy_thread.join();

  EXPECT_GT(coordinator.global_polls(), 0);
  EXPECT_FALSE(coordinator.alerts().empty());
  EXPECT_EQ(coordinator.reported_ops().size(), 2u);
  const auto& stats = proxy.stats();
  EXPECT_GT(stats.forwarded_frames, 0);
  EXPECT_GT(stats.dropped_violations + stats.dropped_responses +
                stats.dropped_heartbeats,
            0);
  EXPECT_GT(stats.delayed_frames + stats.partial_writes, 0);
}

// Idle-CPU regression: a proxy with a live but silent link must perform
// ZERO event-loop turns across a quiet window (a 5 ms poll loop would turn
// ~60 times in the same window).
TEST(NetFaults, IdleChaosProxyPerformsNoWakeups) {
  TcpListener upstream(0);
  net::ChaosProxyOptions popt;
  popt.upstream_port = upstream.port();
  net::ChaosProxy proxy(popt);
  std::thread proxy_thread([&proxy] { proxy.run(); });

  // Establish a proxied link and push one frame through it so the test
  // measures an idle *session*, not an unused listener.
  auto client = TcpConnection::connect("127.0.0.1", proxy.port(), 2000);
  auto accepted = upstream.accept();
  ASSERT_TRUE(accepted.has_value());
  const auto framed = frame_payload(net::encode(Message{Hello{1}}));
  ASSERT_TRUE(client.send_all(framed));
  std::array<std::byte, 256> buf;
  std::size_t received = 0;
  while (received < framed.size()) {
    const auto n = accepted->recv_some(buf);  // blocking socket
    ASSERT_TRUE(n.has_value());
    ASSERT_GT(*n, 0u);
    received += *n;
  }

  // Let the dispatch that forwarded the frame settle, then sample.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto before = proxy.loop_wakeups();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto after = proxy.loop_wakeups();
  EXPECT_EQ(after, before) << "idle reactor proxy must sleep in epoll";

  proxy.request_stop();
  proxy_thread.join();
  EXPECT_EQ(proxy.stats().forwarded_frames, 1);
}

// --- control plane, end to end -------------------------------------------

/// One-shot control exchange expecting a reply of type T (the coordinator
/// answers control frames pre-Hello and disconnects).
template <typename T>
std::optional<T> control_round_trip(std::uint16_t port,
                                    const Message& request,
                                    int timeout_ms = 2500) {
  const auto reply =
      net::request_reply("127.0.0.1", port, timeout_ms, request);
  if (reply && std::holds_alternative<T>(*reply)) return std::get<T>(*reply);
  return std::nullopt;
}

class NetControlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_base_ = ::testing::TempDir() + "volley_net_registry_" +
                     std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  void TearDown() override {
    std::remove((registry_base_ + ".snapshot").c_str());
    std::remove((registry_base_ + ".snapshot.tmp").c_str());
    std::remove((registry_base_ + ".journal").c_str());
  }

  std::string registry_base_;
};

// The PR's acceptance scenario: a coordinator with three monitors runs the
// boot task; a control client registers a second task at runtime; the
// allowance is split and pushed to every monitor; both tasks raise alerts
// in the same session; and a restarted coordinator recovers the registry —
// both tasks, exact epochs — from the snapshot + journal.
TEST_F(NetControlTest, AddTaskReallocatesAlertsAndSurvivesRestart) {
  net::CoordinatorNodeOptions copt;
  copt.monitors = 3;
  copt.global_threshold = 10.0;  // boot task 0
  copt.error_allowance = 0.03;
  copt.poll_timeout_ms = 3000;
  copt.heartbeat_timeout_ms = 8000;
  copt.staleness_bound_ms = 8000;
  copt.idle_timeout_ms = 10000;
  copt.registry_path = registry_base_;
  auto coordinator = std::make_unique<net::CoordinatorNode>(copt);
  const std::uint16_t port = coordinator->port();
  std::thread coord_thread([&coordinator] { coordinator->run(); });

  FakeMonitor f0(port, 0);
  FakeMonitor f1(port, 1);
  FakeMonitor f2(port, 2);

  // Joining pushes the boot task's attach (the monitors' own boot seeding
  // makes it a no-op there, but on the wire it must carry epoch 1).
  const auto boot_attach = f0.await<net::TaskAttach>();
  EXPECT_EQ(boot_attach.task, kBootTaskId);
  EXPECT_EQ(boot_attach.epoch, kBootTaskEpoch);
  f1.await<net::TaskAttach>();
  f2.await<net::TaskAttach>();

  // A control client registers task 7 mid-session.
  TaskSpec second = control_spec(30.0);
  second.error_allowance = 0.06;
  const auto reply = control_round_trip<net::ControlReply>(
      port, net::AddTask{7, second});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, control::ControlStatus::kOk);
  EXPECT_EQ(reply->epoch, 2u);
  EXPECT_EQ(reply->registry_version, 2u);

  // Every monitor is attached to the new task with its even shares of the
  // threshold (30/3) and the task's error allowance (0.06/3).
  for (FakeMonitor* f : {&f0, &f1, &f2}) {
    const auto attach = f->await<net::TaskAttach>();
    EXPECT_EQ(attach.task, 7u);
    EXPECT_EQ(attach.epoch, 2u);
    EXPECT_NEAR(attach.local_threshold, 10.0, 1e-9);
    EXPECT_NEAR(attach.error_allowance, 0.02, 1e-9);
  }

  // ListTasks sees both tasks with their allowance splits.
  const auto list =
      control_round_trip<net::TaskListReply>(port, net::ListTasks{});
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(list->registry_version, 2u);
  ASSERT_EQ(list->tasks.size(), 2u);
  EXPECT_EQ(list->tasks[0].task, kBootTaskId);
  EXPECT_EQ(list->tasks[0].epoch, 1u);
  EXPECT_EQ(list->tasks[1].task, 7u);
  EXPECT_EQ(list->tasks[1].epoch, 2u);
  EXPECT_EQ(list->tasks[1].allowance_split.size(), 3u);

  // The boot task alerts: 20 + 1 + 1 crosses its threshold of 10.
  f0.send(LocalViolation{0, 5, 12.0, kBootTaskId});
  auto poll = f0.await<PollRequest>();
  EXPECT_EQ(poll.task, kBootTaskId);
  f0.send(PollResponse{0, poll.poll_id, 5, 20.0, kBootTaskId});
  poll = f1.await<PollRequest>();
  f1.send(PollResponse{1, poll.poll_id, 5, 1.0, kBootTaskId});
  poll = f2.await<PollRequest>();
  f2.send(PollResponse{2, poll.poll_id, 5, 1.0, kBootTaskId});

  // The new task alerts too: 20 + 20 + 5 crosses its threshold of 30.
  f1.send(LocalViolation{1, 9, 15.0, 7});
  poll = f1.await<PollRequest>();
  EXPECT_EQ(poll.task, 7u);
  f1.send(PollResponse{1, poll.poll_id, 9, 20.0, 7});
  poll = f0.await<PollRequest>();
  EXPECT_EQ(poll.task, 7u);
  f0.send(PollResponse{0, poll.poll_id, 9, 20.0, 7});
  poll = f2.await<PollRequest>();
  f2.send(PollResponse{2, poll.poll_id, 9, 5.0, 7});

  f0.send(Bye{0, 10, 1});
  f1.send(Bye{1, 10, 1});
  f2.send(Bye{2, 10, 1});
  f0.await<Shutdown>();
  f1.await<Shutdown>();
  f2.await<Shutdown>();
  coord_thread.join();

  ASSERT_EQ(coordinator->alerts().size(), 2u);
  EXPECT_EQ(coordinator->alerts()[0].task, kBootTaskId);
  EXPECT_NEAR(coordinator->alerts()[0].value, 22.0, 1e-9);
  EXPECT_EQ(coordinator->alerts()[1].task, 7u);
  EXPECT_NEAR(coordinator->alerts()[1].value, 45.0, 1e-9);
  EXPECT_EQ(coordinator->registry().version(), 2u);

  // Kill the coordinator and start a successor on the same registry path:
  // it must recover both tasks at their exact epochs from disk.
  coordinator.reset();
  net::CoordinatorNodeOptions ropt = copt;
  ropt.port = 0;
  ropt.global_threshold = 99.0;  // must NOT override the restored boot task
  net::CoordinatorNode successor(ropt);
  const auto& stats = successor.registry_load_stats();
  EXPECT_TRUE(stats.had_snapshot || stats.journal_ops > 0);
  EXPECT_TRUE(stats.journal_clean);
  EXPECT_EQ(successor.registry().version(), 2u);
  ASSERT_NE(successor.registry().find(kBootTaskId), nullptr);
  EXPECT_EQ(successor.registry().find(kBootTaskId)->epoch, 1u);
  EXPECT_DOUBLE_EQ(
      successor.registry().find(kBootTaskId)->spec.global_threshold, 10.0);
  ASSERT_NE(successor.registry().find(7), nullptr);
  EXPECT_EQ(successor.registry().find(7)->epoch, 2u);
  EXPECT_DOUBLE_EQ(successor.registry().find(7)->spec.global_threshold, 30.0);

  // A third incarnation reads the compacted snapshot alone (the successor's
  // load folded the journal into it) — still both tasks, same epochs.
  net::CoordinatorNode third(ropt);
  EXPECT_TRUE(third.registry_load_stats().had_snapshot);
  EXPECT_EQ(third.registry_load_stats().snapshot_tasks, 2u);
  EXPECT_EQ(third.registry_load_stats().journal_ops, 0u);
  EXPECT_EQ(third.registry().version(), 2u);
  ASSERT_NE(third.registry().find(7), nullptr);
  EXPECT_EQ(third.registry().find(7)->epoch, 2u);
}

// RemoveTask retires a live task: the monitors get TaskDetach with the
// removal epoch, the registry forgets the task, and a poll for it can no
// longer happen (the next ListTasks shows only the boot task).
TEST_F(NetControlTest, RemoveTaskDetachesMonitors) {
  net::CoordinatorNodeOptions copt;
  copt.monitors = 1;
  copt.global_threshold = 10.0;
  copt.error_allowance = 0.02;
  copt.heartbeat_timeout_ms = 8000;
  copt.staleness_bound_ms = 8000;
  copt.idle_timeout_ms = 10000;
  net::CoordinatorNode coordinator(copt);  // no registry path: memory only
  std::thread coord_thread([&coordinator] { coordinator.run(); });

  FakeMonitor f0(coordinator.port(), 0);
  f0.await<net::TaskAttach>();  // boot task

  const auto added = control_round_trip<net::ControlReply>(
      coordinator.port(), net::AddTask{3, control_spec(5.0)});
  ASSERT_TRUE(added.has_value());
  EXPECT_EQ(added->epoch, 2u);
  const auto attach = f0.await<net::TaskAttach>();
  EXPECT_EQ(attach.task, 3u);

  const auto removed = control_round_trip<net::ControlReply>(
      coordinator.port(), net::RemoveTask{3});
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->status, control::ControlStatus::kOk);
  EXPECT_EQ(removed->epoch, 3u);
  const auto detach = f0.await<net::TaskDetach>();
  EXPECT_EQ(detach.task, 3u);
  EXPECT_EQ(detach.epoch, 3u);

  // Mutations against the gone task now fail cleanly.
  const auto again = control_round_trip<net::ControlReply>(
      coordinator.port(), net::RemoveTask{3});
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, control::ControlStatus::kNotFound);

  const auto list = control_round_trip<net::TaskListReply>(coordinator.port(),
                                                           net::ListTasks{});
  ASSERT_TRUE(list.has_value());
  ASSERT_EQ(list->tasks.size(), 1u);
  EXPECT_EQ(list->tasks[0].task, kBootTaskId);
  // boot add (1), task add (2), remove (3); the failed remove consumed
  // no epoch, so the version stays at 3.
  EXPECT_EQ(list->registry_version, 3u);

  f0.send(Bye{0, 1, 0});
  f0.await<Shutdown>();
  coord_thread.join();
}

}  // namespace
}  // namespace volley
