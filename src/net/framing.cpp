#include "net/framing.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/log.h"
#include "net/io_counters.h"
#include "obs/metrics.h"

namespace volley {

std::vector<std::byte> frame_payload(std::span<const std::byte> payload) {
  if (payload.size() > kMaxFrameBytes)
    throw std::runtime_error("frame_payload: payload too large");
  std::vector<std::byte> out(4 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(out.data(), &len, 4);  // little-endian on all supported targets
  // An empty span may carry a null data() — memcpy from null is UB even
  // for zero bytes.
  if (!payload.empty())
    std::memcpy(out.data() + 4, payload.data(), payload.size());
  return out;
}

void FrameReader::feed(std::span<const std::byte> data) {
  if (corrupt_) return;
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<std::vector<std::byte>> FrameReader::next() {
  const std::size_t avail = buffer_.size() - offset_;
  if (avail < 4) return std::nullopt;
  std::uint32_t len = 0;
  std::memcpy(&len, buffer_.data() + offset_, 4);
  if (len > kMaxFrameBytes) {
    VLOG_WARN("framing", "oversized frame length ", len,
              "; dropping the stream");
    corrupt_ = true;
    buffer_.clear();
    offset_ = 0;
    return std::nullopt;
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  const auto begin = buffer_.begin() + static_cast<std::ptrdiff_t>(offset_);
  std::vector<std::byte> payload(begin + 4, begin + 4 + len);
  offset_ += 4 + static_cast<std::size_t>(len);
  if (offset_ == buffer_.size()) {
    buffer_.clear();
    offset_ = 0;
  } else if (offset_ >= kCompactBytes) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  return payload;
}

namespace {

struct WriterMetrics {
  obs::CounterCell* writev_calls{nullptr};
  obs::CounterCell* frames_written{nullptr};
  obs::HistogramCell* frames_per_write{nullptr};
};

const WriterMetrics& writer_metrics() {
  static auto make = [](obs::MetricsRegistry& m) {
    WriterMetrics h;
    h.writev_calls = &m.counter("volley_net_writev_calls_total",
                                "Vectored frame writes issued").cell();
    h.frames_written = &m.counter("volley_net_frames_written_total",
                                  "Frames fully drained to the kernel").cell();
    h.frames_per_write = &m.histogram(
        "volley_net_frames_per_writev", 0.0, 64.0, 32,
        "Frames gathered into one vectored write (batching factor)").cell();
    return h;
  };
  return obs::scoped_handles<WriterMetrics>(make);
}

}  // namespace

void FrameWriter::enqueue(std::vector<std::byte> frame) {
  queued_bytes_ += frame.size();
  queue_.push_back(std::move(frame));
}

FrameWriter::FlushResult FrameWriter::flush(int fd) {
  const auto& met = writer_metrics();
  while (!queue_.empty()) {
    iovec iov[kMaxIov];
    std::size_t n = 0;
    for (auto it = queue_.begin(); it != queue_.end() && n < kMaxIov; ++it) {
      const std::size_t skip = (n == 0) ? front_offset_ : 0;
      iov[n].iov_base =
          const_cast<std::byte*>(it->data() + skip);  // NOLINT: kernel ABI
      iov[n].iov_len = it->size() - skip;
      ++n;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    ssize_t w = 0;
    do {
      net::count_io_syscalls();
      w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    } while (w < 0 && errno == EINTR);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return FlushResult::kBlocked;
      return FlushResult::kPeerGone;
    }
    stats_.writev_calls += 1;
    stats_.bytes_written += w;
    met.writev_calls->inc();
    // Consume w bytes across the queue front.
    std::size_t remaining = static_cast<std::size_t>(w);
    queued_bytes_ -= remaining;
    int frames_done = 0;
    while (remaining > 0) {
      const std::size_t left = queue_.front().size() - front_offset_;
      if (remaining >= left) {
        remaining -= left;
        front_offset_ = 0;
        queue_.pop_front();
        ++frames_done;
      } else {
        front_offset_ += remaining;
        remaining = 0;
      }
    }
    if (frames_done != 0) {
      stats_.frames_written += frames_done;
      met.frames_written->inc(frames_done);
      met.frames_per_write->observe(static_cast<double>(frames_done));
    }
  }
  return FlushResult::kDrained;
}

FrameWriter::FlushResult FrameWriter::flush_blocking(int fd, int timeout_ms) {
  timespec start{};
  clock_gettime(CLOCK_MONOTONIC, &start);
  for (;;) {
    const FlushResult r = flush(fd);
    if (r != FlushResult::kBlocked) return r;
    timespec now{};
    clock_gettime(CLOCK_MONOTONIC, &now);
    const auto waited_ms =
        static_cast<int>((now.tv_sec - start.tv_sec) * 1000 +
                         (now.tv_nsec - start.tv_nsec) / 1000000);
    const int remaining = timeout_ms - waited_ms;
    if (remaining <= 0) return FlushResult::kBlocked;
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, remaining);
    if (ready < 0 && errno != EINTR) return FlushResult::kPeerGone;
  }
}

}  // namespace volley
