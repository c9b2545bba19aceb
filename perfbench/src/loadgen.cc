#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <cerrno>
#include <ctime>
#include <sstream>
#include <thread>

#include "net/socket.h"
#include "net/wire.h"
#include "report.h"

namespace perfbench {
namespace {

constexpr int kIoTimeoutMs = 5000;
/// Replies still missing this long after the last send count as timed out.
constexpr std::int64_t kDrainTimeoutNs = 2'000'000'000;

rtrec::Status SendAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      RTREC_RETURN_IF_ERROR(rtrec::WaitReady(fd, false, kIoTimeoutMs));
    } else {
      return rtrec::Status::Unavailable("send failed");
    }
  }
  return rtrec::Status::OK();
}

/// Blocking read of the next frame on a fresh connection.
rtrec::StatusOr<rtrec::Frame> ReadFrame(int fd, rtrec::FrameDecoder& decoder) {
  char buf[65536];
  for (;;) {
    rtrec::StatusOr<rtrec::Frame> frame = decoder.Next();
    if (frame.ok() || !frame.status().IsNotFound()) return frame;
    RTREC_RETURN_IF_ERROR(rtrec::WaitReady(fd, true, kIoTimeoutMs));
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return rtrec::Status::Unavailable("connection closed");
    decoder.Append(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

rtrec::StatusOr<rtrec::UniqueFd> ConnectV2(std::uint16_t port) {
  auto fd = rtrec::ConnectTcp("127.0.0.1", port, kIoTimeoutMs);
  if (!fd.ok()) return fd.status();
  rtrec::HelloRequest hello;
  hello.max_version = rtrec::kWireVersionV2;
  RTREC_RETURN_IF_ERROR(SendAll(fd->get(), rtrec::EncodeHelloRequest(1, hello)));
  rtrec::FrameDecoder decoder;
  auto frame = ReadFrame(fd->get(), decoder);
  if (!frame.ok()) return frame.status();
  if (frame->type != rtrec::MessageType::kHelloResponse) {
    return rtrec::Status::Internal("hello refused");
  }
  auto reply = rtrec::DecodeHelloResponse(*frame);
  if (!reply.ok()) return reply.status();
  if (reply->version != rtrec::kWireVersionV2) {
    return rtrec::Status::Internal("server did not negotiate wire v2");
  }
  return fd;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// One load thread: sends ops t, t + kLoadThreads, ... on schedule over
/// its own connection and matches replies by request id (op index + 1).
/// Adds its own CPU time to `cpu_s`.
void DriveConnection(int t, int fd, const LoadOptions& options,
                     const std::vector<Op>& ops,
                     const std::vector<rtrec::RecRequest>& requests,
                     const std::vector<rtrec::UserAction>& actions,
                     std::int64_t start_ns, std::vector<OpResult>& results,
                     double& cpu_s) {
  const double cpu0 = ThreadCpuSeconds();
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // Wake on schedule, not +50µs.
  const std::size_t n = ops.size();
  const bool closed = options.window > 0;
  const std::size_t stride = static_cast<std::size_t>(kLoadThreads);
  std::size_t next = static_cast<std::size_t>(t);
  std::size_t outstanding = 0;
  std::int64_t last_due = 0;
  std::string out;
  std::size_t out_off = 0;
  rtrec::FrameDecoder decoder;
  char buf[65536];
  bool broken = false;

  auto handle = [&](const rtrec::Frame& frame) {
    const std::uint64_t id = frame.request_id;
    if (id == 0 || id > n) return;
    OpResult& r = results[id - 1];
    if (r.done_ns != 0) return;
    const std::int64_t decode_start = options.trace ? NowNs() : 0;
    if (frame.type == rtrec::MessageType::kRecommendResponse) {
      auto reply = rtrec::DecodeRecommendReply(frame);
      r.ok = reply.ok() && !reply->degraded();
      if (reply.ok() && (id - 1) % kCheckEvery == 0) {
        r.answer = std::move(reply->videos);
      }
    } else if (frame.type == rtrec::MessageType::kAckResponse) {
      r.ok = true;
    } else if (frame.type == rtrec::MessageType::kErrorResponse) {
      auto error = rtrec::DecodeErrorResponse(frame);
      r.overloaded =
          error.ok() && error->code == rtrec::WireError::kOverloaded;
    }
    r.done_ns = NowNs();
    if (options.trace) r.decode_ns = r.done_ns - decode_start;
    --outstanding;
  };

  if (closed) {
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(start_ns)));
  }
  while (!broken) {
    std::int64_t now = NowNs();
    while (next < n && (closed ? outstanding < options.window
                               : results[next].scheduled_ns <= now)) {
      const Op& op = ops[next];
      OpResult& r = results[next];
      if (closed) r.scheduled_ns = NowNs();
      const std::uint64_t id = next + 1;
      const std::int64_t encode_start = options.trace ? NowNs() : 0;
      if (op.observe) {
        out += rtrec::EncodeObserveRequest(id, actions[op.index]);
      } else {
        out += rtrec::EncodeRecommendRequest(id, requests[op.index]);
      }
      if (options.trace) r.encode_ns = NowNs() - encode_start;
      r.sent_ns = NowNs();
      last_due = r.scheduled_ns;
      ++outstanding;
      next += stride;
    }
    while (out_off < out.size()) {
      const ssize_t w =
          send(fd, out.data() + out_off, out.size() - out_off, MSG_NOSIGNAL);
      if (w > 0) {
        out_off += static_cast<std::size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        if (w < 0 && errno != EAGAIN) broken = true;
        break;
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    for (;;) {
      const ssize_t got = recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (got > 0) {
        decoder.Append(std::string_view(buf, static_cast<std::size_t>(got)));
        continue;
      }
      if (got == 0 || (errno != EAGAIN && errno != EINTR)) broken = true;
      break;
    }
    for (;;) {
      rtrec::StatusOr<rtrec::Frame> frame = decoder.Next();
      if (!frame.ok()) {
        if (!frame.status().IsNotFound()) broken = true;
        break;
      }
      handle(*frame);
    }
    if (next >= n && outstanding == 0) break;
    // Sleep until the next send is due or a reply arrives.
    const std::int64_t deadline = next >= n ? last_due + kDrainTimeoutNs
                                  : closed  ? NowNs() + 1'000'000
                                            : results[next].scheduled_ns;
    now = NowNs();
    if (next >= n && now >= last_due + kDrainTimeoutNs) break;
    const std::int64_t wait_ns = std::max<std::int64_t>(0, deadline - now);
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
               0};
    ppoll(&pfd, 1, &ts, nullptr);
  }
  cpu_s = ThreadCpuSeconds() - cpu0;
}

}  // namespace

rtrec::Status HelloV2(std::uint16_t port) {
  return ConnectV2(port).status();
}

rtrec::StatusOr<std::string> FetchStats(std::uint16_t port) {
  auto fd = rtrec::ConnectTcp("127.0.0.1", port, kIoTimeoutMs);
  if (!fd.ok()) return fd.status();
  RTREC_RETURN_IF_ERROR(SendAll(fd->get(), rtrec::EncodeStatsRequest(1)));
  rtrec::FrameDecoder decoder;
  auto frame = ReadFrame(fd->get(), decoder);
  if (!frame.ok()) return frame.status();
  return rtrec::DecodeStatsResponse(*frame);
}

double ScrapeValue(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::atof(line.c_str() + name.size() + 1);
    }
  }
  return -1.0;
}

rtrec::StatusOr<LoadResult> RunOpenLoop(
    const LoadOptions& options, const std::vector<Op>& ops,
    const std::vector<rtrec::RecRequest>& requests,
    const std::vector<rtrec::UserAction>& actions) {
  std::vector<rtrec::UniqueFd> fds;
  for (int t = 0; t < kLoadThreads; ++t) {
    auto fd = ConnectV2(options.port);
    if (!fd.ok()) return fd.status();
    RTREC_RETURN_IF_ERROR(rtrec::SetNonBlocking(fd->get(), true));
    fds.push_back(std::move(fd).value());
  }
  LoadResult result;
  result.ops.resize(ops.size());
  // First op due shortly after the threads exist, so none starts late.
  result.start_ns = NowNs() + 20'000'000;
  const double interval_ns = 1e9 / kRatePerSecond;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    result.ops[k].scheduled_ns =
        result.start_ns +
        static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
  }
  std::vector<double> thread_cpu(kLoadThreads, 0.0);
  const double cpu0 = ProcessCpuSeconds();
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t) {
    const std::size_t i = static_cast<std::size_t>(t);
    threads.emplace_back(DriveConnection, t, fds[i].get(), std::cref(options),
                         std::cref(ops), std::cref(requests), std::cref(actions),
                         result.start_ns, std::ref(result.ops),
                         std::ref(thread_cpu[i]));
  }
  for (std::thread& thread : threads) thread.join();
  result.process_cpu_s = ProcessCpuSeconds() - cpu0;
  for (const double cpu : thread_cpu) result.loadgen_cpu_s += cpu;
  return result;
}

}  // namespace perfbench
