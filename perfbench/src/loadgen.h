#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/action.h"
#include "core/recommender.h"

namespace perfbench {

/// One scheduled operation: a Recommend of `requests[index]` or an
/// Observe of `actions[index]`.
struct Op {
  bool observe = false;
  std::size_t index = 0;
};

/// What happened to one operation. Times are steady-clock nanoseconds.
struct OpResult {
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;       // 0 when no reply arrived in time.
  bool ok = false;                // Acked / answered, not degraded.
  bool overloaded = false;        // Refused with OVERLOADED.
  std::int64_t encode_ns = 0;     // Traced mode: request encode time.
  std::int64_t decode_ns = 0;     // Traced mode: reply decode time.
  std::vector<rtrec::ScoredVideo> answer;  // Kept for sampled Recommends.
};

/// Generator threads, one pipelined connection each.
inline constexpr int kLoadThreads = 2;
/// Offered load of the open loop, operations per second: about half of
/// what two server workers sustain on a 4-vCPU host, so latency is
/// service time plus queueing noise, not backlog.
inline constexpr double kRatePerSecond = 12000.0;
/// The answer of every Nth Recommend is kept (and checked in-process).
inline constexpr std::size_t kCheckEvery = 16;

/// Open-loop load generator over wire v2. Each thread owns one pipelined
/// TCP connection (so the server's acceptor puts them on different
/// workers) and sends its share of the schedule on time, whether or not
/// earlier replies have arrived; it reads replies as they come.
/// Operation k is due at start + k / kRatePerSecond and goes to thread
/// k % kLoadThreads. Latency is timed from the due time, so a stall
/// delays every later operation's clock rather than silently thinning
/// the load.
struct LoadOptions {
  std::uint16_t port = 0;
  /// Time request encode and reply decode of every operation (the
  /// traced window's spans).
  bool trace = false;
  /// When > 0, a closed loop instead: each thread keeps this many
  /// operations outstanding and ignores the schedule (capacity phase).
  std::size_t window = 0;
};

/// A window's per-operation results plus its CPU use in seconds: the
/// whole process's, and the generator threads' own, so the latter can be
/// taken out of the system's CPU per operation.
struct LoadResult {
  std::vector<OpResult> ops;
  std::int64_t start_ns = 0;  // Due time of the first operation.
  double process_cpu_s = 0.0;
  double loadgen_cpu_s = 0.0;
};

/// Runs `ops` on the schedule and returns one result per op. Fails only
/// when a connection or the v2 Hello cannot be set up.
rtrec::StatusOr<LoadResult> RunOpenLoop(
    const LoadOptions& options, const std::vector<Op>& ops,
    const std::vector<rtrec::RecRequest>& requests,
    const std::vector<rtrec::UserAction>& actions);

/// Opens one v2 connection to `port`, sends a Hello and checks the
/// server negotiated v2. Used to time the set-up's readiness probe.
rtrec::Status HelloV2(std::uint16_t port);

/// Fetches the server's Prometheus text over the Stats RPC.
rtrec::StatusOr<std::string> FetchStats(std::uint16_t port);

/// Reads `name` (exact, labels included) from Prometheus text; -1 if
/// absent.
double ScrapeValue(const std::string& text, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
