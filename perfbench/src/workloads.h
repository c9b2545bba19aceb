#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/action.h"
#include "core/recommender.h"
#include "report.h"
#include "world.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span log into.
  std::string out_dir = ".";
};

/// RecServer workers in the serve workloads; also the thread count of
/// the contended per-layer passes.
inline constexpr int kServerWorkers = 2;
/// Requests replayed per per-layer pass in the traced run.
inline constexpr std::size_t kLayerRequests = 6000;

/// Operations attempted and failed in the timed window.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// serve_read and serve_live.
Outcome RunServe(const RunArgs& args, Report& report);

/// ingest.
Outcome RunIngest(const RunArgs& args, Report& report);

/// The ingest stream: days [0, kIngestDays) of the benchmark world.
inline constexpr int kIngestDays = 2;
std::vector<rtrec::UserAction> IngestStream(const rtrec::SyntheticWorld& world);

/// The traced run's per-layer passes on a warmed world. `requests` is the
/// recorded request set; `actions` are next-day actions the service has
/// not seen yet (the Observe passes consume them). `stream` is the ingest
/// stream. Every per-layer metric goes into the result.
void RunLayerSuite(ServedWorld& world,
                   const std::vector<rtrec::RecRequest>& requests,
                   const std::vector<rtrec::UserAction>& actions,
                   const std::vector<rtrec::UserAction>& stream, int workers,
                   SpanLog& spans, Report& report);

/// Runs the Fig. 2 topology once over `stream` with the Tracer attached
/// (1-in-8 sampling) and reports the stream.* per-layer metrics.
bool RunStreamPass(const rtrec::SyntheticWorld& world,
                   const std::vector<rtrec::UserAction>& stream,
                   Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
