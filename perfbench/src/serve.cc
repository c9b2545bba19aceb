// serve_read and serve_live: a warmed RecommendationService behind a
// RecServer with two workers, driven over TCP wire v2 by the open-loop
// generator.

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/metrics.h"
#include "loadgen.h"
#include "net/rec_server.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Parts of the timed window, each on its own set-up.
constexpr int kParts = 3;
/// Capacity phases after each part: closed loops of kCapacityOps
/// operations with kCapacityWindow outstanding per connection (192 in
/// all, under the server's admission cap of 256, so nothing is shed).
/// throughput_per_s is the median over the phases of all parts: a phase
/// lasts about half a second, so one run samples the host many times.
constexpr int kCapacityPhases = 4;
constexpr std::size_t kCapacityOps = 12000;
constexpr std::size_t kCapacityWindow = 96;
/// The run is invalid when the generator's median send is this late:
/// it could not keep its schedule. (A host stall makes single sends late;
/// their operations are timed from the schedule, so the stall is counted.)
constexpr double kMaxLateP50Us = 1000.0;

struct Server {
  std::unique_ptr<ServedWorld> world;
  std::unique_ptr<rtrec::RecServer> server;
};

/// Seed to ready: world generation, warm ingest, server start and the
/// v2 Hello.
rtrec::StatusOr<Server> SetUp(std::uint64_t seed) {
  Server s;
  s.world = BuildServedWorld(seed);
  rtrec::RecServer::Options options;
  options.num_workers = kServerWorkers;
  options.metrics = s.world->metrics.get();
  s.server =
      std::make_unique<rtrec::RecServer>(s.world->service.get(), options);
  RTREC_RETURN_IF_ERROR(s.server->Start());
  RTREC_RETURN_IF_ERROR(HelloV2(s.server->port()));
  return s;
}

std::int64_t Counter(rtrec::MetricsRegistry& metrics, const char* name) {
  return metrics.GetCounter(name)->value();
}

std::int64_t AlertTotal(rtrec::MetricsRegistry& metrics) {
  std::int64_t total = 0;
  for (const char* name :
       {"quality.alerts.logloss", "quality.alerts.calibration",
        "quality.alerts.embedding_norm", "quality.alerts.bias_drift",
        "quality.alerts.label_shift", "quality.alerts.staleness",
        "quality.alerts.coverage"}) {
    total += Counter(metrics, name);
  }
  return total;
}

/// One timed window part's results.
struct Window {
  bool closed = false;  // A capacity phase: no schedule to keep.
  std::vector<OpResult> results;
  double rss_mb = 0.0;
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t errors = 0;      // Error replies, degraded answers.
  std::int64_t overloaded = 0;  // Of `errors`: OVERLOADED refusals.
  std::int64_t timed_out = 0;   // No reply within the drain timeout.
  std::int64_t acked_observes = 0;
  std::vector<double> late_us;
  double achieved_rps = 0.0;
  double wall_s = 0.0;  // First due time to last reply.
  /// Process CPU less the generator threads' own, in seconds.
  double server_cpu_s = 0.0;
  /// Round trips of the completed operations, from the scheduled send.
  std::vector<double> all_us, recommend_us, observe_us;
  std::int64_t actions_delta = 0;
  std::int64_t alerts_delta = 0;
  std::int64_t cache_hits = 0, cache_misses = 0;
  std::int64_t holdout_probes = 0;

  double rate() const { return ok / std::max(1e-9, wall_s); }
  double cpu_us_per_op() const {
    return server_cpu_s * 1e6 / std::max<std::int64_t>(1, ok);
  }
};

rtrec::StatusOr<Window> RunWindow(Server& s, const std::vector<Op>& ops,
                                  const std::vector<rtrec::RecRequest>& requests,
                                  const std::vector<rtrec::UserAction>& actions,
                                  bool trace, std::size_t window = 0) {
  rtrec::MetricsRegistry& metrics = *s.world->metrics;
  LoadOptions options;
  options.port = s.server->port();
  options.trace = trace;
  options.window = window;

  Window w;
  w.closed = window > 0;
  const std::int64_t actions0 = Counter(metrics, "service.actions");
  const std::int64_t alerts0 = AlertTotal(metrics);
  const std::int64_t hits0 = Counter(metrics, "service.factor_cache.hits");
  const std::int64_t misses0 = Counter(metrics, "service.factor_cache.misses");
  const std::int64_t holdout0 = Counter(metrics, "quality.holdout.evaluated");
  auto load = RunOpenLoop(options, ops, requests, actions);
  if (!load.ok()) return load.status();
  w.rss_mb = RssMb();
  w.results = std::move(load->ops);
  w.server_cpu_s = load->process_cpu_s - load->loadgen_cpu_s;
  w.actions_delta = Counter(metrics, "service.actions") - actions0;
  w.alerts_delta = AlertTotal(metrics) - alerts0;
  w.cache_hits = Counter(metrics, "service.factor_cache.hits") - hits0;
  w.cache_misses = Counter(metrics, "service.factor_cache.misses") - misses0;
  w.holdout_probes = Counter(metrics, "quality.holdout.evaluated") - holdout0;

  std::int64_t first_due = load->start_ns, last_sent = 0, last_done = 0,
               sent = 0;
  for (std::size_t k = 0; k < w.results.size(); ++k) {
    const OpResult& r = w.results[k];
    ++w.attempted;
    if (r.sent_ns != 0) {
      ++sent;
      last_sent = std::max(last_sent, r.sent_ns);
      w.late_us.push_back((r.sent_ns - r.scheduled_ns) / 1e3);
    }
    if (r.done_ns == 0) {
      ++w.timed_out;
      continue;
    }
    last_done = std::max(last_done, r.done_ns);
    if (!r.ok) {
      ++w.errors;
      if (r.overloaded) ++w.overloaded;
      continue;
    }
    ++w.ok;
    const double us = (r.done_ns - r.scheduled_ns) / 1e3;
    w.all_us.push_back(us);
    if (ops[k].observe) {
      ++w.acked_observes;
      w.observe_us.push_back(us);
    } else {
      w.recommend_us.push_back(us);
    }
  }
  w.wall_s = (last_done - first_due) / 1e9;
  w.achieved_rps =
      last_sent > first_due ? (sent - 1) / ((last_sent - first_due) / 1e9)
                            : 0.0;
  return w;
}

/// Builds the window's schedule. serve_read: all Recommends.
/// serve_live: Observe and Recommend alternate; the Observes replay
/// `actions` from `next_action` in time order and each Recommend's `now`
/// is the stream time reached so far.
std::vector<Op> Schedule(bool live, std::size_t count,
                         std::vector<rtrec::RecRequest>& requests,
                         std::size_t& next_request,
                         const std::vector<rtrec::UserAction>& actions,
                         std::size_t& next_action) {
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (live && k % 2 == 0 && next_action < actions.size()) {
      ops.push_back(Op{true, next_action++});
    } else {
      rtrec::RecRequest& request = requests[next_request];
      if (live && next_action > 0) request.now = actions[next_action - 1].time;
      ops.push_back(Op{false, next_request++});
    }
  }
  return ops;
}

/// `field` of every part, end to end: the latencies of the whole window.
std::vector<double> Joined(const std::vector<Window>& parts,
                           std::vector<double> Window::*field) {
  std::vector<double> all;
  for (const Window& w : parts) {
    all.insert(all.end(), (w.*field).begin(), (w.*field).end());
  }
  return all;
}

void ReportParts(const std::vector<Window>& parts,
                 const std::vector<Window>& capacities, bool live,
                 bool in_result, const std::vector<double>& setup_times,
                 Report& report) {
  std::int64_t attempted = 0, ok = 0, errors = 0, overloaded = 0,
               timed_out = 0, alerts = 0, hits = 0, misses = 0, probes = 0,
               observes = 0;
  double server_cpu_s = 0.0, achieved = 1e300;
  for (const Window& w : parts) {
    attempted += w.attempted;
    ok += w.ok;
    errors += w.errors;
    overloaded += w.overloaded;
    timed_out += w.timed_out;
    alerts += w.alerts_delta;
    hits += w.cache_hits;
    misses += w.cache_misses;
    probes += w.holdout_probes;
    observes += w.acked_observes;
    server_cpu_s += w.server_cpu_s;
    achieved = std::min(achieved, w.achieved_rps);
  }
  const std::vector<double> all = Joined(parts, &Window::all_us);
  const std::vector<double> recommend = Joined(parts, &Window::recommend_us);
  const std::vector<double> observe = Joined(parts, &Window::observe_us);
  report.Note("open loop: " + std::to_string(parts.size()) + " parts, " +
              std::to_string(attempted) + " attempted, " + std::to_string(ok) +
              " ok, " + std::to_string(errors) + " failed (" +
              std::to_string(overloaded) + " overloaded), " +
              std::to_string(timed_out) + " timed out; " +
              std::to_string(recommend.size()) + " recommend and " +
              std::to_string(observe.size()) + " observe samples");
  // Gated: set-up time, the capacity phase's completed operations per
  // second, and memory. Open-loop latency and CPU are printed, not gated:
  // on a shared virtual machine they moved by a fifth to a half between
  // runs of one seed, past the largest bound a gated metric may have.
  std::vector<double> capacity_rate, capacity_cpu;
  std::int64_t capacity_ops = 0;
  for (const Window& c : capacities) {
    capacity_rate.push_back(c.rate());
    capacity_cpu.push_back(c.cpu_us_per_op());
    capacity_ops += c.ok;
  }
  const double capacity = Median(capacity_rate);
  report.Note("capacity: " + std::to_string(capacities.size()) +
              " closed-loop phases, " + std::to_string(capacity_ops) +
              " ok; the open loop offers " +
              std::to_string(static_cast<int>(
                  std::lround(100.0 * kRatePerSecond / capacity))) +
              "% of capacity");
  report.Add("setup_s", Median(setup_times), "s", in_result);
  report.Add("throughput_per_s", capacity, "1/s", in_result);
  report.Add("cpu_us_per_op", Median(capacity_cpu), "us");
  report.Add("p50_us", Percentile(all, 50), "us");
  report.Add("p90_us", Percentile(all, 90), "us");
  report.Add("p99_us", Percentile(all, 99), "us");
  report.Add("open_loop_cpu_us_per_op",
             server_cpu_s * 1e6 / std::max<std::int64_t>(1, ok), "us");
  report.Add("rss_mb", parts.back().rss_mb, "MB", in_result);
  report.Add("recommend_p50_us", Percentile(recommend, 50), "us");
  report.Add("recommend_p99_us", Percentile(recommend, 99), "us");
  if (live) {
    report.Add("observe_p50_us", Percentile(observe, 50), "us");
    report.Add("observe_p99_us", Percentile(observe, 99), "us");
  }
  report.Add("error_rate",
             static_cast<double>(attempted - ok) /
                 std::max<std::int64_t>(1, attempted),
             "ratio");
  report.Add("loadgen.achieved_rps", achieved, "1/s");
  report.Add("loadgen.late_p99_us", Percentile(Joined(parts, &Window::late_us), 99),
             "us");
  report.Add("quality.alerts", static_cast<double>(alerts), "count");
  report.Add("window.factor_cache_hit_ratio",
             static_cast<double>(hits) /
                 std::max<std::int64_t>(1, hits + misses),
             "ratio");
  report.Note("factor cache base: " + std::to_string(hits + misses) +
              " lookups");
  if (live) {
    report.Add("window.holdout_probes_per_1k_observe",
               1000.0 * static_cast<double>(probes) /
                   std::max<std::int64_t>(1, observes),
               "count");
  }
}

/// Checks the window; a failed check makes the whole run report failure.
void CheckWindow(Server& s, const Window& w, const std::vector<Op>& ops,
                 const std::vector<rtrec::RecRequest>& requests, bool live,
                 Report& report) {
  if (w.ok + w.errors + w.timed_out != w.attempted) {
    report.Fail("ok + failed != attempted");
  }
  if (!w.closed && w.recommend_us.size() < 1000) {
    report.Fail("fewer than 1000 Recommend samples: p99 would have fewer "
                "than 10 samples beyond it");
  }
  if (!w.closed && (Percentile(w.late_us, 50) > kMaxLateP50Us ||
                    w.achieved_rps < 0.95 * kRatePerSecond)) {
    report.Fail("load generator could not keep its schedule");
  }
  if (live) {
    if (w.actions_delta != w.acked_observes) {
      report.Fail("service.actions moved by " +
                  std::to_string(w.actions_delta) + " but " +
                  std::to_string(w.acked_observes) + " Observes were acked");
    }
    report.Note("checked service.actions moved by the " +
                std::to_string(w.acked_observes) + " acked Observes");
    return;
  }
  // serve_read writes nothing, so a wire answer must equal the in-process
  // answer to the same request.
  std::int64_t compared = 0;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const OpResult& r = w.results[k];
    if (ops[k].observe || !r.ok || k % kCheckEvery != 0) continue;
    auto local = s.world->service->Recommend(requests[ops[k].index]);
    if (!local.ok() || *local != r.answer) {
      report.Fail("wire answer differs from in-process answer for request " +
                  std::to_string(k));
      return;
    }
    ++compared;
  }
  if (compared < 100) report.Fail("too few answers compared");
  report.Note("checked " + std::to_string(compared) +
              " wire answers against in-process Recommend");
}

}  // namespace

Outcome RunServe(const RunArgs& args, Report& report) {
  const bool live = args.workload == "serve_live";
  Outcome outcome;

  // The window is split into kParts parts, each on a fresh set-up of the
  // same seed, so one run samples the host at several moments and the
  // threads in several placements. The set-up before each part is timed:
  // setup_s is the median. The last set-up stays up for the traced run.
  const std::size_t per_part = static_cast<std::size_t>(
      kRatePerSecond * args.seconds / kParts);
  std::vector<double> setup_times;
  std::vector<Window> parts, capacities;
  Server s;
  std::vector<rtrec::RecRequest> requests;
  std::vector<Op> ops;
  std::size_t next_request = 0, next_action = 0;
  for (int part = 0; part < kParts; ++part) {
    if (s.server) s.server->Stop();
    s = Server{};
    const std::int64_t t0 = NowNs();
    auto built = SetUp(args.seed);
    if (!built.ok()) {
      report.Fail("set-up: " + built.status().ToString());
      return outcome;
    }
    s = std::move(built).value();
    setup_times.push_back(SecondsSince(t0));

    requests = MakeRequests(s.world->next_day, args.seed,
                            per_part * (args.trace ? 2 : 1) +
                                kCapacityPhases * kCapacityOps);
    next_request = 0;
    next_action = 0;
    ops = Schedule(live, per_part, requests, next_request, s.world->next_day,
                   next_action);
    auto window =
        RunWindow(s, ops, requests, s.world->next_day, /*trace=*/false);
    if (!window.ok()) {
      report.Fail("window: " + window.status().ToString());
      return outcome;
    }
    CheckWindow(s, *window, ops, requests, live, report);
    outcome.attempted += window->attempted;
    outcome.failed += window->attempted - window->ok;
    parts.push_back(std::move(window).value());

    for (int phase = 0; phase < kCapacityPhases; ++phase) {
      const std::vector<Op> capacity_ops =
          Schedule(live, kCapacityOps, requests, next_request,
                   s.world->next_day, next_action);
      auto capacity = RunWindow(s, capacity_ops, requests, s.world->next_day,
                                /*trace=*/false, kCapacityWindow);
      if (!capacity.ok()) {
        report.Fail("capacity: " + capacity.status().ToString());
        return outcome;
      }
      CheckWindow(s, *capacity, capacity_ops, requests, live, report);
      outcome.attempted += capacity->attempted;
      outcome.failed += capacity->attempted - capacity->ok;
      capacities.push_back(std::move(capacity).value());
    }
  }
  ServedWorld& world = *s.world;
  report.Note("world: " + std::to_string(world.warm_actions) +
              " warm actions, " + std::to_string(world.next_day.size()) +
              " next-day actions");
  ReportParts(parts, capacities, live, !args.trace, setup_times, report);
  if (!args.trace) {
    s.server->Stop();
    return outcome;
  }

  // Traced run. Server-side view of the untraced window first.
  auto stats = FetchStats(s.server->port());
  if (!stats.ok()) {
    report.Fail("stats: " + stats.status().ToString());
    return outcome;
  }
  const std::string hist = "net_server_rpc_recommend_latency_us";
  const double server_p50 = ScrapeValue(*stats, hist + "{quantile=\"0.5\"}");
  report.Add("net.server.recommend_p50_us", server_p50, "us");
  report.Add("net.server.recommend_p99_us",
             ScrapeValue(*stats, hist + "{quantile=\"0.99\"}"), "us");
  report.Add("net.server.shed",
             std::max(0.0, ScrapeValue(*stats,
                                       "net_server_requests_shed_total")),
             "count");

  // The same schedule again with per-operation spans on: the difference
  // in CPU per operation is the tracing overhead.
  std::vector<Op> traced_ops = Schedule(live, per_part, requests,
                                        next_request, world.next_day,
                                        next_action);
  auto traced = RunWindow(s, traced_ops, requests, world.next_day,
                          /*trace=*/true);
  s.server->Stop();
  if (!traced.ok()) {
    report.Fail("traced window: " + traced.status().ToString());
    return outcome;
  }
  const Window& untraced = parts.back();
  report.Add("trace.overhead_pct",
             100.0 * (traced->cpu_us_per_op() / untraced.cpu_us_per_op() - 1.0),
             "%", true);

  SpanLog spans;
  const int rpc = spans.Name(live ? "wire.op" : "wire.recommend");
  const int encode = spans.Name("loadgen.request_encode");
  const int decode = spans.Name("loadgen.reply_decode");
  for (std::size_t k = 0; k < traced->results.size(); ++k) {
    const OpResult& r = traced->results[k];
    if (r.done_ns == 0) continue;
    const std::int64_t root =
        spans.Add(rpc, static_cast<std::int64_t>(k), -1, r.scheduled_ns, r.done_ns);
    spans.Add(encode, static_cast<std::int64_t>(k), root,
              r.sent_ns - r.encode_ns, r.sent_ns);
    spans.Add(decode, static_cast<std::int64_t>(k), root,
              r.done_ns - r.decode_ns, r.done_ns);
  }

  // Per-layer passes over the untraced window's recorded requests, with
  // the unreplayed rest of the next day for the Observe passes.
  std::vector<rtrec::RecRequest> recorded;
  for (const Op& op : ops) {
    if (!op.observe && recorded.size() < kLayerRequests) {
      recorded.push_back(requests[op.index]);
    }
  }
  const std::vector<rtrec::UserAction> unseen(
      world.next_day.begin() + static_cast<std::ptrdiff_t>(next_action),
      world.next_day.end());
  const std::vector<rtrec::UserAction> stream = IngestStream(*world.world);
  RunLayerSuite(world, recorded, unseen, stream, kServerWorkers, spans, report);
  if (!RunStreamPass(*world.world, stream, report)) {
    report.Fail("stream pass failed");
  }

  // Wire overhead: the round trip less the in-process service time.
  report.Add("net.wire_overhead_us",
             Percentile(Joined(parts, &Window::recommend_us), 50) -
                 Median(spans.MinByRequestUs("service.recommend",
                                             recorded.size())),
             "us");
  const std::string path =
      args.out_dir + "/spans_" + args.workload + ".tsv";
  if (spans.Write(path)) {
    report.Note("spans: " + std::to_string(spans.size()) + " written to " +
                path);
  }
  return outcome;
}

}  // namespace perfbench
