// ingest: the Fig. 2 topology (BuildRecommendationTopology, default
// PipelineParallelism) fed a seeded stream from a VectorActionSource and
// run to completion, repeatedly, on fresh stores.

#include <memory>

#include "common/trace.h"
#include "core/engine.h"
#include "core/topology_factory.h"
#include "stream/topology.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Tracer sampling of the traced run's window and stream pass. The
/// timed window runs without a Tracer.
constexpr std::uint32_t kTracedSampleEvery = 8;
/// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 7;

constexpr const char* kBolts[] = {"compute_mf",     "mf_storage",
                                  "user_history",   "get_item_pairs",
                                  "item_pair_sim",  "result_storage"};

/// The engine options both the topology and the sequential reference use.
rtrec::RecEngine::Options ReferenceOptions() { return {}; }

/// One run of the topology over `stream` on fresh stores.
struct IngestRun {
  std::unique_ptr<rtrec::FactorStore> factors;
  std::unique_ptr<rtrec::HistoryStore> history;
  std::unique_ptr<rtrec::SimTableStore> sim_table;
  std::unique_ptr<rtrec::MetricsRegistry> metrics;
  std::unique_ptr<rtrec::Tracer> tracer;  // Null when untraced.
  double seconds = 0.0;  // First spout emit to last terminal bolt done.
};

/// `sample_every` 0 runs without a Tracer.
rtrec::StatusOr<IngestRun> RunTopology(
    const rtrec::SyntheticWorld& world,
    const std::vector<rtrec::UserAction>& stream, std::uint32_t sample_every) {
  const rtrec::RecEngine::Options options = ReferenceOptions();
  IngestRun run;
  rtrec::FactorStore::Options factor_options;
  factor_options.num_factors = options.model.num_factors;
  factor_options.init_scale = options.model.init_scale;
  factor_options.seed = options.model.seed;
  factor_options.precision = options.model.precision;
  run.factors = std::make_unique<rtrec::FactorStore>(factor_options);
  rtrec::HistoryStore::Options history_options;
  history_options.max_entries_per_user = options.history_per_user;
  run.history = std::make_unique<rtrec::HistoryStore>(history_options);
  rtrec::SimTableStore::Options table_options;
  table_options.top_k = options.similarity.top_k;
  table_options.xi_millis = options.similarity.xi_millis;
  run.sim_table = std::make_unique<rtrec::SimTableStore>(table_options);
  run.metrics = std::make_unique<rtrec::MetricsRegistry>();
  if (sample_every > 0) {
    rtrec::Tracer::Options tracer_options;
    tracer_options.sample_every_n = sample_every;
    tracer_options.metrics = run.metrics.get();
    run.tracer = std::make_unique<rtrec::Tracer>(tracer_options);
  }

  rtrec::PipelineDeps deps;
  deps.factors = run.factors.get();
  deps.history = run.history.get();
  deps.sim_table = run.sim_table.get();
  deps.type_resolver = world.TypeResolver();
  deps.model_config = options.model;
  deps.sim_config = options.similarity;
  auto source = std::make_shared<rtrec::VectorActionSource>(stream);
  auto spec = rtrec::BuildRecommendationTopology(source, deps);
  if (!spec.ok()) return spec.status();
  rtrec::stream::TopologyOptions topo_options;
  topo_options.metrics = run.metrics.get();
  topo_options.tracer = run.tracer.get();
  auto topo =
      rtrec::stream::Topology::Create(std::move(spec).value(), topo_options);
  if (!topo.ok()) return topo.status();
  RTREC_RETURN_IF_ERROR((*topo)->Start());
  RTREC_RETURN_IF_ERROR((*topo)->Join());
  const std::int64_t first =
      run.metrics->GetGauge("topology.first_emit_us")->value();
  const std::int64_t last =
      run.metrics->GetGauge("topology.final_done_us")->value();
  if (first == 0 || last <= first) {
    return rtrec::Status::Internal("topology did not stamp its run");
  }
  run.seconds = (last - first) / 1e6;
  return run;
}

/// The output check: the topology's stores hold what a single-threaded
/// RecEngine::Observe replay of the same stream holds.
void CheckAgainstReplay(const rtrec::SyntheticWorld& world,
                        const std::vector<rtrec::UserAction>& stream,
                        const IngestRun& run, Report& report) {
  rtrec::RecEngine engine(world.TypeResolver(), ReferenceOptions());
  for (const rtrec::UserAction& action : stream) engine.Observe(action);
  const rtrec::FactorStore& ref = engine.factors();
  if (run.factors->RatingCount() != ref.RatingCount() ||
      run.factors->NumUsers() != ref.NumUsers() ||
      run.factors->NumVideos() != ref.NumVideos() ||
      run.history->NumUsers() != engine.history().NumUsers()) {
    report.Fail("topology store counts differ from the sequential replay");
    return;
  }
  std::int64_t entries = 0;
  bool same = true;
  engine.history().ForEach(
      [&](rtrec::UserId user, const std::vector<rtrec::HistoryEntry>& h) {
        entries += static_cast<std::int64_t>(h.size());
        if (run.history->Get(user).size() != h.size()) same = false;
      });
  if (!same) {
    report.Fail("topology history sizes differ from the sequential replay");
    return;
  }
  report.Note("checked against sequential replay: " +
              std::to_string(ref.RatingCount()) + " ratings, " +
              std::to_string(ref.NumUsers()) + " users, " +
              std::to_string(ref.NumVideos()) + " videos, " +
              std::to_string(entries) + " history entries");
}

/// The timed window: whole runs of the stream, on fresh stores, until the
/// window's time is used (at least two). One figure per run.
struct IngestWindow {
  std::vector<double> rates, p50s, p90s, p99s, cpu_us;
  std::int64_t actions = 0;
};

IngestWindow RunWindow(const rtrec::SyntheticWorld& world,
                       const std::vector<rtrec::UserAction>& stream,
                       int seconds, std::uint32_t sample_every,
                       Report& report, IngestRun* last) {
  IngestWindow w;
  const std::int64_t t0 = NowNs();
  while (w.rates.size() < 2 || SecondsSince(t0) < seconds) {
    const double cpu0 = ProcessCpuSeconds();
    auto run = RunTopology(world, stream, sample_every);
    if (!run.ok()) {
      report.Fail("topology: " + run.status().ToString());
      break;
    }
    const double n = static_cast<double>(stream.size());
    w.cpu_us.push_back((ProcessCpuSeconds() - cpu0) * 1e6 / n);
    w.rates.push_back(n / run->seconds);
    if (run->tracer != nullptr) {
      rtrec::Histogram* e2e =
          run->tracer->SinceRootHistogram("result_storage");
      w.p50s.push_back(e2e->Percentile(50));
      w.p90s.push_back(e2e->Percentile(90));
      w.p99s.push_back(e2e->Percentile(99));
    }
    w.actions += static_cast<std::int64_t>(stream.size());
    if (last != nullptr) *last = std::move(run).value();
  }
  return w;
}

}  // namespace

std::vector<rtrec::UserAction> IngestStream(
    const rtrec::SyntheticWorld& world) {
  return world.GenerateDays(0, kIngestDays);
}

bool RunStreamPass(const rtrec::SyntheticWorld& world,
                   const std::vector<rtrec::UserAction>& stream,
                   Report& report) {
  auto run = RunTopology(world, stream, kTracedSampleEvery);
  if (!run.ok()) return false;
  rtrec::Tracer& tracer = *run->tracer;
  for (const char* bolt : kBolts) {
    const std::string prefix = std::string("stream.") + bolt;
    report.Add(prefix + ".process_us",
               tracer.StageHistogram(bolt)->Percentile(50), "us", true);
    report.Add(prefix + ".queue_wait_us",
               tracer.QueueHistogram(bolt)->Percentile(50), "us", true);
  }
  rtrec::Histogram* e2e = tracer.SinceRootHistogram("result_storage");
  report.Add("stream.action_to_result_p50_us", e2e->Percentile(50), "us",
             true);
  report.Add("stream.action_to_result_p99_us", e2e->Percentile(99), "us",
             true);
  report.Note("stream pass: " + std::to_string(e2e->count()) +
              " traced results over " + std::to_string(stream.size()) +
              " actions");
  const double per_1k = 1000.0 / static_cast<double>(stream.size());
  for (const char* counter : {"push_retries", "batch_drains",
                              "parked_wakeups"}) {
    report.Add(std::string("stream.queue.") + counter + "_per_1k_actions",
               per_1k * static_cast<double>(
                            run->metrics
                                ->GetCounter(std::string("stream.queue.") +
                                             counter)
                                ->value()),
               "count", true);
  }
  return true;
}

Outcome RunIngest(const RunArgs& args, Report& report) {
  Outcome outcome;
  // Set-up: build the world and generate the stream, kSetups times.
  std::vector<double> setup_times;
  std::unique_ptr<rtrec::SyntheticWorld> world;
  std::vector<rtrec::UserAction> stream;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    stream.clear();
    const std::int64_t t0 = NowNs();
    world = std::make_unique<rtrec::SyntheticWorld>(BenchWorld(args.seed));
    stream = IngestStream(*world);
    setup_times.push_back(SecondsSince(t0));
  }
  report.Note("stream: " + std::to_string(stream.size()) + " actions over " +
              std::to_string(kIngestDays) + " day(s)");
  IngestRun last_run;

  IngestWindow window = RunWindow(*world, stream, args.seconds,
                                  /*sample_every=*/0, report, &last_run);
  const double rss = RssMb();
  if (!report.ok()) return outcome;
  outcome.attempted = window.actions;
  CheckAgainstReplay(*world, stream, last_run, report);
  last_run = IngestRun{};

  const bool in_result = !args.trace;
  report.Note(std::to_string(window.rates.size()) + " runs of " +
              std::to_string(stream.size()) +
              " actions; figures are medians over the runs");
  report.Add("setup_s", Median(setup_times), "s", in_result);
  report.Add("cpu_us_per_op", Median(window.cpu_us), "us");
  report.Add("throughput_per_s", Median(window.rates), "1/s", in_result);
  report.Add("rss_mb", rss, "MB", in_result);
  report.Add("ingest_actions_per_s", Median(window.rates), "1/s");
  report.Add("error_rate", 0.0, "ratio");
  if (!args.trace) return outcome;

  // Traced run: the same window with the Tracer sampling 1-in-8. The
  // program's own action-to-result latency comes from it; its CPU per
  // action against the untraced window's is the tracing overhead.
  const IngestWindow traced = RunWindow(*world, stream, args.seconds,
                                        kTracedSampleEvery, report, nullptr);
  report.Add("p50_us", Median(traced.p50s), "us");
  report.Add("p90_us", Median(traced.p90s), "us");
  report.Add("p99_us", Median(traced.p99s), "us");
  report.Add("trace.overhead_pct",
             100.0 * (Median(traced.cpu_us) / Median(window.cpu_us) - 1.0),
             "%", true);

  // The per-layer passes need a served world; the set-up cost here is
  // outside every timed window.
  std::unique_ptr<ServedWorld> served = BuildServedWorld(args.seed);
  std::vector<rtrec::RecRequest> requests =
      MakeRequests(served->next_day, args.seed, kLayerRequests);
  SpanLog spans;
  RunLayerSuite(*served, requests, served->next_day, stream, kServerWorkers,
                spans, report);
  if (!RunStreamPass(*world, stream, report)) report.Fail("stream pass failed");
  const std::string path = args.out_dir + "/spans_ingest.tsv";
  if (spans.Write(path)) {
    report.Note("spans: " + std::to_string(spans.size()) + " written to " +
                path);
  }
  return outcome;
}

}  // namespace perfbench
