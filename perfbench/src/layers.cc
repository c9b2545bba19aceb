// The traced run's per-layer passes. Each pass calls one layer's public
// function over the whole recorded set and records one span per call;
// see SpanLog for why the layers are not timed back to back.

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "concurrent/cpu_bind.h"
#include "core/engine.h"
#include "net/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Rounds of the request-path passes; each request's shortest time counts.
constexpr int kRounds = 3;
/// Calls per span for the nanosecond-scale passes (codec, metrics).
constexpr int kBatch = 64;

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Runs `body(i)` for i in [0, n) split over `threads` threads, each on
/// its own CPU and all starting together, so contended passes really run
/// in parallel; left alone, the scheduler often starts them on one CPU.
/// Records one span per batch of kBatch calls (the per-call time is the
/// span's duration / kBatch).
template <typename Body>
void Batches(SpanLog& spans, const char* name, int threads, std::size_t n,
             Body body) {
  struct Batch {
    std::int64_t start, end;
  };
  std::vector<std::vector<Batch>> per_thread(
      static_cast<std::size_t>(threads));
  const std::vector<int> cpus = rtrec::concurrent::CpuBind::AllowedCpus();
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<Batch>& out = per_thread[static_cast<std::size_t>(t)];
      if (threads > 1 && !cpus.empty()) {
        (void)rtrec::concurrent::CpuBind::PinCurrentThread(
            cpus[static_cast<std::size_t>(t) % cpus.size()]);
      }
      ready.fetch_add(1);
      while (ready.load() < threads) {
      }
      for (std::size_t i = static_cast<std::size_t>(t) * kBatch;
           i + kBatch <= n; i += static_cast<std::size_t>(threads) * kBatch) {
        const std::int64_t start = NowNs();
        for (int j = 0; j < kBatch; ++j) body(i + static_cast<std::size_t>(j));
        out.push_back(Batch{start, NowNs()});
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  const int id = spans.Name(name);
  std::int64_t k = 0;
  for (const auto& batches : per_thread) {
    for (const Batch& b : batches) spans.Add(id, k++, -1, b.start, b.end);
  }
}

double NsPerCall(const SpanLog& spans, const char* name) {
  return Median(spans.DurationsUs(name)) * 1e3 / kBatch;
}

/// The engine the trainer serves `user` from: the group's, else global.
rtrec::RecEngine* EngineFor(rtrec::RecommendationService& service,
                            rtrec::UserId user) {
  rtrec::DemographicTrainer& trainer = *service.trainer();
  const rtrec::GroupId group = service.grouper().GroupOf(user);
  rtrec::RecEngine* engine =
      group == rtrec::kGlobalGroup ? nullptr : trainer.GetEngine(group);
  return engine != nullptr ? engine : trainer.GetEngine(rtrec::kGlobalGroup);
}

/// What the Fig. 1 steps of one request work on, derived once from the
/// public store APIs the way MfRecommender::Recommend derives it.
struct RequestPlan {
  rtrec::RecEngine* engine = nullptr;
  std::vector<rtrec::VideoId> seeds;
  std::vector<rtrec::VideoId> candidates;
  rtrec::FactorEntry user;
};

RequestPlan Plan(rtrec::RecommendationService& service,
                 const rtrec::RecRequest& request) {
  RequestPlan plan;
  plan.engine = EngineFor(service, request.user);
  const rtrec::RecommendConfig& config = plan.engine->options().recommend;
  plan.seeds = request.seed_videos;
  if (plan.seeds.empty()) {
    for (const rtrec::HistoryEntry& e : plan.engine->history().GetRecent(
             request.user, config.max_seed_videos)) {
      plan.seeds.push_back(e.video);
    }
  }
  // Best similarity per candidate, request seeds excluded, capped at
  // max_candidates by similarity.
  const std::unordered_set<rtrec::VideoId> excluded(
      request.seed_videos.begin(), request.seed_videos.end());
  std::unordered_map<rtrec::VideoId, double> best;
  for (rtrec::VideoId seed : plan.seeds) {
    for (const rtrec::SimilarVideo& similar : plan.engine->sim_table().Query(
             seed, request.now, config.candidates_per_seed)) {
      if (excluded.contains(similar.video)) continue;
      double& b = best[similar.video];
      b = std::max(b, similar.similarity);
    }
  }
  std::vector<std::pair<rtrec::VideoId, double>> ranked(best.begin(),
                                                        best.end());
  if (ranked.size() > config.max_candidates) {
    std::nth_element(
        ranked.begin(),
        ranked.begin() + static_cast<std::ptrdiff_t>(config.max_candidates),
        ranked.end(),
        [](const auto& a, const auto& b) { return a.second > b.second; });
    ranked.resize(config.max_candidates);
  }
  for (const auto& [video, sim] : ranked) plan.candidates.push_back(video);
  rtrec::FactorStore& store = plan.engine->factors();
  auto user = store.GetUser(request.user);
  plan.user = user.ok() ? std::move(user).value()
                        : store.MakeInitialEntry(request.user, true);
  return plan;
}

}  // namespace

void RunLayerSuite(ServedWorld& world,
                   const std::vector<rtrec::RecRequest>& requests,
                   const std::vector<rtrec::UserAction>& actions,
                   const std::vector<rtrec::UserAction>& stream, int workers,
                   SpanLog& spans, Report& report) {
  rtrec::RecommendationService& service = *world.service;
  rtrec::DemographicTrainer& trainer = *service.trainer();
  rtrec::QualityMonitor& quality = *service.quality();
  rtrec::MetricsRegistry& metrics = *world.metrics;
  const std::size_t n = requests.size();
  report.Note("layer passes: " + std::to_string(kRounds) + " rounds over " +
              std::to_string(n) + " requests");
  report.Add("data.generate_s", world.generate_s, "s", true);
  report.Add("setup.warm_s", world.warm_s, "s", true);

  std::vector<RequestPlan> plans;
  plans.reserve(n);
  for (const rtrec::RecRequest& request : requests) {
    plans.push_back(Plan(service, request));
  }
  std::vector<std::vector<rtrec::ScoredVideo>> answers(n);
  const int s_service = spans.Name("service.recommend");
  const int s_trainer = spans.Name("demographic.trainer_recommend");
  const int s_served = spans.Name("quality.on_served");
  const int s_engine = spans.Name("core.engine_recommend");
  const int s_history = spans.Name("kvstore.history_recent");
  const int s_query = spans.Name("kvstore.sim_query");
  const int s_cached = spans.Name("kvstore.cached_vectors_get");
  const int s_vectors = spans.Name("kvstore.vectors_get");
  const int s_score = spans.Name("core.score");
  std::int64_t hits = 0, misses = 0;
  double sink = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::int64_t> service_span(n), trainer_span(n), engine_span(n);
    const std::int64_t hits0 =
        metrics.GetCounter("service.factor_cache.hits")->value();
    const std::int64_t misses0 =
        metrics.GetCounter("service.factor_cache.misses")->value();
    for (std::size_t i = 0; i < n; ++i) {
      service_span[i] = Timed(spans, s_service, i, -1, [&] {
        auto page = service.Recommend(requests[i]);
        if (page.ok()) answers[i] = std::move(page).value();
      });
    }
    hits += metrics.GetCounter("service.factor_cache.hits")->value() - hits0;
    misses +=
        metrics.GetCounter("service.factor_cache.misses")->value() - misses0;
    for (std::size_t i = 0; i < n; ++i) {
      trainer_span[i] = Timed(spans, s_trainer, i, service_span[i],
                              [&] { (void)trainer.Recommend(requests[i]); });
    }
    for (std::size_t i = 0; i < n; ++i) {
      Timed(spans, s_served, i, service_span[i], [&] {
        quality.OnServed(requests[i].user, answers[i], false,
                         requests[i].now);
      });
    }
    for (std::size_t i = 0; i < n; ++i) {
      engine_span[i] = Timed(spans, s_engine, i, trainer_span[i], [&] {
        (void)plans[i].engine->Recommend(requests[i]);
      });
    }
    // The engine's steps: history seeds (only without request seeds),
    // similar-video queries per seed, VectorsGet through the factor cache,
    // and MF scoring.
    for (std::size_t i = 0; i < n; ++i) {
      if (!requests[i].seed_videos.empty()) continue;
      const RequestPlan& plan = plans[i];
      Timed(spans, s_history, i, engine_span[i], [&] {
        sink += static_cast<double>(
            plan.engine->history()
                .GetRecent(requests[i].user,
                           plan.engine->options().recommend.max_seed_videos)
                .size());
      });
    }
    for (std::size_t i = 0; i < n; ++i) {
      const RequestPlan& plan = plans[i];
      const std::size_t per_seed =
          plan.engine->options().recommend.candidates_per_seed;
      Timed(spans, s_query, i, engine_span[i], [&] {
        for (rtrec::VideoId seed : plan.seeds) {
          sink += static_cast<double>(
              plan.engine->sim_table().Query(seed, requests[i].now, per_seed)
                  .size());
        }
      });
    }
    for (std::size_t i = 0; i < n; ++i) {
      const RequestPlan& plan = plans[i];
      if (plan.candidates.empty()) continue;
      rtrec::FactorStore& store = plan.engine->factors();
      rtrec::FactorCache* cache = plan.engine->recommender().factor_cache();
      Timed(spans, s_cached, i, engine_span[i], [&] {
        std::vector<rtrec::FactorEntry> entries(plan.candidates.size());
        std::vector<rtrec::VideoId> missing;
        for (std::size_t c = 0; c < plan.candidates.size(); ++c) {
          if (cache == nullptr ||
              !cache->Lookup(plan.candidates[c], &entries[c])) {
            missing.push_back(plan.candidates[c]);
          }
        }
        if (missing.empty()) return;
        std::vector<rtrec::FactorStore::VideoBatchEntry> batch =
            store.GetVideos(missing);
        for (std::size_t j = 0; j < missing.size(); ++j) {
          if (batch[j].found && cache != nullptr) {
            cache->Insert(missing[j], batch[j].entry, batch[j].version);
          }
        }
      });
    }
    // Uncached FactorStore::GetVideos over every candidate: the cost the
    // factor cache saves. Not a step of the engine, so it has no parent.
    for (std::size_t i = 0; i < n; ++i) {
      const RequestPlan& plan = plans[i];
      if (plan.candidates.empty()) continue;
      Timed(spans, s_vectors, i, -1, [&] {
        sink += static_cast<double>(
            plan.engine->factors().GetVideos(plan.candidates).size());
      });
    }
    for (std::size_t i = 0; i < n; ++i) {
      const RequestPlan& plan = plans[i];
      if (plan.candidates.empty()) continue;
      const std::vector<rtrec::FactorStore::VideoBatchEntry> batch =
          plan.engine->factors().GetVideos(plan.candidates);
      rtrec::OnlineMf& model = plan.engine->model();
      Timed(spans, s_score, i, engine_span[i], [&] {
        for (const rtrec::FactorStore::VideoBatchEntry& e : batch) {
          sink += model.PredictWithEntries(plan.user, e.entry);
        }
      });
    }
  }
  Batches(spans, "quality.on_served_contended", workers, n,
          [&](std::size_t i) {
            quality.OnServed(requests[i].user, answers[i], false,
                             requests[i].now);
          });

  // --- net codec: one frame at a time, as a connection sees them ---------
  std::vector<std::string> request_frames(n), reply_frames(n);
  for (std::size_t i = 0; i < n; ++i) {
    request_frames[i] = rtrec::EncodeRecommendRequest(i + 1, requests[i]);
    reply_frames[i] = rtrec::EncodeRecommendResponse(i + 1, answers[i]);
  }
  Batches(spans, "net.codec.request_encode", 1, n, [&](std::size_t i) {
    sink += static_cast<double>(
        rtrec::EncodeRecommendRequest(i + 1, requests[i]).size());
  });
  Batches(spans, "net.codec.reply_encode", 1, n, [&](std::size_t i) {
    sink += static_cast<double>(
        rtrec::EncodeRecommendResponse(i + 1, answers[i]).size());
  });
  rtrec::FrameDecoder decoder;
  Batches(spans, "net.codec.request_decode", 1, n, [&](std::size_t i) {
    decoder.Append(request_frames[i]);
    auto frame = decoder.Next();
    if (frame.ok()) {
      sink += static_cast<double>(
          rtrec::DecodeRecommendRequest(*frame)->seed_videos.size());
    }
  });
  Batches(spans, "net.codec.reply_decode", 1, n, [&](std::size_t i) {
    decoder.Append(reply_frames[i]);
    auto frame = decoder.Next();
    if (frame.ok()) {
      sink += static_cast<double>(
          rtrec::DecodeRecommendReply(*frame)->videos.size());
    }
  });

  // --- common ---------------------------------------------------------------
  const std::size_t calls = 200000;
  for (const int threads : {1, workers}) {
    const bool contended = threads > 1;
    Batches(spans,
            contended ? "common.metrics_get_contended" : "common.metrics_get",
            threads, calls,
            [&](std::size_t) { metrics.GetCounter("service.requests"); });
    rtrec::Histogram histogram;
    Batches(spans,
            contended ? "common.histogram_add_contended"
                      : "common.histogram_add",
            threads, calls, [&](std::size_t i) {
              histogram.Add(static_cast<std::int64_t>(i & 1023));
            });
  }

  // --- the write path on the served world: three disjoint slices of
  // unseen next-day actions, one per pass --------------------------------
  const std::size_t slice = std::min<std::size_t>(6000, actions.size() / 3);
  const int s_observe = spans.Name("service.observe");
  const std::int64_t holdout0 =
      metrics.GetCounter("quality.holdout.evaluated")->value();
  for (std::size_t i = 0; i < slice; ++i) {
    Timed(spans, s_observe, i, -1, [&] { service.Observe(actions[i]); });
  }
  const std::int64_t probes =
      metrics.GetCounter("quality.holdout.evaluated")->value() - holdout0;
  const int s_trainer_observe = spans.Name("demographic.trainer_observe");
  for (std::size_t i = slice; i < 2 * slice; ++i) {
    Timed(spans, s_trainer_observe, i, -1,
          [&] { trainer.Observe(actions[i]); });
  }
  const int s_engagement = spans.Name("quality.on_engagement");
  for (std::size_t i = 2 * slice; i < 3 * slice; ++i) {
    if (actions[i].type == rtrec::ActionType::kImpress) continue;
    Timed(spans, s_engagement, i, -1,
          [&] { quality.OnEngagement(actions[i]); });
  }

  // --- the ingest stream, single-threaded on fresh engines -----------------
  {
    rtrec::RecEngine sequential(world.world->TypeResolver(), {});
    const int s_seq = spans.Name("core.observe_seq");
    for (std::size_t i = 0; i < stream.size(); ++i) {
      Timed(spans, s_seq, i, -1, [&] { sequential.Observe(stream[i]); });
    }
  }
  rtrec::RecEngine split(world.world->TypeResolver(), {});
  const int s_mf = spans.Name("core.mf_update");
  const int s_sim = spans.Name("core.sim_update");
  std::vector<double> pairs;
  pairs.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    Timed(spans, s_mf, i, -1, [&] { split.model().Update(stream[i]); });
    std::size_t refreshed = 0;
    Timed(spans, s_sim, i, -1,
          [&] { refreshed = split.updater().OnAction(stream[i]); });
    pairs.push_back(static_cast<double>(refreshed));
  }
  (void)sink;

  // --- report -----------------------------------------------------------
  // Per request, the shortest of the rounds; self time = duration minus
  // the children's durations.
  auto min_of = [&](const char* name) { return spans.MinByRequestUs(name, n); };
  const std::vector<double> svc = min_of("service.recommend");
  const std::vector<double> trn = min_of("demographic.trainer_recommend");
  const std::vector<double> served = min_of("quality.on_served");
  const std::vector<double> eng = min_of("core.engine_recommend");
  const std::vector<double> hist = min_of("kvstore.history_recent");
  const std::vector<double> query = min_of("kvstore.sim_query");
  const std::vector<double> cached = min_of("kvstore.cached_vectors_get");
  const std::vector<double> vectors = min_of("kvstore.vectors_get");
  const std::vector<double> score = min_of("core.score");
  std::vector<double> filter_self(n), trainer_self(n), engine_self(n),
      history_reads;
  for (std::size_t i = 0; i < n; ++i) {
    filter_self[i] = svc[i] - trn[i] - served[i];
    trainer_self[i] = trn[i] - eng[i];
    engine_self[i] = eng[i] - hist[i] - query[i] - cached[i] - score[i];
    if (requests[i].seed_videos.empty()) history_reads.push_back(hist[i]);
  }
  std::vector<double> seed_counts, candidate_counts, keys;
  for (const RequestPlan& plan : plans) {
    seed_counts.push_back(static_cast<double>(plan.seeds.size()));
    candidate_counts.push_back(static_cast<double>(plan.candidates.size()));
    if (!plan.candidates.empty()) {
      keys.push_back(static_cast<double>(plan.candidates.size()));
    }
  }

  const double service_p50 = Median(svc);
  report.Add("service.recommend_p50_us", service_p50, "us", true);
  report.Add("service.recommend_p99_us",
             Percentile(spans.DurationsUs("service.recommend"), 99), "us",
             true);
  report.Add("service.observe_p50_us",
             Median(spans.DurationsUs("service.observe")), "us", true);
  report.Add("service.observe_p99_us",
             Percentile(spans.DurationsUs("service.observe"), 99), "us", true);

  report.Add("demographic.trainer_recommend_us", Median(trn), "us", true);
  report.Add("demographic.filter_self_us", Median(filter_self), "us", true);
  report.Add("demographic.trainer_self_us", Median(trainer_self), "us", true);
  report.Add("demographic.trainer_observe_us",
             Median(spans.DurationsUs("demographic.trainer_observe")), "us",
             true);

  report.Add("core.engine_recommend_us", Median(eng), "us", true);
  report.Add("core.seeds_per_request", Mean(seed_counts), "count", true);
  report.Add("core.candidates_per_request", Mean(candidate_counts), "count",
             true);
  report.Add("core.score_us", Median(score), "us", true);
  report.Add("core.recommend_self_us", Median(engine_self), "us", true);
  report.Add("core.mf_update_us", Median(spans.DurationsUs("core.mf_update")),
             "us", true);
  report.Add("core.sim_update_us",
             Median(spans.DurationsUs("core.sim_update")), "us", true);
  report.Add("core.pairs_per_action", Mean(pairs), "count", true);
  report.Add("core.observe_seq_us",
             Median(spans.DurationsUs("core.observe_seq")), "us", true);

  report.Add("kvstore.history_recent_us", Median(history_reads), "us", true);
  report.Add("kvstore.sim_query_us", Median(query), "us", true);
  report.Add("kvstore.cached_vectors_get_us", Median(cached), "us", true);
  report.Add("kvstore.vectors_get_us", Median(vectors), "us", true);
  report.Add("kvstore.vectors_get_keys", Mean(keys), "count", true);
  report.Add("kvstore.factor_cache_hit_ratio",
             static_cast<double>(hits) /
                 static_cast<double>(std::max<std::int64_t>(1, hits + misses)),
             "ratio", true);
  report.Note("factor cache base: " + std::to_string(hits + misses) +
              " lookups in the service passes");
  std::size_t factor_bytes = 0, arena_bytes = 0;
  std::vector<rtrec::GroupId> groups = trainer.ActiveGroups();
  groups.push_back(rtrec::kGlobalGroup);
  for (const rtrec::GroupId group : groups) {
    rtrec::RecEngine* engine = trainer.GetEngine(group);
    if (engine == nullptr) continue;
    factor_bytes += engine->factors().ApproxFactorBytes();
    arena_bytes += engine->sim_table().ArenaBytes();
  }
  report.Add("kvstore.factor_mb", factor_bytes / (1024.0 * 1024.0), "MB",
             true);
  report.Add("kvstore.sim_arena_mb", arena_bytes / (1024.0 * 1024.0), "MB",
             true);

  report.Add("quality.on_served_us", Median(served), "us", true);
  report.Add("quality.on_served_contended_us",
             Median(spans.DurationsUs("quality.on_served_contended")) / kBatch,
             "us", true);
  report.Add("quality.on_engagement_us",
             Median(spans.DurationsUs("quality.on_engagement")), "us", true);
  report.Add("quality.holdout_probes_per_1k_observe",
             1000.0 * static_cast<double>(probes) /
                 static_cast<double>(std::max<std::size_t>(1, slice)),
             "count", true);

  report.Add("common.metrics_get_ns", NsPerCall(spans, "common.metrics_get"),
             "ns", true);
  report.Add("common.metrics_get_contended_ns",
             NsPerCall(spans, "common.metrics_get_contended"), "ns", true);
  report.Add("common.histogram_add_ns",
             NsPerCall(spans, "common.histogram_add"), "ns", true);
  report.Add("common.histogram_add_contended_ns",
             NsPerCall(spans, "common.histogram_add_contended"), "ns", true);

  report.Add("net.codec.request_encode_ns",
             NsPerCall(spans, "net.codec.request_encode"), "ns", true);
  report.Add("net.codec.request_decode_ns",
             NsPerCall(spans, "net.codec.request_decode"), "ns", true);
  report.Add("net.codec.reply_encode_ns",
             NsPerCall(spans, "net.codec.reply_encode"), "ns", true);
  report.Add("net.codec.reply_decode_ns",
             NsPerCall(spans, "net.codec.reply_decode"), "ns", true);

  // Breakdown accounting: the service median less the medians of the
  // self times under it. Medians do not add, so this is how much of a
  // request the per-layer table leaves unexplained.
  const double history_share =
      static_cast<double>(history_reads.size()) / static_cast<double>(n);
  const double explained =
      Median(filter_self) + Median(trainer_self) + Median(served) +
      Median(engine_self) + history_share * Median(history_reads) +
      Median(query) + Median(cached) + Median(score);
  report.Add("unattributed_us", service_p50 - explained, "us", true);
}

}  // namespace perfbench
