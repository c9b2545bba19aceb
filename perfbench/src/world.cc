#include "world.h"

#include "common/random.h"
#include "eval/experiment_runner.h"
#include "report.h"

namespace perfbench {

rtrec::WorldConfig BenchWorld(std::uint64_t seed) {
  rtrec::WorldConfig config = rtrec::MillionScaleWorldConfig(seed);
  config.population.num_users = 20000;
  config.catalog.num_videos = 6000;
  config.population.mean_activity = 0.2;
  return config;
}

std::unique_ptr<ServedWorld> BuildServedWorld(std::uint64_t seed) {
  auto out = std::make_unique<ServedWorld>();
  const std::int64_t t0 = NowNs();
  out->world = std::make_unique<rtrec::SyntheticWorld>(BenchWorld(seed));
  std::vector<rtrec::UserAction> warm =
      out->world->GenerateDays(0, kWarmDays);
  out->next_day = out->world->GenerateDay(kWarmDays);
  out->generate_s = SecondsSince(t0);

  const std::int64_t t1 = NowNs();
  out->metrics = std::make_unique<rtrec::MetricsRegistry>();
  rtrec::RecommendationService::Options options;
  options.engine =
      rtrec::DefaultEngineOptions(rtrec::UpdatePolicy::kCombine);
  options.metrics = out->metrics.get();
  out->service = std::make_unique<rtrec::RecommendationService>(
      out->world->TypeResolver(), options);
  out->world->RegisterProfiles(out->service->grouper());
  for (const rtrec::UserAction& action : warm) out->service->Observe(action);
  out->warm_actions = static_cast<std::int64_t>(warm.size());
  out->warm_s = SecondsSince(t1);
  return out;
}

std::vector<rtrec::RecRequest> MakeRequests(
    const std::vector<rtrec::UserAction>& next_day, std::uint64_t seed,
    std::size_t count) {
  std::vector<const rtrec::UserAction*> plays;
  for (const rtrec::UserAction& a : next_day) {
    if (a.type == rtrec::ActionType::kPlay) plays.push_back(&a);
  }
  std::vector<rtrec::RecRequest> out;
  if (plays.empty()) return out;
  rtrec::Rng rng(seed ^ 0x5eed5eed5eedULL);
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const rtrec::UserAction& play = *plays[rng.NextUint64(plays.size())];
    rtrec::RecRequest request;
    request.user = play.user;
    request.top_n = 10;
    request.now = play.time;
    if (i % 2 == 0) request.seed_videos = {play.video};
    out.push_back(std::move(request));
  }
  return out;
}

}  // namespace perfbench
