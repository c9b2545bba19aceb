#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "core/action.h"
#include "core/recommender.h"
#include "data/event_generator.h"
#include "service/recommendation_service.h"

namespace perfbench {

/// Days Observe-d into the service before it serves; the day after them
/// ("the next day") supplies the timed requests and, for serve_live, the
/// replayed actions.
inline constexpr int kWarmDays = 3;

/// The benchmark world: the MillionScaleWorldConfig shape (diurnal load,
/// a day-1 flash crowd, catalog churn, day-2 drift) at 20k users and
/// 6k videos, so a request expands a few seeds into tens of candidates
/// and the catalog is larger than the 4096-entry factor cache.
rtrec::WorldConfig BenchWorld(std::uint64_t seed);

/// A world warmed into a RecommendationService and ready to serve.
struct ServedWorld {
  std::unique_ptr<rtrec::SyntheticWorld> world;
  std::unique_ptr<rtrec::MetricsRegistry> metrics;
  std::unique_ptr<rtrec::RecommendationService> service;
  std::int64_t warm_actions = 0;
  /// Actions of the next day, in time order.
  std::vector<rtrec::UserAction> next_day;
  double generate_s = 0.0;  // World build and day generation.
  double warm_s = 0.0;      // Observe of the warm days.
};

/// Builds the world of `seed`, generates its days and Observe-s the warm
/// days into a fresh service with metrics and quality monitoring on.
std::unique_ptr<ServedWorld> BuildServedWorld(std::uint64_t seed);

/// `count` requests drawn from the next day: users are that day's
/// players. Even requests are "related videos" seeded with a video the
/// user plays that day; odd ones are "guess you like" with no seed, so
/// the engine takes up to 8 seeds from history. `now` is the play time.
std::vector<rtrec::RecRequest> MakeRequests(
    const std::vector<rtrec::UserAction>& next_day, std::uint64_t seed,
    std::size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
