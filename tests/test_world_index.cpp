// Map-query index tests: World::query_rect (cell grid) against a
// brute-force scan kept here, over seeded and hostile rectangles, across
// arrivals, GC removals and injected edge-of-world broadcasts; and
// map_query::rank_and_truncate (one viewer evaluation per hit, top-k
// partial sort) against the full sort + truncate it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "service/world.h"
#include "util/strings.h"

namespace psc::service {
namespace {

using Hits = std::vector<const BroadcastInfo*>;

/// The ranking as it was before the index: full sort, then truncate.
void reference_rank(Hits& hits, TimePoint now, std::size_t cap) {
  std::sort(hits.begin(), hits.end(),
            [now](const BroadcastInfo* a, const BroadcastInfo* b) {
              const int va = a->viewers_at(now), vb = b->viewers_at(now);
              if (va != vb) return va > vb;
              return a->id < b->id;
            });
  if (hits.size() > cap) hits.resize(cap);
}

std::vector<std::string> ids_of(const Hits& hits) {
  std::vector<std::string> out;
  out.reserve(hits.size());
  for (const BroadcastInfo* b : hits) out.push_back(b->id);
  return out;
}

/// A World plus its registry as seen through the observer: the reference
/// scan walks every broadcast the World holds, with no index.
class IndexedWorld {
 public:
  IndexedWorld(const WorldConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), world_(sim_, cfg, seed) {
    world_.set_observer(
        [this](const BroadcastInfo& b, TimePoint) { registry_[b.id] = &b; },
        [this](const BroadcastId& id, TimePoint) {
          registry_.erase(id);
          ++removed_;
        });
    world_.start(/*prepopulate=*/true);
  }

  Hits reference(const geo::GeoRect& rect, bool include_replays) const {
    const TimePoint now = sim_.now();
    const double p_visible = map_query::visible_fraction(rect, cfg_);
    Hits hits;
    for (const auto& [id, b] : registry_) {
      if (map_query::admit(*b, rect, include_replays, now, cfg_, p_visible)) {
        hits.push_back(b);
      }
    }
    reference_rank(hits, now, cfg_.map_response_cap);
    return hits;
  }

  /// Asserts grid == scan for `rect` both ways of include_ended_replays;
  /// returns the number of hits seen (to check the test is not vacuous).
  std::size_t check(const geo::GeoRect& rect) const {
    std::size_t seen = 0;
    for (bool include_replays : {false, true}) {
      const Hits got = world_.query_rect(rect, include_replays);
      const Hits want = reference(rect, include_replays);
      EXPECT_EQ(ids_of(got), ids_of(want))
          << rect.to_string() << " include_replays=" << include_replays
          << " t=" << to_s(sim_.now());
      seen += got.size();
    }
    return seen;
  }

  sim::Simulation& sim() { return sim_; }
  World& world() { return world_; }
  std::size_t removed() const { return removed_; }

 private:
  WorldConfig cfg_;
  sim::Simulation sim_;
  World world_;
  std::map<BroadcastId, const BroadcastInfo*> registry_;
  std::size_t removed_ = 0;
};

WorldConfig index_world(std::size_t cap) {
  WorldConfig cfg;
  cfg.target_concurrent = 700;
  cfg.hotspot_count = 40;
  cfg.map_response_cap = cap;
  return cfg;
}

/// Seeded rectangles: free-floating, snapped to cell edges, and reaching
/// past the ±90/±180 world edges.
std::vector<geo::GeoRect> seeded_rects(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  auto uni = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const double cell = World::kCellDeg;
  std::vector<geo::GeoRect> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    geo::GeoRect r;
    switch (i % 3) {
      case 0: {  // anywhere, any size from city to continent
        const double h = std::exp(uni(std::log(0.05), std::log(120.0)));
        const double w = std::exp(uni(std::log(0.05), std::log(240.0)));
        r.lat_min = uni(-95, 95 - h);
        r.lon_min = uni(-190, 190 - w);
        r.lat_max = r.lat_min + h;
        r.lon_max = r.lon_min + w;
        break;
      }
      case 1: {  // exactly on cell edges
        const auto edge = [&](int lo, int hi) {
          return cell * std::uniform_int_distribution<int>(lo, hi)(rng);
        };
        r.lat_min = edge(-23, 22);
        r.lat_max = r.lat_min + edge(1, 6);
        r.lon_min = edge(-46, 44);
        r.lon_max = r.lon_min + edge(1, 10);
        break;
      }
      default: {  // straddling or beyond the world edges
        r.lat_min = uni(-140, -60);
        r.lat_max = uni(60, 140);
        r.lon_min = uni(-400, -150);
        r.lon_max = uni(150, 400);
        if (i % 2 == 0) {
          r.lat_min = uni(80, 100);
          r.lat_max = r.lat_min + uni(0.5, 50);
        }
        break;
      }
    }
    out.push_back(r);
  }
  return out;
}

/// Rectangles that contain no point, or whose corners overflow any int.
std::vector<geo::GeoRect> hostile_rects() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double big = 1e308;
  return {
      {40, 30, 0, 10},                 // inverted latitude
      {30, 40, 10, 0},                 // inverted longitude
      {30, 30, 0, 10},                 // zero height
      {30, 40, 8, 8},                  // zero width, on a cell edge
      {nan, 40, 0, 10},
      {30, nan, 0, 10},
      {30, 40, nan, 10},
      {30, 40, 0, nan},
      {nan, nan, nan, nan},
      {-big, big, -big, big},          // the whole world and then some
      {-inf, inf, -inf, inf},
      {big, -big, big, -big},          // inverted at the extremes
      {-big, -1e307, -big, big},       // all of it south of the world
      {1e307, big, -big, big},         // all of it north of the world
      {-90, 90, -180, 180},
      {-90, 90, 180, 540},             // east of the antimeridian only
      {89, 90, -180, 180},             // the top row, open at 90
      {-90, -89, -180, 180},
  };
}

class WorldIndex : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorldIndex, GridMatchesScanOverSeededRectangles) {
  IndexedWorld w(index_world(GetParam()), 41);
  const auto rects = seeded_rects(2016, 3000);
  std::size_t seen = w.check(geo::GeoRect::world());
  for (double t : {0.0, 95.0, 400.0}) {
    w.sim().run_until(time_at(t));
    for (const geo::GeoRect& r : rects) seen += w.check(r);
  }
  EXPECT_GT(seen, 10000u);
}

TEST_P(WorldIndex, HostileRectanglesMatchScan) {
  IndexedWorld w(index_world(GetParam()), 42);
  w.sim().run_until(time_at(30));
  const std::vector<geo::GeoRect> rects = hostile_rects();
  for (const geo::GeoRect& r : rects) w.check(r);
  // The first nine contain no point: nothing to find.
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_TRUE(w.world().query_rect(rects[i], true).empty())
        << rects[i].to_string();
  }
}

TEST_P(WorldIndex, ArrivalsAndGcRemovalsKeepGridInStep) {
  // GC runs every 60 s and drops broadcasts 120 s past their end; ten
  // minutes of churn replaces a good share of the registry.
  IndexedWorld w(index_world(GetParam()), 43);
  const auto rects = seeded_rects(77, 300);
  for (int minute = 1; minute <= 10; ++minute) {
    w.sim().run_until(time_at(60.0 * minute + 0.5));
    w.check(geo::GeoRect::world());
    for (const geo::GeoRect& r : rects) w.check(r);
  }
  EXPECT_GT(w.removed(), 100u);
  EXPECT_GT(w.world().total_created(), 800u);
}

TEST_P(WorldIndex, InjectionsAtTheEdgesOfTheWorld) {
  IndexedWorld w(index_world(GetParam()), 44);
  w.sim().run_until(time_at(10));
  Rng rng(9);
  const auto inject = [&](const std::string& id, double lat, double lon) {
    BroadcastInfo b = draw_broadcast(PopulationConfig{}, rng,
                                     geo::GeoPoint{lat, lon}, w.sim().now());
    b.id = id;
    b.is_private = false;
    b.peak_viewers = 5000;  // featured: visible at any zoom
    b.planned_duration = minutes(30);
    return w.world().add_broadcast(std::move(b));
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  inject("edge-north-89", 89, 10);
  inject("edge-south-89", -89, 10);
  inject("edge-west-180", 10, -180);
  inject("edge-east-180", 10, 179.999);
  inject("edge-corner-1", 89.999, 179.999);
  inject("edge-corner-2", -90, -180);
  // Outside the world: only rectangles reaching past 90 / 180 hold them.
  inject("edge-off-lat", 95, 10);
  inject("edge-off-lon", 10, 200);
  inject("edge-nan-loc", nan, nan);  // no rectangle contains NaN
  // Same id twice: the second replaces the first in a different cell.
  inject("edge-dup-0001", 40, 2);
  const BroadcastInfo* dup = inject("edge-dup-0001", -30, 150);

  std::vector<geo::GeoRect> probes = hostile_rects();
  for (const geo::GeoRect& r : seeded_rects(5, 600)) probes.push_back(r);
  probes.push_back({88, 90, 0, 20});
  probes.push_back({-90, -88, 0, 20});
  probes.push_back({0, 20, -180, -176});
  probes.push_back({0, 20, 176, 180});
  probes.push_back({89.998, 90, 179.998, 180});
  probes.push_back({-90, -89.999, -180, -179.999});
  probes.push_back({90, 100, 0, 20});
  probes.push_back({0, 20, 180, 220});
  probes.push_back({36, 44, 0, 4});
  probes.push_back({-32, -28, 148, 152});
  for (const geo::GeoRect& r : probes) w.check(r);

  const auto found = [&](const geo::GeoRect& r, const std::string& id) {
    const Hits hits = w.world().query_rect(r);
    return std::any_of(hits.begin(), hits.end(),
                       [&](const BroadcastInfo* b) { return b->id == id; });
  };
  EXPECT_TRUE(found({88, 90, 0, 20}, "edge-north-89"));
  EXPECT_TRUE(found({-90, -88, 0, 20}, "edge-south-89"));
  EXPECT_TRUE(found({0, 20, -180, -176}, "edge-west-180"));
  EXPECT_TRUE(found({0, 20, 176, 180}, "edge-east-180"));
  EXPECT_TRUE(found({89.998, 90, 179.998, 180}, "edge-corner-1"));
  EXPECT_TRUE(found({-90, -89.999, -180, -179.999}, "edge-corner-2"));
  EXPECT_TRUE(found({90, 100, 0, 20}, "edge-off-lat"));
  EXPECT_TRUE(found({0, 20, 180, 220}, "edge-off-lon"));
  EXPECT_FALSE(found({-1e308, 1e308, -1e308, 1e308}, "edge-nan-loc"));
  EXPECT_FALSE(found({36, 44, 0, 4}, "edge-dup-0001"));
  EXPECT_TRUE(found({-32, -28, 148, 152}, "edge-dup-0001"));
  EXPECT_EQ(w.world().find("edge-dup-0001"), dup);

  // Everything injected ends after 30 min and is collected 2 min later.
  w.sim().run_until(time_at(10 + 35 * 60));
  for (const geo::GeoRect& r : probes) w.check(r);
  EXPECT_EQ(w.world().find("edge-nan-loc"), nullptr);
  EXPECT_FALSE(found({-32, -28, 148, 152}, "edge-dup-0001"));
}

// A huge cap makes the test see every admitted broadcast (membership);
// the default cap of 60 exercises the truncated ranking.
INSTANTIATE_TEST_SUITE_P(Caps, WorldIndex,
                         ::testing::Values(std::size_t{1'000'000},
                                           std::size_t{60}));

// ---------------- rank_and_truncate ----------------

/// n broadcasts whose viewer counts at t=100 s fall on a handful of
/// values, so most comparisons tie on viewers and fall back to the id.
std::vector<BroadcastInfo> tied_broadcasts(int n, int distinct_viewers) {
  std::vector<BroadcastInfo> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    BroadcastInfo b;
    b.id = strf("tie%010d", (i * 7919) % 100003);
    b.start_time = time_at(0);
    b.planned_duration = seconds(1000);  // t=100 s is on the plateau
    b.peak_viewers = static_cast<double>(i % distinct_viewers);
    out.push_back(std::move(b));
  }
  return out;
}

TEST(RankAndTruncate, MatchesFullSortWithTiesForEveryCap) {
  // n = 0 is the empty hit list; distinct = 1 ties every hit, so the
  // order is the id order alone.
  const TimePoint now = time_at(100);
  std::mt19937_64 rng(3);
  for (int n : {0, 1, 2, 7, 60, 61, 500}) {
    for (int distinct : {1, 4}) {
      const auto broadcasts = tied_broadcasts(n, distinct);
      Hits base;
      for (const BroadcastInfo& b : broadcasts) base.push_back(&b);
      const auto un = static_cast<std::size_t>(n);
      for (std::size_t cap : {std::size_t{0}, std::size_t{1}, un / 2, un,
                              un + 1, std::size_t{60}, std::size_t{1000}}) {
        Hits want = base;
        reference_rank(want, now, cap);
        ASSERT_EQ(want.size(), std::min(cap, un));
        // Any arrival order gives the same answer.
        for (int shuffle = 0; shuffle < 5; ++shuffle) {
          Hits got = base;
          std::shuffle(got.begin(), got.end(), rng);
          map_query::rank_and_truncate(got, now, cap);
          EXPECT_EQ(got, want)
              << "n=" << n << " distinct=" << distinct << " cap=" << cap;
        }
      }
    }
  }
}

}  // namespace
}  // namespace psc::service
