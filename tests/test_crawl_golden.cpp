// Crawl golden digests: a fixed-seed deep crawl plus targeted crawl on a
// small world is pinned end to end — the deep crawl's areas and ids, every
// track the targeted crawl keeps (first/last sighting, viewer sums), and
// the raw mapGeoBroadcastFeed bytes for a few rectangles afterwards. Any
// change to what the map query returns (membership, ranking, truncation)
// or to the crawlers' request sequence fails here and has to be a
// deliberate, documented re-baseline. Speed work on the service layer
// must leave every digest unchanged.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "crawler/crawler.h"
#include "service/api.h"
#include "service/world.h"
#include "util/sha1.h"
#include "util/strings.h"

namespace psc::crawler {
namespace {

struct GoldenWorld {
  GoldenWorld()
      : world(sim, world_config(), 20160), servers(20161),
        api(world, servers, service::ApiConfig{}) {
    world.start();
    sim.run_until(time_at(30));
  }

  static service::WorldConfig world_config() {
    service::WorldConfig cfg;
    cfg.target_concurrent = 500;
    cfg.hotspot_count = 40;
    return cfg;
  }

  sim::Simulation sim;
  service::World world;
  service::MediaServerPool servers;
  service::ApiServer api;
};

std::string digest(const std::string& s) { return sha1_hex(to_bytes(s)); }

struct CrawlOutcome {
  std::size_t deep_areas = 0;
  std::size_t deep_ids = 0;
  std::size_t deep_requests = 0;
  std::string deep_digest;
  std::size_t tracks = 0;
  std::string tracks_digest;
  std::string feeds_digest;
};

/// Deep crawl to completion, then a 20-minute targeted crawl over the top
/// 16 areas, then four raw map responses from the same world state.
CrawlOutcome run_golden_crawl() {
  GoldenWorld w;
  CrawlOutcome out;

  DeepCrawler deep(w.sim, w.api, DeepCrawlConfig{});
  std::optional<DeepCrawlResult> deep_result;
  deep.run([&](DeepCrawlResult r) { deep_result = std::move(r); });
  w.sim.run_until(w.sim.now() + hours(1));
  if (!deep_result) return out;
  out.deep_areas = deep_result->areas.size();
  out.deep_ids = deep_result->ids.size();
  out.deep_requests = deep_result->requests;
  std::string deep_text;
  for (const AreaCount& a : deep_result->areas) {
    deep_text += a.rect.to_string() + strf(" %zu\n", a.new_broadcasts);
  }
  for (const service::BroadcastId& id : deep_result->ids) {
    deep_text += id + "\n";
  }
  out.deep_digest = digest(deep_text);

  std::vector<geo::GeoRect> areas;
  for (const AreaCount& a : deep_result->ranked()) {
    areas.push_back(a.rect);
    if (areas.size() >= 16) break;
  }
  TargetedCrawler targeted(w.sim, w.api, areas, TargetedCrawlConfig{});
  std::optional<UsageDataset> dataset;
  targeted.run(minutes(20), [&](UsageDataset d) { dataset = std::move(d); });
  w.sim.run_until(w.sim.now() + minutes(25));
  if (!dataset) return out;
  out.tracks = dataset->tracks.size();
  std::string track_text;
  for (const auto& [id, t] : dataset->tracks) {
    track_text += strf("%s %.6f %.6f %.6f %.17g %zu %d\n", id.c_str(),
                       t.start_time_s, to_s(t.first_seen), to_s(t.last_seen),
                       t.viewer_sum, t.viewer_samples,
                       t.available_for_replay ? 1 : 0);
  }
  out.tracks_digest = digest(track_text);

  // Raw responses: the world, a continent, a city, and the continent with
  // ended broadcasts kept for replay. One account per call keeps every
  // request under the rate limiter.
  const geo::GeoRect feeds[] = {
      geo::GeoRect::world(),
      {30, 60, -10, 40},
      {40, 44, 0, 4},
      {30, 60, -10, 40},
  };
  std::string feed_text;
  for (std::size_t i = 0; i < std::size(feeds); ++i) {
    json::Object body;
    body["cookie"] = strf("golden-%zu", i);
    body["p_lat_min"] = feeds[i].lat_min;
    body["p_lat_max"] = feeds[i].lat_max;
    body["p_lng_min"] = feeds[i].lon_min;
    body["p_lng_max"] = feeds[i].lon_max;
    body["include_replay"] = i == 3;
    int status = 0;
    const json::Value resp =
        w.api.call("mapGeoBroadcastFeed", json::Value(std::move(body)),
                   w.sim.now(), &status);
    feed_text += strf("%d ", status) + resp.dump() + "\n";
  }
  out.feeds_digest = digest(feed_text);
  return out;
}

TEST(CrawlGolden, DeepThenTargetedCrawl) {
  const CrawlOutcome o = run_golden_crawl();
  EXPECT_EQ(o.deep_areas, 64u);
  EXPECT_EQ(o.deep_ids, 337u);
  EXPECT_EQ(o.deep_requests, 64u);
  EXPECT_EQ(o.deep_digest, "9743fda5da63db53a09938659d5f1cf98665f35f");
  EXPECT_EQ(o.tracks, 603u);
  EXPECT_EQ(o.tracks_digest, "8f2f0a5c9d5ac11b3750ae5d296cc0a1c54fd120");
  EXPECT_EQ(o.feeds_digest, "cea1b624534ece6c1a5822b02a6d8eccbd00b750");
}

}  // namespace
}  // namespace psc::crawler
