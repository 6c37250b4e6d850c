#include "service/world_view.h"

#include <algorithm>
#include <cmath>

namespace psc::service::map_query {

double visibility_hash(const BroadcastId& id) {
  const std::size_t h = std::hash<std::string>{}(id);
  return static_cast<double>(h % 1000003) / 1000003.0;
}

double visible_fraction(const geo::GeoRect& rect, const WorldConfig& cfg) {
  return std::pow(cfg.vis_full_area_deg2 /
                      std::max(rect.area_deg2(), cfg.vis_full_area_deg2),
                  cfg.vis_gamma);
}

bool admit(const BroadcastInfo& b, const geo::GeoRect& rect,
           bool include_ended_replays, TimePoint now, const WorldConfig& cfg,
           double p_visible) {
  if (!rect.contains(b.location)) return false;
  if (!b.live_at(now)) {
    // Ended broadcasts surface only on request, only while kept for
    // replay, and only until the registry garbage-collects them.
    if (!include_ended_replays || !b.available_for_replay ||
        b.start_time > now) {
      return false;
    }
  }
  if (b.is_private) return false;  // never on the map
  const bool featured = b.viewers_at(now) >= cfg.vis_always_viewers;
  return featured || visibility_hash(b.id) < p_visible;
}

void rank_and_truncate(std::vector<const BroadcastInfo*>& hits,
                       TimePoint now, std::size_t cap) {
  // One viewers_at() per hit, then a top-`cap` partial sort. With unique
  // ids the order is total, so the result equals a full sort + truncate
  // whatever order the hits arrive in.
  struct Ranked {
    int viewers;
    const BroadcastInfo* b;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(hits.size());
  for (const BroadcastInfo* b : hits) {
    ranked.push_back({b->viewers_at(now), b});
  }
  const std::size_t k = std::min(cap, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(k),
                    ranked.end(), [](const Ranked& a, const Ranked& b) {
                      if (a.viewers != b.viewers) return a.viewers > b.viewers;
                      return a.b->id < b.b->id;
                    });
  hits.resize(k);
  for (std::size_t i = 0; i < k; ++i) hits[i] = ranked[i].b;
}

bool teleport_candidate(const BroadcastInfo& b, TimePoint now,
                        Duration min_remaining) {
  if (!b.live_at(now) || b.is_private) return false;
  return b.end_time() - now >= min_remaining;
}

double teleport_weight(const BroadcastInfo& b, TimePoint now) {
  return b.viewers_at(now) + 0.25;
}

}  // namespace psc::service::map_query
