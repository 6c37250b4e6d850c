// The simulated Periscope world: broadcast arrivals placed on a hotspot
// map, live-set bookkeeping, and the zoom-dependent map query the
// crawler works against.
//
// Scope note (see DESIGN.md): we simulate the *discoverable* population —
// public broadcasts with disclosed location. The paper estimates ~40K
// concurrent broadcasts total but its crawler could only ever see the
// 1-4K map-visible ones; those are exactly what this world contains.
//
// World is the live, event-driven WorldView implementation. An observer
// can watch every broadcast enter and leave the registry — that is how
// WorldTimeline records a campaign-global world once so every shard can
// replay it (see world_timeline.h).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "geo/geo.h"
#include "service/broadcast.h"
#include "service/world_view.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace psc::service {

class World : public WorldView {
 public:
  World(sim::Simulation& sim, const WorldConfig& cfg, std::uint64_t seed);

  /// Begin the arrival process (optionally pre-populating the live set so
  /// measurements can start immediately).
  void start(bool prepopulate = true);

  /// Map-query index: a fixed lat/lon grid of kCellDeg-square cells.
  /// 4° cells (45×90 = 4,050 cells, ~97 KB of empty vectors) raised
  /// pscbench crawl_usage work_per_s by 42 % (4-core EPYC, seed 77, 10
  /// interleaved pairs); 2° cells were no faster (−2.8 % median over 5
  /// pairs against 4°) with four times the table.
  static constexpr double kCellDeg = 4.0;

  /// Map query over the cell index. Invariant: every registered broadcast
  /// sits in exactly one cell, the one its location maps to, from
  /// add_broadcast until gc() or a same-id replacement removes it. The
  /// query visits the cell rows and columns between those of the
  /// rectangle's min and max corners. Cell math is monotone (clamped in
  /// double first), so these cover every point the rectangle contains,
  /// and map_query::admit stays the only membership test. Ranking is a
  /// total order (ids are unique here), so the result does not depend on
  /// the order the cells are visited in.
  std::vector<const BroadcastInfo*> query_rect(
      const geo::GeoRect& rect,
      bool include_ended_replays = false) const override;

  const BroadcastInfo* find(const BroadcastId& id) const override;

  const BroadcastInfo* teleport(Rng& rng,
                                Duration min_remaining) const override;

  void for_each_live(
      const std::function<void(const BroadcastInfo&)>& fn) const override;

  std::size_t live_count() const override;
  std::size_t total_created() const { return total_created_; }

  sim::Simulation& sim() { return sim_; }
  const WorldConfig& config() const override { return cfg_; }

  /// Direct access for experiment setup (e.g. injecting a broadcast with
  /// chosen parameters). Returns the stored descriptor.
  const BroadcastInfo* add_broadcast(BroadcastInfo info);

  /// Observe the registry: `on_added` fires for every broadcast entering
  /// (including prepopulation and injection), `on_removed` when the GC
  /// drops it. Either may be null. Set before start().
  using AddedFn = std::function<void(const BroadcastInfo&, TimePoint)>;
  using RemovedFn = std::function<void(const BroadcastId&, TimePoint)>;
  void set_observer(AddedFn on_added, RemovedFn on_removed) {
    on_added_ = std::move(on_added);
    on_removed_ = std::move(on_removed);
  }

 private:
  struct Hotspot {
    geo::GeoPoint center;
    double spread_deg = 1.0;
    double weight = 1.0;
  };

  using Cell = std::vector<const BroadcastInfo*>;
  Cell& cell_of(const BroadcastInfo& b);
  void unindex(const BroadcastInfo* b);

  void schedule_next_arrival();
  void spawn_one(TimePoint start_time);
  void gc();
  geo::GeoPoint draw_location();

  sim::Simulation& sim_;
  WorldConfig cfg_;
  Rng rng_;
  std::vector<Hotspot> hotspots_;
  double arrival_rate_hz_ = 1.0;
  std::map<BroadcastId, std::unique_ptr<BroadcastInfo>> broadcasts_;
  std::vector<Cell> grid_;  // map-query index, row-major by latitude
  std::size_t total_created_ = 0;
  AddedFn on_added_;
  RemovedFn on_removed_;
};

}  // namespace psc::service
