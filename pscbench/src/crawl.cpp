// crawl_usage: the Fig. 2 deep crawl followed by the targeted crawl, in
// one simulation on one thread (bench_fig2_usage's world: 2600 concurrent
// broadcasts over 200 hotspots). No media, net or player work runs here,
// so for media and kernel changes this is the bypass workload.
//
// One repetition builds a fresh world (timed as set-up), then runs the
// deep crawl (1 sim hour) and a 1 sim-hour targeted crawl over the top 64
// areas (timed as work). Throughput is API requests per second.
#include <memory>
#include <optional>
#include <string>

#include "bench.h"
#include "crawler/crawler.h"
#include "geo/geo.h"
#include "http/http.h"
#include "json/json.h"
#include "obs/bundle.h"
#include "obs/obs.h"
#include "probes.h"
#include "service/api.h"
#include "service/servers.h"
#include "service/world.h"
#include "sim/simulation.h"

namespace pscbench {

namespace {

using namespace psc;

constexpr double kTargetedHours = 1.0;
constexpr std::size_t kTargetedAreas = 64;
constexpr std::size_t kInputsPerRun = 4;

struct CrawlWorld {
  sim::Simulation sim;
  std::unique_ptr<service::World> world;
  std::unique_ptr<service::MediaServerPool> servers;
  std::unique_ptr<service::ApiServer> api;
};

std::unique_ptr<CrawlWorld> make_world(std::uint64_t seed) {
  auto w = std::make_unique<CrawlWorld>();
  service::WorldConfig wcfg;
  wcfg.target_concurrent = 2600;
  wcfg.hotspot_count = 200;
  w->world = std::make_unique<service::World>(w->sim, wcfg,
                                              derive_seed(seed, 30));
  w->servers = std::make_unique<service::MediaServerPool>(derive_seed(seed, 31));
  w->api = std::make_unique<service::ApiServer>(*w->world, *w->servers,
                                                service::ApiConfig{});
  w->world->start();
  w->sim.run_until(time_at(60));
  return w;
}

struct CrawlRep {
  double wall_s = 0;
  double cpu_s = 0;
  double api_requests = 0;  // served + throttled: every request attempted
  double api_served = 0;    // the useful work: requests answered
  double events = 0;
  std::vector<geo::GeoRect> areas;
  std::optional<crawler::UsageDataset> dataset;
  bool deep_done = false;
};

CrawlRep run_crawl(CrawlWorld& w) {
  CrawlRep r;
  const std::size_t served0 = w.api->requests_served();
  const std::size_t throttled0 = w.api->requests_throttled();
  const std::size_t ev0 = w.sim.events_executed();
  const double c0 = process_cpu_s();
  const double t0 = wall_s();
  crawler::DeepCrawler deep(w.sim, *w.api, crawler::DeepCrawlConfig{});
  std::optional<crawler::DeepCrawlResult> deep_result;
  deep.run([&](crawler::DeepCrawlResult d) { deep_result = std::move(d); });
  w.sim.run_until(w.sim.now() + hours(1));
  r.deep_done = deep_result.has_value();
  if (r.deep_done) {
    for (const auto& a : deep_result->ranked()) {
      r.areas.push_back(a.rect);
      if (r.areas.size() >= kTargetedAreas) break;
    }
    crawler::TargetedCrawler targeted(w.sim, *w.api, r.areas,
                                      crawler::TargetedCrawlConfig{});
    targeted.run(hours(kTargetedHours), [&](crawler::UsageDataset d) {
      r.dataset = std::move(d);
    });
    w.sim.run_until(w.sim.now() + hours(kTargetedHours) + minutes(10));
  }
  r.wall_s = wall_s() - t0;
  r.cpu_s = process_cpu_s() - c0;
  r.api_served = static_cast<double>(w.api->requests_served() - served0);
  r.api_requests = r.api_served + static_cast<double>(
                                      w.api->requests_throttled() - throttled0);
  r.events = static_cast<double>(w.sim.events_executed() - ev0);
  return r;
}

/// Checks: both crawls finish and the targeted crawl tracks broadcasts.
bool check_crawl(const CrawlRep& r, Report& report) {
  report.check(r.deep_done, "deep crawl did not finish");
  report.check(r.dataset.has_value(), "targeted crawl did not finish");
  const bool tracked = r.dataset && !r.dataset->tracks.empty();
  report.check(tracked, "targeted crawl tracked no broadcasts");
  return r.deep_done && tracked;
}

std::string digest_of(const CrawlRep& r) {
  Digest d;
  d.add(std::to_string(r.areas.size()));
  if (!r.dataset) return d.hex();
  d.add(std::to_string(r.dataset->tracks.size()));
  for (const auto& [id, t] : r.dataset->tracks) {
    d.add(id);
    d.add(to_s(t.first_seen));
    d.add(to_s(t.last_seen));
    d.add(std::to_string(t.viewer_samples));
    d.add(t.viewer_sum);
  }
  return d.hex();
}

http::Request api_request(const std::string& name, json::Object body) {
  http::Request req;
  req.method = "POST";
  req.path = "/api/v2/" + name;
  req.headers["Content-Type"] = "application/json";
  req.body = json::Value(std::move(body)).dump();
  return req;
}

/// World::query_rect and ApiServer::handle on the crawl's own areas and
/// tracked ids, one timed call each, after the crawl (same world state).
void probe_service(CrawlWorld& w, const CrawlRep& r, LayerValues& layers,
                   Spans& spans, int parent) {
  std::vector<double> query_us;
  std::size_t hits = 0;
  const int q = spans.begin("service.world_query_rect", parent);
  for (int round = 0; round < 16; ++round) {
    for (const geo::GeoRect& rect : r.areas) {
      const double t0 = wall_s();
      const std::size_t found = w.world->query_rect(rect).size();
      const double t1 = wall_s();
      spans.add("service.query_rect", t0, t1, q);
      query_us.push_back(1e6 * (t1 - t0));
      hits += found;
    }
  }
  spans.end(q);
  Report::info("service.world_query_hits", double(hits), "count");
  layers.set("service.world_query_us_p50", quantile(query_us, 0.5));
  layers.set("service.world_query_us_p99", quantile(query_us, 0.99));
  Report::info("service.world_query_us_p99", quantile(query_us, 0.99), "us",
               query_us.size());

  // One account per request so the limiter never answers 429 here; eight
  // rounds over the crawl's areas and tracked ids.
  std::vector<http::Request> reqs;
  std::size_t account = 0;
  for (int round = 0; round < 8; ++round) {
    for (const geo::GeoRect& rect : r.areas) {
      json::Object body;
      body["cookie"] = "probe-" + std::to_string(account++);
      body["p_lat_min"] = rect.lat_min;
      body["p_lat_max"] = rect.lat_max;
      body["p_lng_min"] = rect.lon_min;
      body["p_lng_max"] = rect.lon_max;
      body["include_replay"] = false;
      reqs.push_back(api_request("mapGeoBroadcastFeed", std::move(body)));
    }
    json::Array ids;
    for (const auto& [id, t] : r.dataset->tracks) {
      ids.push_back(json::Value(id));
      if (ids.size() == 100) {
        json::Object body;
        body["cookie"] = "probe-" + std::to_string(account++);
        body["broadcast_ids"] = json::Value(std::move(ids));
        reqs.push_back(api_request("getBroadcasts", std::move(body)));
        ids = json::Array{};
      }
    }
  }
  std::vector<double> handle_us;
  std::vector<std::string> docs;
  const int h = spans.begin("service.api_handle", parent);
  for (const http::Request& req : reqs) {
    const double t0 = wall_s();
    http::Response resp = w.api->handle(req, w.sim.now());
    const double t1 = wall_s();
    spans.add("service.handle", t0, t1, h);
    handle_us.push_back(1e6 * (t1 - t0));
    docs.push_back(to_string(resp.body.view()));
  }
  spans.end(h);
  layers.set("service.api_handle_us_p50", quantile(handle_us, 0.5));
  layers.set("service.api_handle_us_p99", quantile(handle_us, 0.99));
  Report::info("service.api_handle_us_p99", quantile(handle_us, 0.99), "us",
               handle_us.size());

  const JsonProbe jp = probe_json(docs, spans, parent);
  layers.set("json.parse_ns_per_kb", jp.parse_ns_per_kb);
  layers.set("json.dump_ns_per_kb", jp.dump_ns_per_kb);
}

}  // namespace

void run_crawl_usage(const Options& opt, Report& report, LayerValues& layers,
                     Spans& spans) {
  std::printf("crawl: deep 1 h + targeted %.1f h over %zu areas, 1 thread\n",
              kTargetedHours, kTargetedAreas);
  std::vector<double> setups, rep_ms;
  BestOfInputs best(kInputsPerRun);
  std::string digest;
  long failed = 0;
  double requests = 0, throttled = 0;
  const double t_end = wall_s() + opt.seconds;

  if (opt.trace) {
    const int root = spans.begin("pscbench.traced_run");
    std::vector<double> untraced, traced;
    std::unique_ptr<CrawlWorld> w;
    CrawlRep rep;
    std::unique_ptr<obs::Obs> bundle;
    for (int round = 0; round < 2; ++round) {
      w = make_world(opt.seed);
      untraced.push_back(run_crawl(*w).wall_s);
      w = make_world(opt.seed);
      bundle = std::make_unique<obs::Obs>();
      obs::set_metrics_enabled(true);
      w->api->set_obs(bundle.get());
      const int s = spans.begin("crawler.crawl_rep", root);
      rep = run_crawl(*w);
      spans.end(s);
      w->api->set_obs(nullptr);
      obs::set_metrics_enabled(false);
      traced.push_back(rep.wall_s);
    }
    const bool ok = check_crawl(rep, report);
    report.ops(static_cast<long>(rep.api_requests),
               ok ? 0 : static_cast<long>(rep.api_requests));
    layers.set("obs.trace_overhead_pct",
               overhead_pct(median(traced), median(untraced)));
    double api = 0, throttled = 0;
    for (const auto& [name, c] : bundle->metrics.counters()) {
      if (name.rfind("api_requests_total", 0) == 0) api += c.value();
      if (name.rfind("api_throttled_total", 0) == 0) throttled += c.value();
    }
    layers.set("service.api_requests", api + throttled);
    layers.set("service.api_throttled", throttled);
    layers.set("sim.events_executed", rep.events);
    double sightings = 0;
    if (rep.dataset) {
      for (const auto& [id, t] : rep.dataset->tracks) {
        sightings += static_cast<double>(t.viewer_samples);
      }
    }
    layers.set("crawler.sightings", sightings);
    if (ok) probe_service(*w, rep, layers, spans, root);
    spans.end(root);
    return;
  }

  // Repetitions cycle through kInputsPerRun worlds (the first from the
  // seed itself) and stop only at the end of a full cycle: per-request
  // cost depends on the world drawn, and every run then measures the same
  // ones, each as often as the others, whatever its speed.
  std::vector<std::string> digests;
  for (std::size_t r = 0;
       r < kInputsPerRun || r % kInputsPerRun != 0 || wall_s() < t_end; ++r) {
    const std::uint64_t seed =
        r % kInputsPerRun == 0 ? opt.seed
                               : derive_seed(opt.seed, 1000 + r % kInputsPerRun);
    const double s0 = wall_s();
    std::unique_ptr<CrawlWorld> w = make_world(seed);
    setups.push_back(wall_s() - s0);
    const CrawlRep rep = run_crawl(*w);
    const bool ok = check_crawl(rep, report);
    report.ops(static_cast<long>(rep.api_requests), 0);
    requests += rep.api_requests;
    throttled += rep.api_requests - rep.api_served;
    if (!ok) failed += static_cast<long>(rep.api_requests);
    const std::string d = digest_of(rep);
    if (r < kInputsPerRun) {
      digests.push_back(d);
      if (r == 0) {
        Report::info("crawl.tracks",
                     rep.dataset ? double(rep.dataset->tracks.size()) : 0,
                     "count");
      }
    }
    report.check(d == digests[r % kInputsPerRun],
                 "repetitions of one world disagree on the output digest");
    // Throttled (429) answers are not work done: a limiter that rejects
    // more, or a crawler that retries more, must not raise the rate.
    best.add(r % kInputsPerRun, rep.api_served, rep.wall_s, rep.cpu_s);
    rep_ms.push_back(1e3 * rep.wall_s);
  }
  Digest all;
  for (const std::string& d : digests) all.add(d);
  digest = all.hex();
  report.ops(0, failed);
  const std::size_t n = rep_ms.size();
  std::printf("output_digest %s\n", digest.c_str());
  Report::info("api_requests_per_s", best.ops_per_s(), "1/s", n);
  Report::info("api_throttled", throttled, "count");
  Report::info("fail_ratio", double(failed) / std::max(requests, 1.0),
               "ratio");
  Report::info("rep_wall_ms", median(rep_ms), "ms", n);
  report.metric("setup_s", median(setups));
  report.metric("work_per_s", best.ops_per_s());
  report.metric("cpu_ms_per_op", best.cpu_ms_per_op());
  report.metric("peak_rss_mb", peak_rss_mb());
}

}  // namespace pscbench
