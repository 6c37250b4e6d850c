// Campaign workloads: sweep_independent (the Fig. 3 sweep) and
// flashcrowd_shared_faulted (a shared-world cohort campaign under the
// fluid flash-crowd tier and a generated fault plan).
//
// Both are closed batch jobs: one repetition runs the whole campaign set
// through core::ShardedRunner::run_many, and the timed phase repeats it
// until --seconds have passed. Throughput is completed sessions per
// second of a repetition, reported as the median over repetitions.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench.h"
#include "core/parallel.h"
#include "core/study.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "probes.h"
#include "service/aggregate_audience.h"
#include "service/flash_crowd.h"
#include "service/load.h"
#include "service/servers.h"
#include "service/world_timeline.h"

namespace pscbench {

namespace {

using namespace psc;

constexpr int kShardSize = 12;
constexpr std::uint64_t kFaultPlanSeed = 2016;

struct CampaignSet {
  std::vector<core::ShardedCampaign> campaigns;
  int requested = 0;
  bool shared = false;
  bool faulted = false;
};

core::ShardedCampaign base_campaign(std::uint64_t seed, int sessions,
                                    BitRate limit) {
  core::ShardedCampaign c;
  c.base.seed = seed;
  c.base.world.target_concurrent = 800;
  c.base.world.hotspot_count = 120;
  c.sessions = sessions;
  c.bandwidth_limit = limit;
  c.analyze = false;
  c.shard_size = kShardSize;
  return c;
}

/// The Fig. 3 sweep: the unlimited campaign plus the 0.5/1/2/4 Mbps tc
/// limits, independent worlds, no faults (bench_fig3_stalls' plan at its
/// default scale: 240 + 4 x 60 sessions).
CampaignSet sweep_set(std::uint64_t seed) {
  CampaignSet s;
  s.campaigns.push_back(base_campaign(derive_seed(seed, 0), 240, 0));
  const double limits_mbps[] = {0.5, 1.0, 2.0, 4.0};
  for (int i = 0; i < 4; ++i) {
    s.campaigns.push_back(base_campaign(derive_seed(seed, 1 + i), 60,
                                        limits_mbps[i] * 1e6));
  }
  for (const auto& c : s.campaigns) s.requested += c.sessions;
  return s;
}

/// bench_flashcrowd's configuration (a coarse 1/100 cohort of 240 and a
/// fine 1/1000 cohort of 24 sessions, 150 k-viewer spike scale, its
/// default flash-crowd schedule seed 11) in shared-world mode under one
/// fixed generated fault plan. The seed picks the campaign.
CampaignSet flashcrowd_set(std::uint64_t seed) {
  CampaignSet s;
  s.shared = true;
  s.faulted = true;
  const std::uint64_t campaign_seed = derive_seed(seed, 10);
  const double peak = 150e3;
  for (const auto& [n, rate] : {std::pair<int, double>{240, 1e-2},
                                std::pair<int, double>{24, 1e-3}}) {
    core::ShardedCampaign c = base_campaign(campaign_seed, n, 0);
    c.base.mode = core::CampaignMode::shared_world;
    const double span_s =
        to_s(c.base.preroll) + to_s(c.base.watch_time) + 10.0;
    c.base.aggregate.enabled = true;
    c.base.aggregate.schedule_seed = 11;
    c.base.aggregate.gen.horizon = seconds(30 + span_s * (kShardSize + 1) + 120);
    c.base.aggregate.gen.peak_xm = std::max(1e3, peak / 8);
    c.base.aggregate.gen.peak_cap = peak;
    c.base.aggregate.sample_rate = rate;
    c.base.fault.enabled = true;
    c.base.fault.seed = kFaultPlanSeed;
    s.campaigns.push_back(std::move(c));
  }
  for (const auto& c : s.campaigns) s.requested += c.sessions;
  return s;
}

struct Rep {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<core::CampaignResult> results;
};

Rep run_rep(const CampaignSet& set, int threads) {
  Rep r;
  core::ShardedRunner runner(threads);
  const double c0 = process_cpu_s();
  const double t0 = wall_s();
  r.results = runner.run_many(set.campaigns);
  r.wall_s = wall_s() - t0;
  r.cpu_s = process_cpu_s() - c0;
  return r;
}

/// Sessions that produced no record. The runner attempts every requested
/// session; under a fault plan the app gives up when accessVideo keeps
/// failing past its retry budget and drops back without a player (the
/// designed behaviour, checked against api_gave_up_total in the traced
/// run). Without faults every attempted session must leave a record.
long without_record(const CampaignSet& set, const Rep& rep) {
  long n = 0;
  for (std::size_t ci = 0; ci < set.campaigns.size(); ++ci) {
    n += static_cast<long>(set.campaigns[ci].sessions) -
         static_cast<long>(rep.results[ci].sessions.size());
  }
  return n;
}

/// Output checks of one repetition; returns the sessions that failed.
long check_rep(const CampaignSet& set, const Rep& rep, Report& report) {
  long failed = 0;
  const long missing = without_record(set, rep);
  report.check(missing >= 0, "more records than requested sessions");
  if (!set.faulted) {
    report.check(missing == 0, std::to_string(missing) +
                                   " attempted sessions left no record");
    failed += std::max(0L, missing);
  }
  for (const auto& res : rep.results) {
    for (const auto& rec : res.sessions) {
      const double r = rec.stats.stall_ratio;
      const bool ok = std::isfinite(r) && r >= 0 && r <= 1;
      if (!ok) ++failed;
      report.check(ok, "stall ratio out of [0, 1]: " + std::to_string(r));
    }
  }
  return failed;
}

std::string digest_of(const Rep& rep) {
  Digest d;
  for (const auto& res : rep.results) {
    d.add(std::to_string(res.sessions.size()));
    for (const auto& rec : res.sessions) {
      const auto& st = rec.stats;
      d.add(st.broadcast_id);
      d.add(st.protocol == client::Protocol::Rtmp ? "rtmp" : "hls");
      d.add(st.join_time_s);
      d.add(st.stalled_s);
      d.add(std::to_string(st.stall_count));
      d.add(st.stall_ratio);
      d.add(std::to_string(st.bytes_received));
      d.add(std::to_string(st.retries) + "/" + std::to_string(st.reconnects) +
            "/" + (st.outcome == client::Outcome::GaveUp ? "gaveup" : "ok"));
    }
  }
  return d.hex();
}

/// Fig. 3 shape readouts (information only; ROADMAP item 1 gates them).
void print_fig3_readouts(const Rep& rep) {
  const auto& unlimited = rep.results[0];
  std::size_t rtmp = 0, zero = 0, mode = 0;
  double rtmp_stalls = 0, hls_stalls = 0;
  std::size_t hls = 0;
  for (const auto& rec : unlimited.sessions) {
    if (rec.stats.protocol == client::Protocol::Rtmp) {
      ++rtmp;
      rtmp_stalls += rec.stats.stall_count;
      if (rec.stats.stall_ratio <= 1e-9) ++zero;
      if (rec.stats.stall_ratio >= 0.04 && rec.stats.stall_ratio <= 0.10) ++mode;
    } else {
      ++hls;
      hls_stalls += rec.stats.stall_count;
    }
  }
  Report::info("fig3.p_ratio_zero", rtmp ? double(zero) / rtmp : 0, "ratio",
               rtmp);
  Report::info("fig3.sessions_0.04_0.10", double(mode), "count");
  Report::info("fig3.rtmp_mean_stalls", rtmp ? rtmp_stalls / rtmp : 0,
               "count", rtmp);
  Report::info("fig3.hls_mean_stalls", hls ? hls_stalls / hls : 0, "count",
               hls);
}

/// The campaign-level set-up run_shared does before any shard runs:
/// record the world once, then integrate the fluid audience over it.
/// flashcrowd_set makes the flash-crowd horizon the runner's default
/// recording horizon, so both cover the same span.
struct SharedSetup {
  core::SharedWorldContext ctx;
  std::unique_ptr<service::EpochLoadBoard> board;
  double timeline_s = 0;
  double aggregate_s = 0;
};

SharedSetup build_shared(const core::ShardedCampaign& c) {
  SharedSetup s;
  const double t0 = wall_s();
  s.ctx.timeline = service::WorldTimeline::record(
      c.base.world, c.base.seed ^ 0x0170BB57ull, c.base.aggregate.gen.horizon,
      c.base.load.epoch_length);
  const double t1 = wall_s();
  service::MediaServerPool pool(c.base.seed ^ 0x5EEDull);
  s.ctx.aggregate = std::make_shared<service::AggregateAudience>(
      s.ctx.timeline, service::make_flash_crowd_schedule(c.base.aggregate),
      pool, c.base.aggregate, c.base.load.epoch_length);
  s.timeline_s = t1 - t0;
  s.aggregate_s = wall_s() - t1;
  s.board = std::make_unique<service::EpochLoadBoard>(c.base.load.epoch_length);
  s.ctx.load_board = s.board.get();
  s.ctx.campaign_seed = c.base.seed;
  return s;
}

/// What a campaign pays before its first session. Independent mode: one
/// shard's Study with its world started and warmed up. Shared mode:
/// build_shared.
double setup_once(const CampaignSet& set) {
  const core::ShardedCampaign& c = set.campaigns[0];
  const double t0 = wall_s();
  if (set.shared) {
    build_shared(c);
  } else {
    core::StudyConfig cfg = c.base;
    cfg.seed = core::shard_seed(c.base.seed, 0);
    core::Study study(cfg);
    study.begin_campaign(c.bandwidth_limit, true, {});
  }
  return wall_s() - t0;
}

double hist_sum(const json::Value& process, const char* name) {
  return process["histograms"][name]["sum"].as_number();
}

double counter_sum(const obs::Registry& reg, const std::string& prefix) {
  double v = 0;
  for (const auto& [name, c] : reg.counters()) {
    if (name.rfind(prefix, 0) == 0) v += c.value();
  }
  return v;
}

/// Per-session host time: drive shards one session per
/// Study::run_sessions_until call, timing each call, until `max_sessions`
/// or `budget_s` is reached. Shared mode builds the context run_shared
/// does (its load board stays empty: no barriers run here).
std::vector<double> session_host_ms(const CampaignSet& set, int max_sessions,
                                    double budget_s, LayerValues& layers,
                                    Spans& spans, int parent) {
  const core::ShardedCampaign& c = set.campaigns[0];
  SharedSetup shared;
  if (set.shared) {
    const double t0 = wall_s();
    shared = build_shared(c);
    spans.add("service.timeline_record", t0, t0 + shared.timeline_s, parent);
    spans.add("service.aggregate_build", t0 + shared.timeline_s,
              t0 + shared.timeline_s + shared.aggregate_s, parent);
    layers.set("service.timeline_record_s", shared.timeline_s);
    layers.set("service.aggregate_build_s", shared.aggregate_s);
  }
  std::vector<double> ms;
  const double t_end = wall_s() + budget_s;
  for (std::uint64_t shard = 0;
       static_cast<int>(ms.size()) < max_sessions && wall_s() < t_end;
       ++shard) {
    core::StudyConfig cfg = c.base;
    cfg.seed = core::shard_seed(c.base.seed, shard);
    cfg.shard_index = shard;
    std::unique_ptr<core::Study> study =
        set.shared ? std::make_unique<core::Study>(cfg, shared.ctx)
                   : std::make_unique<core::Study>(cfg);
    study->begin_campaign(c.bandwidth_limit, true, {});
    core::CampaignResult out;
    for (int i = 1; i <= c.shard_size && wall_s() < t_end; ++i) {
      const double t0 = wall_s();
      study->run_sessions_until(time_at(1e12), i, false, &out);
      const double t1 = wall_s();
      spans.add("core.session", t0, t1, parent);
      ms.push_back(1e3 * (t1 - t0));
    }
  }
  return ms;
}

void traced_run(const Options& opt, const CampaignSet& set, int threads,
                Report& report, LayerValues& layers, Spans& spans) {
  const int root = spans.begin("pscbench.traced_run");
  // Tracing overhead: alternate untraced and traced repetitions.
  std::vector<double> untraced, traced;
  Rep rep;
  for (int round = 0; round < 2; ++round) {
    untraced.push_back(run_rep(set, threads).wall_s);
    obs::set_metrics_enabled(true);
    obs::process_reset();
    const int s = spans.begin("core.campaign_rep", root);
    rep = run_rep(set, threads);
    spans.end(s);
    obs::set_metrics_enabled(false);
    traced.push_back(rep.wall_s);
  }
  report.ops(set.requested, check_rep(set, rep, report));
  layers.set("obs.trace_overhead_pct",
             overhead_pct(median(traced), median(untraced)));

  obs::Registry merged;
  core::KernelTotals kernel;
  std::size_t sessions = 0;
  double stall_events = 0, hls_retries = 0, reconnects = 0, gave_up = 0;
  for (const auto& r : rep.results) {
    merged.merge(r.metrics);
    kernel.merge(r.kernel);
    sessions += r.sessions.size();
    for (const auto& rec : r.sessions) {
      stall_events += rec.stats.stall_count;
      reconnects += rec.stats.reconnects;
      if (rec.stats.protocol == client::Protocol::Hls) {
        hls_retries += rec.stats.retries;
      }
      if (rec.stats.outcome == client::Outcome::GaveUp) ++gave_up;
    }
  }
  const long missing = without_record(set, rep);
  gave_up += static_cast<double>(missing);
  report.check(
      missing == static_cast<long>(counter_sum(merged, "api_gave_up_total")),
      "sessions without a record are not all API give-ups");
  // With metrics on, the per-cause stall seconds re-add to the total.
  double stalled = 0;
  for (const auto& [name, h] : merged.histograms()) {
    if (name.rfind("session_stalled_s{", 0) == 0) stalled += h.sum();
  }
  const double attributed = counter_sum(merged, "stall_seconds_total{");
  report.check(std::fabs(stalled - attributed) <= 1e-9,
               "per-cause stall seconds do not add up to session_stalled_s");

  const auto process = json::parse(obs::process_to_json());
  const json::Value proc = process.ok() ? process.value() : json::Value();
  const double busy = set.shared ? hist_sum(proc, "shard_epoch_wall_s")
                                 : hist_sum(proc, "shard_wall_s");
  layers.set("core.shard_busy_s", busy);
  layers.set("core.parallel_efficiency",
             rep.wall_s > 0 ? busy / (rep.wall_s * threads) : 0);
  layers.set("core.barrier_wait_s", hist_sum(proc, "epoch_barrier_wait_s"));

  layers.set("sim.events_executed", double(kernel.events_executed));
  layers.set("sim.events_per_session",
             sessions ? double(kernel.events_executed) / sessions : 0);
  layers.set("sim.wheel_insert_share",
             kernel.events_scheduled
                 ? double(kernel.wheel_inserts) / kernel.events_scheduled
                 : 0);
  layers.set("sim.callback_heap_allocs", double(kernel.callback_heap_allocs));

  layers.set("client.stall_events", stall_events);
  layers.set("client.hls_retries", hls_retries);
  layers.set("client.rtmp_reconnects", reconnects);
  layers.set("client.gave_up", gave_up);
  layers.set("service.api_requests",
             counter_sum(merged, "api_requests_total"));
  layers.set("service.api_throttled", counter_sum(merged, "api_throttled_total"));
  const double cdn_req = counter_sum(merged, "cdn_requests_total");
  layers.set("service.cdn_hit_ratio",
             cdn_req > 0 ? counter_sum(merged, "cdn_hits_total") / cdn_req : 0);
  layers.set("fault.episodes", counter_sum(merged, "fault_episodes_total"));

  // Per-session host time on one shard at a time.
  const int drive = spans.begin("core.session_drive", root);
  const std::vector<double> ms =
      session_host_ms(set, 1000, opt.seconds, layers, spans, drive);
  spans.end(drive);
  layers.set("core.session_host_ms_p50", quantile(ms, 0.5));
  layers.set("core.session_host_ms_p99", quantile(ms, 0.99));
  Report::info("core.session_host_ms_p99", quantile(ms, 0.99), "ms", ms.size());

  // Layer probes on the workload's own seeded inputs.
  const int probes = spans.begin("pscbench.probes", root);
  const double media_s_per_session =
      to_s(set.campaigns[0].base.preroll) + to_s(set.campaigns[0].base.watch_time);
  const MediaProbe mp = probe_media(derive_seed(opt.seed, 20),
                                    8 * media_s_per_session, spans, probes);
  const double frames_per_session = mp.video_frames / 8;
  set_media_layers(mp, layers);
  layers.set("media.share_est",
             busy > 0 ? mp.ns_per_frame * 1e-9 * frames_per_session *
                            double(sessions) / busy
                      : 0);
  layers.set("net.ns_per_send",
             probe_net_ns_per_send(derive_seed(opt.seed, 21), mp, spans, probes));
  layers.set("net.sends_per_session", mp.samples / 8);
  layers.set("client.ns_per_on_media",
             probe_player_ns(derive_seed(opt.seed, 22), mp, spans, probes));
  layers.set("sim.ns_per_event",
             probe_sim_ns_per_event(derive_seed(opt.seed, 23),
                                    std::min<std::uint64_t>(
                                        kernel.events_executed, 2000000),
                                    spans, probes));
  spans.end(probes);
  spans.end(root);
}

/// Campaign inputs a run cycles through. Peak memory and per-session cost
/// depend on the campaign drawn, so each run measures the same
/// kInputsPerRun campaigns (the first from the seed itself) in whole
/// cycles: each input then gets as many repetitions as the others to reach
/// its fastest (BestOfInputs), whatever the speed.
constexpr int kInputsPerRun = 4;

/// Peak RSS, in MB, of a forked child that runs one repetition of `set`
/// and exits: the footprint of a process that runs that campaign set, as a
/// user runs it. Call only while no other thread is running. -1 if the
/// child failed.
double child_peak_rss_mb(const CampaignSet& set, int threads) {
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid == 0) {
    run_rep(set, threads);
    std::_Exit(0);
  }
  if (pid < 0) return -1;
  int status = 0;
  rusage ru{};
  if (::wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1;
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void run_campaign_workload(const Options& opt,
                           CampaignSet (*make)(std::uint64_t), Report& report,
                           LayerValues& layers, Spans& spans) {
  std::vector<CampaignSet> sets;
  for (int k = 0; k < kInputsPerRun; ++k) {
    sets.push_back(make(k == 0 ? opt.seed : derive_seed(opt.seed, 1000 + k)));
  }
  const CampaignSet& first = sets[0];
  const int threads =
      opt.threads > 0 ? opt.threads : core::ShardedRunner::default_threads();
  std::printf("campaigns=%zu sessions=%d threads=%d mode=%s inputs=%d\n",
              first.campaigns.size(), first.requested, threads,
              first.shared ? "shared" : "independent", kInputsPerRun);

  if (opt.trace) {
    traced_run(opt, first, threads, report, layers, spans);
    return;
  }

  // Peak memory per input, each in a child of its own, before this process
  // starts any thread. One heavy input among the four (a world that needs
  // ~30 % more memory) then moves the median, not the whole figure, as the
  // high-water mark of one process running all four would.
  std::vector<double> rss;
  for (const CampaignSet& set : sets) {
    rss.push_back(child_peak_rss_mb(set, threads));
    report.check(rss.back() > 0, "memory child failed");
  }

  std::vector<double> setups;
  for (int i = 0; i < 11; ++i) setups.push_back(setup_once(first));

  BestOfInputs best(sets.size());
  std::vector<double> cpu_s, rep_ms;
  std::vector<std::string> digests;
  const double t_end = wall_s() + opt.seconds;
  long failed = 0, gave_up_api = 0, requested = 0;
  for (std::size_t r = 0;
       r < sets.size() || r % sets.size() != 0 || wall_s() < t_end; ++r) {
    const CampaignSet& set = sets[r % sets.size()];
    const Rep rep = run_rep(set, threads);
    failed += check_rep(set, rep, report);
    gave_up_api += without_record(set, rep);
    requested += set.requested;
    report.ops(set.requested, 0);
    const std::string d = digest_of(rep);
    if (r < sets.size()) {
      digests.push_back(d);
      if (r == 0 && !set.shared) print_fig3_readouts(rep);
    }
    report.check(d == digests[r % sets.size()],
                 "repetitions of one campaign disagree on the output digest");
    std::size_t done = 0;
    for (const auto& res : rep.results) done += res.sessions.size();
    best.add(r % sets.size(), double(done), rep.wall_s, rep.cpu_s);
    cpu_s.push_back(rep.cpu_s);
    rep_ms.push_back(1e3 * rep.wall_s);
  }
  report.ops(0, failed);
  Digest all;
  for (const std::string& d : digests) all.add(d);
  std::printf("output_digest %s\n", all.hex().c_str());
  const std::size_t n = rep_ms.size();
  Report::info("sessions_per_s", best.ops_per_s(), "1/s", n);
  Report::info("cpu_s", median(cpu_s), "s", n);
  Report::info("sessions_gave_up_api", double(gave_up_api), "count");
  Report::info("fail_ratio", double(failed) / double(requested), "ratio");
  Report::info("rep_wall_ms", median(rep_ms), "ms", n);
  report.metric("setup_s", median(setups));
  report.metric("work_per_s", best.ops_per_s());
  report.metric("cpu_ms_per_op", best.cpu_ms_per_op());
  // The median proper (mean of the middle two): steadier across seeds than
  // either middle value alone.
  std::sort(rss.begin(), rss.end());
  report.metric("peak_rss_mb",
                (rss[(rss.size() - 1) / 2] + rss[rss.size() / 2]) / 2);
}

}  // namespace

void run_sweep_independent(const Options& opt, Report& report,
                           LayerValues& layers, Spans& spans) {
  run_campaign_workload(opt, sweep_set, report, layers, spans);
}

void run_flashcrowd_shared_faulted(const Options& opt, Report& report,
                                   LayerValues& layers, Spans& spans) {
  run_campaign_workload(opt, flashcrowd_set, report, layers, spans);
}

}  // namespace pscbench
