// Fault injection end-to-end: campaign determinism with faults enabled,
// the client give-up paths (RTMP reconnect exhaustion, HLS abandonment),
// bounded termination under an intense all-kinds plan, and the Injector's
// point-in-time queries that service hooks consult.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/study.h"
#include "fault/injector.h"
#include "fault/plan.h"

namespace psc::core {
namespace {

/// Like test_parallel.cpp's fingerprint, extended with the resilience
/// outcome fields — those must be deterministic too.
std::string resilience_fingerprint(const CampaignResult& r) {
  std::ostringstream out;
  out.precision(17);
  for (const SessionRecord& rec : r.sessions) {
    const client::SessionStats& s = rec.stats;
    out << s.broadcast_id << '|' << static_cast<int>(s.protocol) << '|'
        << s.join_time_s << '|' << s.played_s << '|' << s.stalled_s << '|'
        << s.stall_count << '|' << s.stall_ratio << '|' << s.bytes_received
        << '|' << static_cast<int>(s.outcome) << '|' << s.reconnects << '|'
        << s.retries << '\n';
  }
  return out.str();
}

ShardedCampaign fault_campaign(std::uint64_t seed, int sessions) {
  ShardedCampaign c;
  c.base.seed = seed;
  c.base.world.target_concurrent = 250;
  c.base.world.hotspot_count = 40;
  c.base.fault.enabled = true;
  c.base.fault.seed = 5;
  c.base.fault.gen.intensity = 6.0;  // dense enough to exercise recovery
  c.sessions = sessions;
  c.shard_size = 4;
  c.analyze = false;
  return c;
}

double activity(const CampaignResult& r) {
  double a = 0;
  for (const SessionRecord& rec : r.sessions) {
    a += rec.stats.reconnects + rec.stats.retries;
    if (rec.stats.outcome == client::Outcome::GaveUp) ++a;
  }
  return a;
}

// The determinism contract must survive fault injection: the plan seed is
// used verbatim (never shard-mixed), so the merged result is byte-identical
// across thread counts — in both campaign modes.
TEST(FaultCampaign, DeterministicAcrossThreadCounts) {
  const ShardedCampaign campaign = fault_campaign(77, 16);
  const std::string seq = resilience_fingerprint(ShardedRunner(1).run(campaign));
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(resilience_fingerprint(ShardedRunner(2).run(campaign)), seq);
  EXPECT_EQ(resilience_fingerprint(ShardedRunner(8).run(campaign)), seq);
}

TEST(FaultCampaign, DeterministicAcrossThreadCountsSharedWorld) {
  ShardedCampaign campaign = fault_campaign(77, 24);
  campaign.base.mode = CampaignMode::shared_world;
  campaign.shard_size = 12;
  const std::string seq = resilience_fingerprint(ShardedRunner(1).run(campaign));
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(resilience_fingerprint(ShardedRunner(2).run(campaign)), seq);
  EXPECT_EQ(resilience_fingerprint(ShardedRunner(8).run(campaign)), seq);
}

// Simulation::Callback's 96-byte inline buffer is sized to hold every
// callback the codebase schedules; one that outgrows it heap-allocates on
// every schedule. Pin zero spills on both campaign paths: independent
// worlds without faults, and a shared world under a fault plan.
TEST(FaultCampaign, NoCallbackSpillsIndependentCleanOrSharedFaulted) {
  ShardedCampaign clean = fault_campaign(77, 8);
  clean.base.fault.enabled = false;
  const CampaignResult rc = ShardedRunner(2).run(clean);
  EXPECT_GT(rc.kernel.events_executed, 0u);
  EXPECT_EQ(rc.kernel.callback_heap_allocs, 0u);

  ShardedCampaign faulted = fault_campaign(77, 24);
  faulted.base.mode = CampaignMode::shared_world;
  faulted.shard_size = 12;
  const CampaignResult rf = ShardedRunner(2).run(faulted);
  EXPECT_GT(activity(rf), 0.0);
  EXPECT_GT(rf.kernel.events_executed, 0u);
  EXPECT_EQ(rf.kernel.callback_heap_allocs, 0u);
}

// A plan must actually perturb sessions (else the above just re-tests the
// faults-off path), and turning faults on must change outcomes vs. clean.
TEST(FaultCampaign, FaultsPerturbOutcomes) {
  ShardedCampaign faulty = fault_campaign(31, 16);
  ShardedCampaign clean = faulty;
  clean.base.fault.enabled = false;
  const CampaignResult rf = ShardedRunner(2).run(faulty);
  const CampaignResult rc = ShardedRunner(2).run(clean);
  EXPECT_GT(activity(rf), 0.0);
  EXPECT_EQ(activity(rc), 0.0);
  EXPECT_NE(resilience_fingerprint(rf), resilience_fingerprint(rc));
}

// RTMP give-up: the origin never comes back, so every reconnect attempt
// finds it restarting and the backoff ladder runs to exhaustion.
TEST(Resilience, RtmpGivesUpWhenOriginNeverReturns) {
  ShardedCampaign campaign = fault_campaign(9, 12);
  campaign.base.fault.plan_text =
      "# psc-fault-plan v1\n"
      "episode origin_restart start=0 dur=100000\n";
  const CampaignResult r = ShardedRunner(1).run(campaign);
  ASSERT_FALSE(r.sessions.empty());
  int rtmp_seen = 0;
  const int max_attempts =
      fault::ResilienceConfig{}.rtmp_reconnect.max_attempts;
  for (const SessionRecord& rec : r.sessions) {
    if (rec.stats.protocol != client::Protocol::Rtmp) continue;
    ++rtmp_seen;
    EXPECT_EQ(rec.stats.outcome, client::Outcome::GaveUp);
    EXPECT_EQ(rec.stats.reconnects, 0);          // never got back in
    EXPECT_EQ(rec.stats.retries, max_attempts);  // full ladder climbed
  }
  EXPECT_GT(rtmp_seen, 0);
}

// HLS give-up: both edges are down for the whole run via per-target
// episodes (an all-edges episode would 503 playlists too and the session
// would never even issue segment fetches). Every segment fetch fails on
// both edges, retries exhaust, and consecutive abandonments trip the
// give-up threshold.
TEST(Resilience, HlsGivesUpWhenEveryEdgeRejectsSegments) {
  ShardedCampaign campaign = fault_campaign(9, 12);
  campaign.base.fault.plan_text =
      "# psc-fault-plan v1\n"
      "episode edge_outage start=0 dur=100000 target=0\n"
      "episode edge_outage start=0 dur=100000 target=1\n";
  const CampaignResult r = ShardedRunner(1).run(campaign);
  ASSERT_FALSE(r.sessions.empty());
  int hls_seen = 0;
  for (const SessionRecord& rec : r.sessions) {
    if (rec.stats.protocol != client::Protocol::Hls) continue;
    ++hls_seen;
    EXPECT_EQ(rec.stats.outcome, client::Outcome::GaveUp);
    EXPECT_GT(rec.stats.retries, 0);
    // Playlist polls still count bytes; no *media* ever played though.
    EXPECT_DOUBLE_EQ(rec.stats.played_s, 0.0);
  }
  EXPECT_GT(hls_seen, 0);
}

// Bounded termination: with every fault kind active at high intensity the
// campaign still drains — each session ends in a defined state (Completed
// or GaveUp) rather than hanging on a retry loop. The give-up thresholds
// bound the retry chains by construction; this test failing would show up
// as a hang (event queue never drains), not an assertion.
TEST(Resilience, EverySessionTerminatesUnderIntenseFaults) {
  for (const CampaignMode mode :
       {CampaignMode::independent_worlds, CampaignMode::shared_world}) {
    ShardedCampaign campaign = fault_campaign(3, 16);
    campaign.base.fault.gen.intensity = 8.0;
    campaign.base.mode = mode;
    if (mode == CampaignMode::shared_world) campaign.shard_size = 12;
    const CampaignResult r = ShardedRunner(2).run(campaign);
    for (const SessionRecord& rec : r.sessions) {
      EXPECT_TRUE(rec.stats.outcome == client::Outcome::Completed ||
                  rec.stats.outcome == client::Outcome::GaveUp);
      EXPECT_GE(rec.stats.played_s, 0.0);
      EXPECT_GE(rec.stats.stalled_s, 0.0);
    }
  }
}

// ---------------- Injector point-in-time queries ----------------

TEST(Injector, ApiFaultWindows) {
  const auto plan = fault::Plan::parse(
      "# psc-fault-plan v1\n"
      "episode api_error_burst start=10 dur=5\n"
      "episode api_latency_burst start=30 dur=5 severity=2\n");
  ASSERT_TRUE(plan.ok());
  sim::Simulation sim;
  const fault::Injector inj(sim, plan.value());
  EXPECT_EQ(inj.api_at(time_at(12)).status, 503);
  EXPECT_EQ(inj.api_at(time_at(20)).status, 0);
  EXPECT_EQ(to_s(inj.api_at(time_at(31)).extra_latency), 2.0);
  EXPECT_EQ(to_s(inj.api_at(time_at(12)).extra_latency), 0.0);
}

TEST(Injector, EdgeOutageTargeting) {
  const auto plan = fault::Plan::parse(
      "# psc-fault-plan v1\n"
      "episode edge_outage start=0 dur=10 target=0\n"
      "episode edge_outage start=20 dur=10 target=-1\n");
  ASSERT_TRUE(plan.ok());
  sim::Simulation sim;
  const fault::Injector inj(sim, plan.value());
  // Per-edge outage: only edge 0, and NOT an all-edges outage (playlists
  // keep flowing; the session fails over to edge 1).
  EXPECT_TRUE(inj.edge_down(0, time_at(5)));
  EXPECT_FALSE(inj.edge_down(1, time_at(5)));
  EXPECT_FALSE(inj.all_edges_down(time_at(5)));
  // target=-1 hits everything, including the edge hook.
  EXPECT_TRUE(inj.edge_down(0, time_at(25)));
  EXPECT_TRUE(inj.edge_down(1, time_at(25)));
  EXPECT_TRUE(inj.all_edges_down(time_at(25)));
  EXPECT_TRUE(inj.edge_hook()(time_at(25)));
  EXPECT_FALSE(inj.edge_hook()(time_at(5)));
}

TEST(Injector, OriginRestartWindow) {
  const auto plan = fault::Plan::parse(
      "# psc-fault-plan v1\n"
      "episode origin_restart start=50 dur=10\n");
  ASSERT_TRUE(plan.ok());
  sim::Simulation sim;
  const fault::Injector inj(sim, plan.value());
  EXPECT_FALSE(inj.origin_restarting(time_at(49)));
  EXPECT_TRUE(inj.origin_restarting(time_at(55)));
  EXPECT_FALSE(inj.origin_restarting(time_at(60)));  // end-exclusive
  EXPECT_TRUE(inj.origin_hook()(time_at(55)));
}

}  // namespace
}  // namespace psc::core
