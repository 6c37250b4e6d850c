// Capture gating: a viewer capture that nobody will analyze only counts
// bytes. Whether a campaign analyzes its captures must not move a single
// app-reported statistic (bytes_received included), and an unanalyzed
// session's capture holds no packet.
#include <gtest/gtest.h>

#include <string>

#include "client/device.h"
#include "client/viewer_session.h"
#include "core/parallel.h"
#include "core/study.h"
#include "net/capture.h"
#include "service/pipeline.h"
#include "service/servers.h"
#include "util/strings.h"

namespace psc {
namespace {

std::string stats_line(const client::SessionStats& st) {
  return strf("%s %s %s %s %d %.17g %.17g %.17g %.17g %d %.17g %.17g %.17g "
              "%llu %d %d %d %.17g %.17g\n",
              st.broadcast_id.c_str(),
              st.protocol == client::Protocol::Rtmp ? "rtmp" : "hls",
              st.server_ip.c_str(), st.secondary_server_ip.c_str(),
              st.ever_played ? 1 : 0, st.join_time_s, st.played_s,
              st.stalled_s, st.stall_ratio, st.stall_count,
              st.playback_latency_s, st.reported_fps, st.distance_km,
              static_cast<unsigned long long>(st.bytes_received),
              st.retries, st.reconnects,
              st.outcome == client::Outcome::GaveUp ? 1 : 0,
              st.agg_viewers_at_join, st.server_load_at_join);
}

TEST(CaptureGating, CampaignStatsIdenticalWithoutAnalysis) {
  // A faulted campaign, so reconnects, refetches and give-ups are in it.
  core::ShardedCampaign c;
  c.base.seed = 4242;
  c.base.world.target_concurrent = 250;
  c.base.world.hotspot_count = 40;
  c.base.fault.enabled = true;
  c.sessions = 24;
  c.shard_size = 12;
  core::ShardedCampaign analyzed = c;
  core::ShardedCampaign unanalyzed = c;
  analyzed.analyze = true;
  unanalyzed.analyze = false;
  const std::vector<core::CampaignResult> rs =
      core::ShardedRunner(2).run_many({analyzed, unanalyzed});
  ASSERT_EQ(rs.size(), 2u);
  ASSERT_EQ(rs[0].sessions.size(), rs[1].sessions.size());
  ASSERT_GT(rs[0].sessions.size(), 12u);

  int rtmp = 0;
  int hls = 0;
  for (std::size_t i = 0; i < rs[0].sessions.size(); ++i) {
    const core::SessionRecord& a = rs[0].sessions[i];
    const core::SessionRecord& u = rs[1].sessions[i];
    EXPECT_EQ(stats_line(a.stats), stats_line(u.stats)) << "session " << i;
    EXPECT_GT(u.stats.bytes_received, 0u) << "session " << i;
    // Only the analyzed campaign reconstructed anything.
    EXPECT_TRUE(u.analysis.frames.empty()) << "session " << i;
    (a.stats.protocol == client::Protocol::Rtmp ? rtmp : hls) += 1;
  }
  EXPECT_GT(rtmp, 0);
  EXPECT_GT(hls, 0);
}

service::BroadcastInfo gating_broadcast(std::uint64_t seed,
                                        double peak_viewers) {
  Rng rng(seed);
  service::PopulationConfig pop;
  service::BroadcastInfo b =
      service::draw_broadcast(pop, rng, {48.8, 2.35}, time_at(0));
  b.peak_viewers = peak_viewers;
  b.planned_duration = hours(1);
  b.uplink_bitrate = 4e6;
  return b;
}

/// One RTMP or HLS session over a fresh pipeline, its capture analyzed
/// or not; returns its stats and capture.
struct GatedRun {
  client::SessionStats stats;
  std::size_t packets = 0;
  std::uint64_t capture_bytes = 0;
};

GatedRun run_gated(bool hls, bool analyzed) {
  sim::Simulation sim;
  const service::BroadcastInfo info = gating_broadcast(21, hls ? 500 : 10);
  service::LiveBroadcastPipeline pipe(sim, info, service::PipelineConfig{});
  service::MediaServerPool pool(21);
  client::Device device(sim, client::DeviceConfig{}, 21);
  pipe.start(seconds(120));
  sim.run_until(time_at(20));
  std::unique_ptr<client::ViewerSession> session;
  if (hls) {
    session = std::make_unique<client::HlsViewerSession>(
        sim, pipe, device, pool.hls_edges()[0], pool.hls_edges()[1],
        client::PlayerConfig{millis(500), millis(2000)}, 5);
  } else {
    session = std::make_unique<client::RtmpViewerSession>(
        sim, pipe, device, pool.rtmp_origin_for(info.location, info.id),
        client::PlayerConfig{millis(1800), millis(1000)}, 5);
  }
  session->set_capture_analyzed(analyzed);
  session->start(seconds(60));
  sim.run_until(time_at(90));
  GatedRun r;
  r.stats = session->stats();
  r.packets = session->capture().packets().size();
  r.capture_bytes = session->capture().total_bytes();
  session->retire();
  pipe.retire();
  sim.run_until(time_at(200));
  return r;
}

TEST(CaptureGating, UnanalyzedSessionsHoldNoPackets) {
  for (const bool hls : {false, true}) {
    const GatedRun kept = run_gated(hls, true);
    const GatedRun counted = run_gated(hls, false);
    EXPECT_GT(kept.packets, 0u) << (hls ? "hls" : "rtmp");
    EXPECT_EQ(counted.packets, 0u) << (hls ? "hls" : "rtmp");
    EXPECT_GT(counted.capture_bytes, 0u) << (hls ? "hls" : "rtmp");
    EXPECT_EQ(counted.capture_bytes, kept.capture_bytes)
        << (hls ? "hls" : "rtmp");
    EXPECT_EQ(stats_line(counted.stats), stats_line(kept.stats))
        << (hls ? "hls" : "rtmp");
  }
}

TEST(Capture, CountOnlyModeKeepsNoBuffer) {
  net::Capture cap;
  cap.keep_packets(false);
  cap.record(time_at(1), util::BufferSlice(Bytes(100, 1)));
  cap.record_copy(time_at(2), Bytes(23, 2));
  EXPECT_EQ(cap.total_bytes(), 123u);
  EXPECT_TRUE(cap.empty());
  EXPECT_TRUE(cap.payload().empty());
}

}  // namespace
}  // namespace psc
