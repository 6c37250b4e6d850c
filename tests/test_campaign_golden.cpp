// Campaign golden digests: two fixed-seed viewing campaigns are pinned end
// to end — the app-reported SessionStats behind Fig. 3 and 4 (the fields
// pscbench's output digest uses), and, for the analyzed campaign, the
// offline capture reconstruction behind Fig. 5: per-frame wire sizes and
// arrival times, NTP-SEI delivery latencies and per-HLS-segment info.
// The captured HLS bytes are the very segment buffers the pipeline
// packages once and shares with every hop, so a change to how those
// buffers are owned or recycled must leave every digest here unchanged.
// Any behaviour change fails here and has to be a deliberate, documented
// re-baseline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/study.h"
#include "util/sha1.h"
#include "util/strings.h"

namespace psc::core {
namespace {

std::string digest(const std::string& s) { return sha1_hex(to_bytes(s)); }

ShardedCampaign golden_campaign(std::uint64_t seed, int sessions,
                                BitRate limit) {
  ShardedCampaign c;
  c.base.seed = seed;
  c.base.world.target_concurrent = 250;
  c.base.world.hotspot_count = 40;
  c.sessions = sessions;
  c.bandwidth_limit = limit;
  c.shard_size = 12;
  return c;
}

std::string stats_text(const CampaignResult& r) {
  std::string out;
  for (const SessionRecord& rec : r.sessions) {
    const client::SessionStats& st = rec.stats;
    out += strf("%s %s %.17g %.17g %d %.17g %llu %d/%d/%s\n",
                st.broadcast_id.c_str(),
                st.protocol == client::Protocol::Rtmp ? "rtmp" : "hls",
                st.join_time_s, st.stalled_s, st.stall_count, st.stall_ratio,
                static_cast<unsigned long long>(st.bytes_received),
                st.retries, st.reconnects,
                st.outcome == client::Outcome::GaveUp ? "gaveup" : "ok");
  }
  return out;
}

struct AnalysisText {
  std::string frames;
  std::string ntp;
  std::string segments;
  std::size_t frame_count = 0;
  std::size_t segment_count = 0;
};

AnalysisText analysis_text(const CampaignResult& r) {
  AnalysisText t;
  for (const SessionRecord& rec : r.sessions) {
    const analysis::StreamAnalysis& a = rec.analysis;
    t.frames += strf("session %zu\n", a.frames.size());
    for (const analysis::FrameRecord& f : a.frames) {
      t.frames += strf("%zu %.17g\n", f.bytes, to_s(f.arrival));
    }
    t.ntp += strf("session %zu\n", a.ntp_marks.size());
    for (const analysis::NtpMark& m : a.ntp_marks) {
      t.ntp += strf("%.17g\n", m.delivery_latency_s());
    }
    t.segments += strf("session %zu\n", a.segments.size());
    for (const analysis::SegmentInfo& s : a.segments) {
      t.segments += strf("%.17g %zu %.17g %.17g %zu\n", to_s(s.duration),
                         s.bytes, s.video_bitrate_bps, s.avg_qp, s.frames);
    }
    t.frame_count += a.frames.size();
    t.segment_count += a.segments.size();
  }
  return t;
}

// Faults off, independent worlds, two devices, captures reconstructed:
// an unlimited campaign plus a 1 Mbps one (Fig. 3's knee side).
TEST(CampaignGolden, IndependentAnalyzedTwoDevice) {
  ShardedCampaign unlimited = golden_campaign(2016, 24, 0);
  ShardedCampaign limited = golden_campaign(2017, 12, 1e6);
  unlimited.analyze = limited.analyze = true;
  const std::vector<CampaignResult> rs =
      ShardedRunner(2).run_many({unlimited, limited});
  ASSERT_EQ(rs.size(), 2u);

  EXPECT_EQ(rs[0].sessions.size(), 24u);
  EXPECT_EQ(rs[1].sessions.size(), 12u);
  EXPECT_EQ(digest(stats_text(rs[0])),
            "084e86c9fe8a5494bec7801c9f4254bdfb2262f5");
  EXPECT_EQ(digest(stats_text(rs[1])),
            "c09578937b02c4863258e29ecba71203133b26cd");

  const AnalysisText a0 = analysis_text(rs[0]);
  const AnalysisText a1 = analysis_text(rs[1]);
  EXPECT_EQ(a0.frame_count, 46640u);
  EXPECT_EQ(a0.segment_count, 135u);
  EXPECT_EQ(a1.frame_count, 23576u);
  EXPECT_EQ(a1.segment_count, 95u);
  EXPECT_EQ(digest(a0.frames + a1.frames),
            "6350674d82741933fc3a0a61132b1107ad35e1dc");
  EXPECT_EQ(digest(a0.ntp + a1.ntp),
            "e9b0b6b447e7e6c2293e92aaca64c5b428908ca3");
  EXPECT_EQ(digest(a0.segments + a1.segments),
            "9557c594bd37ebda730ce64ce87e584632b50028");
}

// One shared world under a generated fault plan with the fluid
// flash-crowd tier on: replay, epoch barriers, retry and give-up paths.
TEST(CampaignGolden, SharedWorldFaultedAggregate) {
  ShardedCampaign c = golden_campaign(2018, 24, 0);
  c.base.mode = CampaignMode::shared_world;
  c.base.fault.enabled = true;
  c.base.fault.seed = 2016;
  const double span_s =
      to_s(c.base.preroll) + to_s(c.base.watch_time) + 10.0;
  c.base.aggregate.enabled = true;
  c.base.aggregate.schedule_seed = 11;
  c.base.aggregate.gen.horizon =
      seconds(30 + span_s * (c.shard_size + 1) + 120);
  c.base.aggregate.gen.peak_xm = 5e3;
  c.base.aggregate.gen.peak_cap = 2e5;
  c.base.aggregate.sample_rate = 1e-2;
  const CampaignResult r = ShardedRunner(2).run(c);

  EXPECT_EQ(r.sessions.size(), 24u);
  int recoveries = 0, cohort = 0;
  for (const SessionRecord& rec : r.sessions) {
    recoveries += rec.stats.retries + rec.stats.reconnects;
    cohort += rec.stats.cohort ? 1 : 0;
  }
  EXPECT_GT(recoveries, 0);  // the fault plan reaches the sessions
  EXPECT_GT(cohort, 0);      // and so does the fluid tier
  EXPECT_EQ(digest(stats_text(r)),
            "0f2ea7e34f213e6a99b10666587813e153c589f5");
}

}  // namespace
}  // namespace psc::core
