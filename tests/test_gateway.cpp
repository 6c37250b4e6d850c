// Interop gateway tests: the loopback differential contract (real-socket
// publish == sans-io sim-only pipeline, byte for byte), the HTTP surface,
// API bridging, and graceful-lifecycle guarantees.
//
// Everything is single-threaded: the test interleaves client step() pumps
// with Gateway::poll_once(), so there is no cross-thread scheduling to
// perturb sanitizer runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gateway/clients.h"
#include "gateway/gateway.h"
#include "gateway/segment_store.h"
#include "hls/playlist.h"
#include "json/json.h"
#include "util/strings.h"

namespace psc {
namespace {

gateway::GatewayConfig test_config() {
  gateway::GatewayConfig cfg;
  cfg.rtmp_port = 0;  // ephemeral: tests never collide on ports
  cfg.http_port = 0;
  cfg.enable_api = false;
  cfg.playlist_window = 64;  // keep every segment fetchable
  cfg.retain_extra = 8;
  return cfg;
}

/// Interleave a publisher with the gateway until `done` or turn budget.
template <typename DoneFn>
bool pump(gateway::Gateway& gw, gateway::PublishClient& pub, DoneFn done,
          int max_turns = 20000) {
  for (int i = 0; i < max_turns; ++i) {
    if (done()) return true;
    pub.step();
    gw.poll_once(0);
  }
  return done();
}

/// Fetch one resource through a live HTTP connection, pumping the gateway.
http::Response fetch(gateway::Gateway& gw, gateway::HlsFetchClient& client,
                     const std::string& path) {
  client.get(path);
  for (int i = 0; i < 20000 && !client.done(); ++i) {
    client.step();
    gw.poll_once(0);
  }
  EXPECT_TRUE(client.done()) << "no response for " << path;
  return client.done() ? client.take_response() : http::Response{};
}

/// Publish `media` over a real socket and wait until the gateway has
/// committed the post-close flush (stream marked ended).
void publish_over_socket(gateway::Gateway& gw,
                         const gateway::SyntheticMedia& media,
                         const std::string& key) {
  gateway::PublishClient pub("live", key, 77);
  ASSERT_TRUE(pub.connect(gw.rtmp_port()).ok());
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.publishing(); }));
  pub.send_avc_config(media.sps, media.pps);
  for (const auto& s : media.samples) pub.send_sample(s);
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.pending() == 0; }));
  pub.close();
  for (int i = 0; i < 20000; ++i) {
    const auto* st = gw.store().find_stream(key);
    if (st != nullptr && st->ended) return;
    gw.poll_once(0);
  }
  FAIL() << "publish end never reached the store";
}

TEST(GatewayDifferential, RealSocketMatchesSimOnlyPipeline) {
  auto gw_cfg = test_config();
  gateway::Gateway gw(gw_cfg);
  ASSERT_TRUE(gw.start().ok());
  const std::string key = "diffstream0001";
  const gateway::SyntheticMedia media = gateway::synthetic_frames(5, 300);
  publish_over_socket(gw, media, key);

  const std::vector<hls::Segment> reference = gateway::sim_reference_segments(
      media, key, gw_cfg.segment_target, gw_cfg.seed);
  ASSERT_GT(reference.size(), 1u);  // ~10 s at 30 fps -> >= 2 segments

  // Store-level identity.
  const auto* st = gw.store().find_stream(key);
  ASSERT_NE(st, nullptr);
  ASSERT_EQ(st->segments.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(st->segments[i].segment.sequence, reference[i].sequence);
    EXPECT_TRUE(st->segments[i].segment.ts_data == reference[i].ts_data)
        << "segment " << i << " differs";
  }

  // Wire-level identity: fetch the playlist + every segment over HTTP.
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());
  http::Response pl = fetch(gw, client, "/hls/" + key + "/media.m3u8");
  ASSERT_EQ(pl.status, 200);
  EXPECT_EQ(pl.headers["Content-Type"], "application/vnd.apple.mpegurl");
  auto parsed = hls::parse_m3u8(to_string(pl.body.view()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ended);
  ASSERT_EQ(parsed.value().segments.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    http::Response seg =
        fetch(gw, client, "/hls/" + key + "/" + parsed.value().segments[i].uri);
    ASSERT_EQ(seg.status, 200);
    EXPECT_EQ(seg.headers["Content-Type"], "video/mp2t");
    EXPECT_TRUE(seg.body == reference[i].ts_data)
        << "served segment " << i << " differs from sim-only pipeline";
  }
}

TEST(GatewayHttp, SurfaceAndErrors) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());

  EXPECT_EQ(fetch(gw, client, "/healthz").status, 200);
  http::Response streams = fetch(gw, client, "/streams");
  EXPECT_EQ(streams.status, 200);
  EXPECT_EQ(streams.headers["Content-Type"], "application/json");
  EXPECT_EQ(fetch(gw, client, "/nonexistent").status, 404);
  EXPECT_EQ(fetch(gw, client, "/hls/nostream/media.m3u8").status, 404);
  EXPECT_EQ(fetch(gw, client, "/hls/nostream/seg_0.ts").status, 404);
  // Keep-alive: all of the above rode one connection.
  EXPECT_EQ(gw.http_accepted(), 1u);

  const gateway::SyntheticMedia media = gateway::synthetic_frames(6, 120);
  publish_over_socket(gw, media, "httpstream0001");
  http::Response master =
      fetch(gw, client, "/hls/httpstream0001/master.m3u8");
  ASSERT_EQ(master.status, 200);
  auto variants = hls::parse_master_m3u8(to_string(master.body.view()));
  ASSERT_TRUE(variants.ok());
  ASSERT_EQ(variants.value().size(), 1u);
  EXPECT_EQ(variants.value()[0].uri, "media.m3u8");
}

TEST(GatewayHttp, MalformedRequestGets400AndClose) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  gateway::SocketPump peer;
  ASSERT_TRUE(peer.connect(gw.http_port()).ok());
  peer.queue(to_bytes("BROKEN\r\n\r\n"));
  Bytes received;
  for (int i = 0; i < 20000 && !peer.peer_closed(); ++i) {
    if (!peer.step(received)) break;
    gw.poll_once(0);
  }
  const std::string reply = to_string(received);
  EXPECT_NE(reply.find("400"), std::string::npos) << reply;
  EXPECT_TRUE(peer.peer_closed());
}

TEST(GatewayApi, PostBridgesToApiServer) {
  auto cfg = test_config();
  cfg.enable_api = true;
  cfg.world_concurrent = 20;
  gateway::Gateway gw(cfg);
  ASSERT_TRUE(gw.start().ok());
  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());

  http::Request req;
  req.method = "POST";
  req.path = "/api/v2/rankedBroadcastFeed";
  req.headers["Host"] = "gateway";
  req.body = "{\"cookie\":\"testuser\"}";
  req.headers["Content-Length"] = std::to_string(req.body.size());
  client.request(req);
  for (int i = 0; i < 20000 && !client.done(); ++i) {
    client.step();
    gw.poll_once(0);
  }
  ASSERT_TRUE(client.done());
  http::Response resp = client.take_response();
  EXPECT_EQ(resp.status, 200);
  auto body = json::parse(to_string(resp.body.view()));
  ASSERT_TRUE(body.ok());
  // The prepopulated world answers with actual broadcasts.
  EXPECT_GT(gw.api()->requests_served(), 0u);
}

TEST(GatewayHttp, StreamListEscapesPublisherNames) {
  // The stream name is publisher-supplied: quotes, backslashes and
  // control bytes must come back intact through a JSON parser.
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  const std::string key = "odd\"name\\with\x01" "ctl";
  publish_over_socket(gw, gateway::synthetic_frames(4, 60), key);

  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());
  http::Response resp = fetch(gw, client, "/streams");
  ASSERT_EQ(resp.status, 200);
  auto body = json::parse(to_string(resp.body.view()));
  ASSERT_TRUE(body.ok()) << to_string(resp.body.view());
  const json::Value& streams = body.value()["streams"];
  ASSERT_EQ(streams.as_array().size(), 1u);
  EXPECT_EQ(streams[0]["name"].as_string(), key);
  EXPECT_TRUE(streams[0]["ended"].as_bool());
}

TEST(GatewayLifecycle, MidPublishShutdownLeavesNoTornSegment) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  const std::string key = "tornstream0001";
  const gateway::SyntheticMedia media = gateway::synthetic_frames(9, 60);

  gateway::PublishClient pub("live", key, 42);
  ASSERT_TRUE(pub.connect(gw.rtmp_port()).ok());
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.publishing(); }));
  pub.send_avc_config(media.sps, media.pps);
  for (const auto& s : media.samples) pub.send_sample(s);
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.pending() == 0; }));
  // 60 frames = 2 s < the 3.6 s target: the segmenter holds an open
  // partial segment. Shut down mid-publish WITHOUT closing the client.
  ASSERT_TRUE(pump(gw, pub, [&] {
    const auto* st = gw.store().find_stream(key);
    return st != nullptr;  // publish reached the store
  }));
  gw.request_shutdown();

  const auto* st = gw.store().find_stream(key);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->ended);
  ASSERT_GE(st->segments.size(), 1u);
  for (const auto& stored : st->segments) {
    // Whole TS packets only: a torn segment would break the 188-byte
    // packet lattice.
    EXPECT_GT(stored.segment.ts_data.size(), 0u);
    EXPECT_EQ(stored.segment.ts_data.size() % 188, 0u);
    EXPECT_EQ(stored.segment.ts_data[0], 0x47);  // TS sync byte
  }
  auto parsed = hls::parse_m3u8(gw.store().media_playlist(key));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ended);

  // Listeners are gone, existing work drains.
  EXPECT_FALSE(gw.loop().listening());
  for (int i = 0; i < 20000 && !gw.drained(); ++i) {
    pub.step();
    gw.poll_once(0);
  }
  EXPECT_TRUE(gw.drained());
}

TEST(GatewayLifecycle, ShutdownDrainsViewersCleanly) {
  gateway::Gateway gw(test_config());
  ASSERT_TRUE(gw.start().ok());
  const std::string key = "drainstream001";
  // 150 frames = 5 s > the 3.6 s target: one segment commits mid-publish.
  const gateway::SyntheticMedia media = gateway::synthetic_frames(11, 150);

  gateway::HlsFetchClient client;
  ASSERT_TRUE(client.connect(gw.http_port()).ok());

  gateway::PublishClient pub("live", key, 13);
  ASSERT_TRUE(pub.connect(gw.rtmp_port()).ok());
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.publishing(); }));
  pub.send_avc_config(media.sps, media.pps);
  for (const auto& s : media.samples) pub.send_sample(s);
  ASSERT_TRUE(pump(gw, pub, [&] { return pub.pending() == 0; }));
  ASSERT_TRUE(pump(gw, pub, [&] {
    const auto* st = gw.store().find_stream(key);
    return st != nullptr && !st->segments.empty();
  }));

  // The committed segment is servable while the publisher is still live.
  const auto* st = gw.store().find_stream(key);
  ASSERT_NE(st, nullptr);
  http::Response seg = fetch(gw, client, "/hls/" + key + "/seg_0.ts");
  EXPECT_EQ(seg.status, 200);
  EXPECT_TRUE(seg.body == st->segments[0].segment.ts_data);

  // Shutdown flushes the open tail and drains both live connections.
  gw.request_shutdown();
  st = gw.store().find_stream(key);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->ended);
  EXPECT_GE(st->segments.size(), 2u);  // flushed tail joined seg_0
  for (int i = 0; i < 20000 && !gw.drained(); ++i) {
    pub.step();
    client.step();
    gw.poll_once(0);
  }
  EXPECT_TRUE(gw.drained());
}

// A peer publishing under fresh keys one after another must not grow the
// store without bound: beyond 64 ended streams (SegmentStore::
// kMaxEndedStreams) the oldest-ended is evicted, the newest ones keep
// serving, and re-publishing a held key revives it.
TEST(GatewaySegmentStore, EndedStreamsStayBounded) {
  gateway::SegmentStore store(gateway::SegmentStoreConfig{});
  const gateway::SyntheticMedia media = gateway::synthetic_frames(5, 40);
  auto key = [](int i) { return strf("fresh%03d", i); };
  auto cycle = [&](const std::string& k, int i) {
    const TimePoint t = time_at(i);
    store.on_publish_start(k, t);
    for (const auto& s : media.samples) store.on_sample(k, s, t);
    store.on_publish_end(k, t);
  };
  for (int i = 0; i < 200; ++i) {
    cycle(key(i), i);
    ASSERT_LE(store.stream_names().size(), 64u) << "after cycle " << i;
  }
  EXPECT_EQ(store.stream_names().size(), 64u);
  EXPECT_EQ(store.find_stream(key(135)), nullptr);
  ASSERT_NE(store.find_stream(key(136)), nullptr);

  const gateway::SegmentStore::Stream* newest = store.find_stream(key(199));
  ASSERT_NE(newest, nullptr);
  EXPECT_TRUE(newest->ended);
  auto playlist = hls::parse_m3u8(store.media_playlist(key(199)));
  ASSERT_TRUE(playlist.ok());
  EXPECT_TRUE(playlist.value().ended);
  ASSERT_FALSE(playlist.value().segments.empty());
  const gateway::SegmentStore::StoredSegment* seg =
      store.find_segment(key(199), playlist.value().segments[0].uri);
  ASSERT_NE(seg, nullptr);
  EXPECT_GT(seg->segment.ts_data.size(), 0u);
  EXPECT_EQ(seg->segment.ts_data.size() % 188, 0u);
  EXPECT_EQ(seg->segment.ts_data[0], 0x47);

  // Re-publishing the oldest held key revives it: it is live again, so
  // the next fresh stream to end evicts nothing...
  store.on_publish_start(key(136), time_at(300));
  EXPECT_FALSE(store.find_stream(key(136))->ended);
  auto revived = hls::parse_m3u8(store.media_playlist(key(136)));
  ASSERT_TRUE(revived.ok());
  EXPECT_FALSE(revived.value().ended);  // no stale ENDLIST
  cycle(key(200), 301);
  EXPECT_EQ(store.stream_names().size(), 65u);
  // ...and once it ends again it is the newest-ended, so the next oldest
  // goes instead.
  store.on_publish_end(key(136), time_at(302));
  EXPECT_EQ(store.stream_names().size(), 64u);
  EXPECT_NE(store.find_stream(key(136)), nullptr);
  EXPECT_EQ(store.find_stream(key(137)), nullptr);
}

}  // namespace
}  // namespace psc
