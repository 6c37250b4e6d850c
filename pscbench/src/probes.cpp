#include "probes.h"

#include <algorithm>

#include "client/player.h"
#include "hls/segmenter.h"
#include "http/http.h"
#include "json/json.h"
#include "media/content.h"
#include "media/encoder.h"
#include "net/link.h"
#include "rtmp/chunk.h"
#include "rtmp/message.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace pscbench {

using namespace psc;

namespace {

double per(double seconds, double n) { return n > 0 ? 1e9 * seconds / n : 0; }

}  // namespace

MediaProbe probe_media(std::uint64_t seed, double media_seconds, Spans& spans,
                       int parent) {
  MediaProbe mp;
  media::BroadcastSource source(media::VideoConfig{}, media::AudioConfig{},
                                media::ContentModelConfig{}, 0.0, Rng(seed));
  const double media_s = spans.time("media.next_sample", parent, [&] {
    for (;;) {
      media::MediaSample s = source.next_sample();
      if (to_s(s.dts) >= media_seconds) break;
      mp.media_bytes += static_cast<double>(s.data.size());
      if (s.kind == media::SampleKind::Video) ++mp.video_frames;
      mp.samples_kept.push_back(std::move(s));
    }
  });
  mp.ns_per_frame = per(media_s, mp.video_frames);
  probe_packaging(mp, spans, parent);
  return mp;
}

void probe_packaging(MediaProbe& mp, Spans& spans, int parent) {
  mp.samples = static_cast<double>(mp.samples_kept.size());
  double ts_bytes = 0;
  hls::Segmenter segmenter;
  const double hls_s = spans.time("hls.segmenter_push", parent, [&] {
    for (const media::MediaSample& s : mp.samples_kept) {
      if (auto seg = segmenter.push(s)) {
        ++mp.segments;
        ts_bytes += static_cast<double>(seg->ts_data.size());
      }
    }
    if (auto seg = segmenter.flush()) {
      ++mp.segments;
      ts_bytes += static_cast<double>(seg->ts_data.size());
    }
  });
  mp.ns_per_sample_hls = per(hls_s, mp.samples);
  mp.ts_bytes_per_sample = mp.samples > 0 ? ts_bytes / mp.samples : 0;

  std::vector<rtmp::Message> msgs;
  msgs.reserve(mp.samples_kept.size());
  for (const media::MediaSample& s : mp.samples_kept) {
    rtmp::Message m;
    m.type = s.kind == media::SampleKind::Video ? rtmp::MessageType::Video
                                                : rtmp::MessageType::Audio;
    m.timestamp_ms = static_cast<std::uint32_t>(to_s(s.dts) * 1e3);
    m.stream_id = 1;
    m.payload = s.data;
    msgs.push_back(std::move(m));
  }
  // Default chunk size on both ends: no SetChunkSize exchange here.
  rtmp::ChunkWriter writer;
  ByteWriter out;
  const double write_s = spans.time("rtmp.chunk_write", parent, [&] {
    for (const rtmp::Message& m : msgs) {
      writer.write(out, m.type == rtmp::MessageType::Video ? rtmp::kCsidVideo
                                                           : rtmp::kCsidAudio,
                   m);
    }
  });
  mp.ns_per_msg_write = per(write_s, static_cast<double>(msgs.size()));
  const Bytes wire = out.take();
  mp.rtmp_wire_bytes = static_cast<double>(wire.size());

  rtmp::ChunkReader reader;
  std::size_t messages = 0;
  bool ok = true;
  const double read_s = spans.time("rtmp.chunk_read", parent, [&] {
    constexpr std::size_t kPiece = 64 * 1024;
    for (std::size_t off = 0; off < wire.size(); off += kPiece) {
      const std::size_t n = std::min(kPiece, wire.size() - off);
      ok = ok && reader.push(BytesView(wire.data() + off, n)).ok();
      messages += reader.take_messages().size();
    }
  });
  // Probe sanity: the reader recovers every message the writer wrote.
  if (!ok || messages != msgs.size()) mp.ns_per_kb_read = -1;
  else mp.ns_per_kb_read = per(read_s, mp.rtmp_wire_bytes / 1024.0);
}

void set_media_layers(const MediaProbe& mp, LayerValues& layers) {
  layers.set("media.frames", mp.video_frames);
  layers.set("media.bytes", mp.media_bytes);
  layers.set("media.ns_per_frame", mp.ns_per_frame);
  layers.set("hls.segments", mp.segments);
  layers.set("hls.ns_per_sample", mp.ns_per_sample_hls);
  layers.set("mpegts.bytes_per_sample", mp.ts_bytes_per_sample);
  layers.set("rtmp.ns_per_msg_write", mp.ns_per_msg_write);
  layers.set("rtmp.ns_per_kb_read", mp.ns_per_kb_read);
  layers.set("rtmp.origin_bytes_out", mp.rtmp_wire_bytes);
}

double probe_net_ns_per_send(std::uint64_t seed, const MediaProbe& mp,
                             Spans& spans, int parent) {
  sim::Simulation sim;
  Rng rng(seed);
  net::Link link(sim, mbps(4), millis(20 + 30 * rng.uniform()));
  std::uint64_t delivered = 0;
  for (const media::MediaSample& s : mp.samples_kept) {
    const std::size_t size = s.data.size();
    sim.schedule_at(time_at(to_s(s.dts)), [&link, &delivered, size] {
      link.send(size, [&delivered](TimePoint, util::BufferSlice) {
        ++delivered;
      });
    });
  }
  const double s = spans.time("net.link_send", parent, [&] { sim.run_all(); });
  return delivered == mp.samples_kept.size() ? per(s, mp.samples) : -1;
}

double probe_player_ns(std::uint64_t seed, const MediaProbe& mp, Spans& spans,
                       int parent) {
  Rng rng(seed);
  client::Player player(client::PlayerConfig{}, time_at(0), 0.0);
  std::vector<std::pair<double, double>> calls;  // arrival, pts
  double arrival = 0;
  for (const media::MediaSample& s : mp.samples_kept) {
    if (s.kind != media::SampleKind::Video) continue;
    arrival = std::max(arrival, to_s(s.dts) + 0.2 * rng.uniform());
    calls.emplace_back(arrival, to_s(s.pts));
  }
  const double s = spans.time("client.player_on_media", parent, [&] {
    for (const auto& [t, pts] : calls) {
      player.on_media(time_at(t), seconds(pts), seconds(pts + 1.0 / 30));
    }
    player.finish(time_at(arrival + 1));
  });
  return per(s, static_cast<double>(calls.size()));
}

namespace {

struct Timer {
  sim::Simulation* sim;
  Rng* rng;
  std::uint64_t* remaining;
  void fire() {
    if (*remaining == 0) return;
    --*remaining;
    sim->schedule_after(millis(50 * rng->uniform()), [this] { fire(); });
  }
};

}  // namespace

double probe_sim_ns_per_event(std::uint64_t seed, std::uint64_t events,
                              Spans& spans, int parent) {
  if (events == 0) return 0;
  sim::Simulation sim;
  Rng rng(seed);
  std::uint64_t remaining = events;
  std::vector<Timer> timers(64, Timer{&sim, &rng, &remaining});
  for (Timer& t : timers) {
    sim.schedule_after(millis(50 * rng.uniform()), [&t] { t.fire(); });
  }
  const std::size_t before = sim.events_executed();
  const double s = spans.time("sim.run", parent, [&] { sim.run_all(); });
  return per(s, static_cast<double>(sim.events_executed() - before));
}

double probe_http_parse_ns(const std::vector<std::string>& requests,
                           Spans& spans, int parent) {
  std::string wire;
  for (const std::string& r : requests) wire += r;
  http::RequestParser parser;
  std::size_t parsed = 0;
  const double s = spans.time("http.request_parser", parent, [&] {
    constexpr std::size_t kPiece = 1460;  // one TCP segment per push
    for (std::size_t off = 0; off < wire.size(); off += kPiece) {
      const std::size_t n = std::min(kPiece, wire.size() - off);
      if (!parser.push(std::string_view(wire).substr(off, n)).ok()) break;
      parsed += parser.take_requests().size();
    }
  });
  return parsed == requests.size() ? per(s, static_cast<double>(parsed)) : -1;
}

JsonProbe probe_json(const std::vector<std::string>& docs, Spans& spans,
                     int parent) {
  JsonProbe jp;
  double kb = 0;
  for (const std::string& d : docs) kb += static_cast<double>(d.size()) / 1024;
  std::vector<json::Value> values;
  values.reserve(docs.size());
  const double parse_s = spans.time("json.parse", parent, [&] {
    for (const std::string& d : docs) {
      auto v = json::parse(d);
      values.push_back(v.ok() ? std::move(v.value()) : json::Value());
    }
  });
  std::size_t out_bytes = 0;
  const double dump_s = spans.time("json.dump", parent, [&] {
    for (const json::Value& v : values) out_bytes += v.dump().size();
  });
  jp.parse_ns_per_kb = per(parse_s, kb);
  jp.dump_ns_per_kb =
      per(dump_s, static_cast<double>(out_bytes) / 1024.0);
  return jp;
}

}  // namespace pscbench
