// Layer probes: each times one layer's public entry point on the calling
// workload's own seeded inputs, recording a span per probe (children of
// `parent`). They live in the benchmark, never in the program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "media/types.h"

namespace pscbench {

struct MediaProbe {
  std::vector<psc::media::MediaSample> samples_kept;  // video + audio, DTS order
  double samples = 0;
  double video_frames = 0;
  double media_bytes = 0;
  double ns_per_frame = 0;       // media::BroadcastSource::next_sample
  double segments = 0;           // hls::Segmenter::push output
  double ns_per_sample_hls = 0;  // hls::Segmenter::push
  double ts_bytes_per_sample = 0;
  double ns_per_msg_write = 0;   // rtmp::ChunkWriter::write
  double ns_per_kb_read = 0;     // rtmp::ChunkReader::push
  double rtmp_wire_bytes = 0;
};

/// Encode `media_seconds` of one broadcast, then segment it and chunk it.
MediaProbe probe_media(std::uint64_t seed, double media_seconds, Spans& spans,
                       int parent);

/// Segment and chunk already-encoded samples (the gateway's frames).
void probe_packaging(MediaProbe& mp, Spans& spans, int parent);

void set_media_layers(const MediaProbe& mp, LayerValues& layers);

/// net::Link::send under a sim::Simulation, one send per probe sample at
/// its DTS. Returns host ns per send.
double probe_net_ns_per_send(std::uint64_t seed, const MediaProbe& mp,
                             Spans& spans, int parent);

/// client::Player::on_media once per probe video frame, with seeded
/// arrival jitter. Returns host ns per call.
double probe_player_ns(std::uint64_t seed, const MediaProbe& mp, Spans& spans,
                       int parent);

/// Self-rescheduling timers in a sim::Simulation until `events` have run.
/// Returns host ns per executed event.
double probe_sim_ns_per_event(std::uint64_t seed, std::uint64_t events,
                              Spans& spans, int parent);

/// http::RequestParser over `requests` (raw request texts), fed in one
/// pipelined buffer. Returns host ns per parsed request.
double probe_http_parse_ns(const std::vector<std::string>& requests,
                           Spans& spans, int parent);

/// json::parse and Value::dump over `docs`. Returns host ns per KB.
struct JsonProbe {
  double parse_ns_per_kb = 0;
  double dump_ns_per_kb = 0;
};
JsonProbe probe_json(const std::vector<std::string>& docs, Spans& spans,
                     int parent);

}  // namespace pscbench
