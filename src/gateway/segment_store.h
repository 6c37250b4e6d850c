// Per-stream HLS packaging state for the interop gateway.
//
// The store is the sim-side segmenter pipeline behind the HTTP listener:
// published samples (Annex-B video / ADTS audio, exactly what the
// MediaOrigin fan-out path carries) run through the same hls::Segmenter
// the deterministic campaigns use, and completed segments land in a
// window of ref-counted slices that HTTP responses serve zero-copy.
//
// Ended streams stay servable (ENDLIST playlist plus their retained
// segments) until kMaxEndedStreams newer ones have ended; the oldest-ended
// is evicted first, so a peer publishing under fresh keys one after
// another cannot grow the store without bound. Re-publishing an ended key
// that is still held revives it.
//
// Torn-segment freedom is structural: only whole segments returned by
// Segmenter::push()/flush() are ever committed to the window — a shutdown
// mid-publish flushes the open partial segment through the same
// close_segment path, so every stored `ts_data` is a whole number of
// 188-byte TS packets and demuxes cleanly (pinned by
// GatewayLifecycle.MidPublishShutdownLeavesNoTornSegment).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "hls/playlist.h"
#include "hls/segmenter.h"
#include "media/types.h"
#include "obs/metrics.h"
#include "util/units.h"

namespace psc::gateway {

struct SegmentStoreConfig {
  Duration segment_target = seconds(3.6);
  std::size_t playlist_window = 6;
  /// Segments retained per stream beyond the playlist window (a fetcher
  /// holding a stale playlist can still resolve recently expired URIs).
  std::size_t retain_extra = 4;
  /// BANDWIDTH advertised for the single rendition in the master playlist.
  double nominal_bandwidth_bps = 400e3;
};

class SegmentStore {
 public:
  /// Ended streams kept servable; beyond this the oldest-ended goes.
  static constexpr std::size_t kMaxEndedStreams = 64;

  explicit SegmentStore(const SegmentStoreConfig& cfg) : cfg_(cfg) {}

  /// Metric sink (nullptr = off).
  void set_metrics(obs::Registry* reg);

  // --- ingest (driven by MediaOrigin stream hooks) ---
  void on_publish_start(const std::string& stream, TimePoint now);
  void on_sample(const std::string& stream, const media::MediaSample& sample,
                 TimePoint now);
  /// Publisher left (or the gateway is shutting down): flush the open
  /// partial segment and mark the playlist ENDLIST.
  void on_publish_end(const std::string& stream, TimePoint now);
  /// Flush every live stream (graceful-shutdown path).
  void flush_all(TimePoint now);

  // --- serving ---
  struct StoredSegment {
    hls::Segment segment;
    TimePoint stored_at{};
  };
  struct Stream {
    hls::Segmenter segmenter;
    hls::LivePlaylistWindow playlist;
    std::deque<StoredSegment> segments;
    TimePoint publish_started_at{};
    bool ended = false;
    bool saw_first_segment = false;

    Stream(Duration target, std::size_t window)
        : segmenter(target), playlist(window, target) {}
  };

  const Stream* find_stream(const std::string& stream) const;
  const StoredSegment* find_segment(const std::string& stream,
                                    const std::string& uri) const;
  /// Media playlist text ("" for an unknown stream).
  std::string media_playlist(const std::string& stream) const;
  /// Single-rendition master playlist text ("" for an unknown stream).
  std::string master_playlist(const std::string& stream) const;
  std::vector<std::string> stream_names() const;

  std::uint64_t segments_stored() const { return segments_stored_; }

 private:
  void commit(Stream& st, hls::Segment seg, TimePoint now);
  /// Flush the open partial segment, mark the playlist ENDLIST and queue
  /// the stream for eviction.
  void end_stream(const std::string& name, Stream& st, TimePoint now);
  /// Drop the oldest-ended streams beyond kMaxEndedStreams.
  void evict_ended();

  SegmentStoreConfig cfg_;
  std::map<std::string, Stream> streams_;
  /// Names of ended streams, oldest-ended first.
  std::deque<std::string> ended_;
  std::uint64_t segments_stored_ = 0;
  obs::Counter* segments_total_ = nullptr;
  obs::Counter* publishes_total_ = nullptr;
  obs::Histogram* first_segment_latency_ = nullptr;
  obs::Histogram* segment_duration_ = nullptr;
};

}  // namespace psc::gateway
