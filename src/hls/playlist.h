// HLS media playlists (M3U8): writer, parser, and the sliding live window
// an origin maintains for a live event.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/units.h"

namespace psc::hls {

struct SegmentRef {
  std::string uri;
  Duration duration{0};
  std::uint64_t sequence = 0;
  /// #EXT-X-DISCONTINUITY precedes this segment (encoder restart / splice).
  bool discontinuity = false;
};

/// Upper bound accepted for EXTINF / TARGETDURATION values. Real segments
/// are seconds long; rejecting anything past a day keeps hostile values
/// (1e300, inf, nan) out of downstream float->int casts.
constexpr double kMaxSegmentDurationS = 86400.0;

struct MediaPlaylist {
  int version = 3;
  Duration target_duration{4};
  std::uint64_t media_sequence = 0;
  bool ended = false;  // #EXT-X-ENDLIST present
  std::vector<SegmentRef> segments;
};

std::string write_m3u8(const MediaPlaylist& pl);
Result<MediaPlaylist> parse_m3u8(const std::string& text);

/// One rendition in a master playlist (#EXT-X-STREAM-INF).
struct VariantRef {
  std::string uri;             // media playlist URI
  double bandwidth_bps = 0;    // BANDWIDTH attribute
  int width = 0, height = 0;   // RESOLUTION attribute (0 = omitted)
};

std::string write_master_m3u8(const std::vector<VariantRef>& variants);
Result<std::vector<VariantRef>> parse_master_m3u8(const std::string& text);

/// The origin-side live playlist: a sliding window of the most recent
/// segments (media sequence number advances as old segments fall off).
class LivePlaylistWindow {
 public:
  explicit LivePlaylistWindow(std::size_t window_size = 6,
                              Duration target = seconds(4));

  void add_segment(std::string uri, Duration duration);
  void end_stream() { ended_ = true; }
  /// The stream resumed (publisher came back): drop ENDLIST again.
  void reopen() { ended_ = false; }

  MediaPlaylist snapshot() const;
  std::uint64_t next_sequence() const { return next_seq_; }

 private:
  std::size_t window_size_;
  Duration target_;
  std::deque<SegmentRef> window_;
  std::uint64_t next_seq_ = 0;
  bool ended_ = false;
};

}  // namespace psc::hls
