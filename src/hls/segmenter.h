// HLS segmenter: cuts a DTS-ordered sample feed into MPEG-TS segments at
// keyframe boundaries once the target duration is reached.
//
// The paper measured a modal segment duration of 3.6 s — 108 frames at
// 30 fps, i.e. three 36-frame GOPs — which is exactly what cutting at the
// first keyframe after 3.6 s produces with Periscope's encoder settings.
#pragma once

#include <optional>
#include <vector>

#include "media/types.h"
#include "mpegts/mpegts.h"
#include "util/buffer.h"
#include "util/units.h"

namespace psc::hls {

struct Segment {
  std::uint64_t sequence = 0;
  Duration duration{0};
  /// The packaged MPEG-TS bytes. Ref-counted: the edge cache, every HTTP
  /// response serving it and every capture recording it share this one
  /// buffer — the segment is packaged once per world and never copied.
  util::BufferSlice ts_data;
  /// DTS of the first video sample in the segment (origin timeline).
  Duration start_dts{0};
};

class Segmenter {
 public:
  explicit Segmenter(Duration target = seconds(3.6));

  /// Push the next sample; returns a completed segment when this sample's
  /// keyframe closed one.
  std::optional<Segment> push(const media::MediaSample& sample);

  /// Flush the final partial segment at end of stream.
  std::optional<Segment> flush();

  /// Drop the open partial segment and its buffer (retirement path).
  void discard() {
    current_ = ByteWriter{};
    open_ = false;
  }

  Duration target() const { return target_; }

 private:
  void open_segment(const media::MediaSample& first);
  Segment close_segment(Duration end_dts);

  Duration target_;
  mpegts::TsMuxer muxer_;
  ByteWriter current_;
  bool open_ = false;
  Duration seg_start_dts_{0};
  Duration last_video_dts_{0};
  Duration frame_period_{1.0 / 30.0};
  std::uint64_t next_seq_ = 0;
  std::size_t last_size_ = 0;  // bytes of the last closed segment
};

}  // namespace psc::hls
