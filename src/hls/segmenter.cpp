#include "hls/segmenter.h"

namespace psc::hls {

Segmenter::Segmenter(Duration target) : target_(target) {}

void Segmenter::open_segment(const media::MediaSample& first) {
  // Size the buffer from the previous segment (+25 % for a heavier GOP)
  // so the muxer appends without regrowing and re-copying it; the first
  // segment grows from empty.
  current_.reserve(last_size_ + last_size_ / 4);
  muxer_.psi_into(current_);
  open_ = true;
  seg_start_dts_ = first.dts;
  last_video_dts_ = first.dts;
}

Segment Segmenter::close_segment(Duration end_dts) {
  Segment seg;
  seg.sequence = next_seq_++;
  seg.start_dts = seg_start_dts_;
  seg.duration = end_dts - seg_start_dts_;
  last_size_ = current_.size();
  seg.ts_data = current_.take();
  open_ = false;
  return seg;
}

std::optional<Segment> Segmenter::push(const media::MediaSample& sample) {
  std::optional<Segment> completed;
  const bool video = sample.kind == media::SampleKind::Video;

  // Epsilon guards the exact-boundary case: a keyframe landing precisely
  // at the target (e.g. 108 frames at 30 fps = 3.6 s) must close the
  // segment despite floating-point rounding in the DTS arithmetic.
  if (open_ && video && sample.keyframe &&
      sample.dts - seg_start_dts_ >= target_ - micros(1)) {
    completed = close_segment(sample.dts);
  }
  if (!open_) {
    // Segments must start on a keyframe so they are independently
    // decodable; leading non-keyframe samples are dropped (only happens
    // at stream start when joining mid-GOP).
    if (!(video && sample.keyframe)) return completed;
    open_segment(sample);
  }
  if (video) last_video_dts_ = sample.dts;
  muxer_.mux_sample_into(current_, sample);
  return completed;
}

std::optional<Segment> Segmenter::flush() {
  if (!open_ || current_.size() == 0) return std::nullopt;
  return close_segment(last_video_dts_ + frame_period_);
}

}  // namespace psc::hls
