#include "flv/flv.h"

namespace psc::flv {

void write_video_tag_header(ByteWriter& out, bool keyframe,
                            AvcPacketType pkt_type,
                            std::int32_t composition_time_ms) {
  const auto frame_flag = keyframe ? VideoFrameFlag::Keyframe
                                   : VideoFrameFlag::Interframe;
  out.u8(static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(frame_flag) << 4) | kCodecAvc));
  out.u8(static_cast<std::uint8_t>(pkt_type));
  out.u24be(static_cast<std::uint32_t>(composition_time_ms) & 0xFFFFFF);
}

Bytes make_video_tag(bool keyframe, AvcPacketType pkt_type,
                     std::int32_t composition_time_ms, BytesView data) {
  ByteWriter w;
  w.reserve(5 + data.size());
  write_video_tag_header(w, keyframe, pkt_type, composition_time_ms);
  w.raw(data);
  return w.take();
}

Bytes make_avc_sequence_header(const media::Sps& sps, const media::Pps& pps) {
  const Bytes cfg = media::write_avc_decoder_config(sps, pps);
  return make_video_tag(/*keyframe=*/true, AvcPacketType::SequenceHeader,
                        /*composition_time_ms=*/0, cfg);
}

void write_audio_tag_header(ByteWriter& out, AacPacketType pkt_type) {
  // SoundFormat=10 (AAC), SoundRate=3 (44kHz), SoundSize=1, SoundType=1.
  out.u8(static_cast<std::uint8_t>((kSoundFormatAac << 4) | 0x0F));
  out.u8(static_cast<std::uint8_t>(pkt_type));
}

Bytes make_audio_tag(AacPacketType pkt_type, BytesView data) {
  ByteWriter w;
  w.reserve(2 + data.size());
  write_audio_tag_header(w, pkt_type);
  w.raw(data);
  return w.take();
}

Result<VideoTagView> parse_video_tag_view(BytesView body) {
  ByteReader r(body);
  auto b0 = r.u8();
  if (!b0) return b0.error();
  if ((b0.value() & 0x0F) != kCodecAvc) {
    return make_error("unsupported", "non-AVC video tag");
  }
  VideoTagView tag;
  tag.keyframe =
      ((b0.value() >> 4) & 0x0F) == static_cast<int>(VideoFrameFlag::Keyframe);
  auto pt = r.u8();
  if (!pt) return pt.error();
  tag.packet_type = static_cast<AvcPacketType>(pt.value());
  auto cts = r.u24be();
  if (!cts) return cts.error();
  // Sign-extend 24-bit composition time.
  std::int32_t v = static_cast<std::int32_t>(cts.value());
  if (v & 0x800000) v |= static_cast<std::int32_t>(0xFF000000u);
  tag.composition_time_ms = v;
  tag.data = body.subspan(r.position());
  return tag;
}

Result<AudioTagView> parse_audio_tag_view(BytesView body) {
  ByteReader r(body);
  auto b0 = r.u8();
  if (!b0) return b0.error();
  if ((b0.value() >> 4) != kSoundFormatAac) {
    return make_error("unsupported", "non-AAC audio tag");
  }
  AudioTagView tag;
  auto pt = r.u8();
  if (!pt) return pt.error();
  tag.packet_type = static_cast<AacPacketType>(pt.value());
  tag.data = body.subspan(r.position());
  return tag;
}

Result<VideoTag> parse_video_tag(BytesView body) {
  auto v = parse_video_tag_view(body);
  if (!v) return v.error();
  const VideoTagView& t = v.value();
  return VideoTag{t.keyframe, t.packet_type, t.composition_time_ms,
                  Bytes(t.data.begin(), t.data.end())};
}

Result<AudioTag> parse_audio_tag(BytesView body) {
  auto v = parse_audio_tag_view(body);
  if (!v) return v.error();
  return AudioTag{v.value().packet_type,
                  Bytes(v.value().data.begin(), v.value().data.end())};
}

}  // namespace psc::flv
