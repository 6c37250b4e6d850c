// Media golden digests: the encoder's output bytes are pinned, so any
// change to what BroadcastSource emits (slice filler, emulation
// prevention, NAL assembly, ADTS frames, sample order) fails here and has
// to be a deliberate, documented re-baseline. Speed work on the media
// path must leave every digest unchanged.
#include <gtest/gtest.h>

#include <string>

#include "media/encoder.h"
#include "util/sha1.h"

namespace psc::media {
namespace {

constexpr int kSamples = 2000;

struct Digests {
  std::string video;
  std::string audio;
  int video_samples = 0;
};

/// SHA-1 over the first kSamples payloads of each stream, every payload
/// prefixed by its 4-byte big-endian length so boundaries count too.
Digests digest_source(const VideoConfig& vcfg, std::uint64_t seed) {
  BroadcastSource src(vcfg, AudioConfig{}, ContentModelConfig{},
                      1.4625e9, Rng(seed));
  Bytes video;
  Bytes audio;
  Digests d;
  for (int i = 0; i < kSamples; ++i) {
    const MediaSample s = src.next_sample();
    Bytes& out = s.kind == SampleKind::Video ? video : audio;
    if (s.kind == SampleKind::Video) ++d.video_samples;
    const auto n = static_cast<std::uint32_t>(s.data.size());
    out.insert(out.end(), {static_cast<std::uint8_t>(n >> 24),
                           static_cast<std::uint8_t>(n >> 16),
                           static_cast<std::uint8_t>(n >> 8),
                           static_cast<std::uint8_t>(n)});
    out.insert(out.end(), s.data.begin(), s.data.end());
  }
  d.video = sha1_hex(video);
  d.audio = sha1_hex(audio);
  return d;
}

TEST(MediaGolden, IbpDefault) {
  const Digests d = digest_source(VideoConfig{}, 2016);
  EXPECT_EQ(d.video_samples, 821);
  EXPECT_EQ(d.video, "76b2c33ef745ca05227aeec9f4d8751d546154b9");
  EXPECT_EQ(d.audio, "5467cd74aae31a4311dca09e25e26e989492e10a");
}

TEST(MediaGolden, IOnlyHighRate) {
  // Large I slices cross the encoder's internal filler chunking.
  VideoConfig cfg;
  cfg.gop = GopPattern::IOnly;
  cfg.target_bitrate = 2e6;
  const Digests d = digest_source(cfg, 77);
  EXPECT_EQ(d.video_samples, 821);
  EXPECT_EQ(d.video, "9019a521ce3cf0ca58e8372c75ece1577252f73e");
  EXPECT_EQ(d.audio, "bab2dff1ffcaf1a30bbaed84ced40e48d0381f2f");
}

TEST(MediaGolden, IpWithFrameLoss) {
  VideoConfig cfg;
  cfg.gop = GopPattern::IP;
  cfg.frame_loss_prob = 0.05;
  const Digests d = digest_source(cfg, 20160);
  EXPECT_EQ(d.video_samples, 804);
  EXPECT_EQ(d.video, "780e25ab69fb3551f36cacd4c05f13149b8d5242");
  EXPECT_EQ(d.audio, "18c81c5b11211a2c43e5edc70aaef6cde4912a90");
}

}  // namespace
}  // namespace psc::media
