// H.264 bitstream syntax tests: emulation prevention, SPS/PPS/slice
// round trips, NAL framing (Annex-B and AVCC), NTP SEI, and the filler
// and escaper kernels against naive per-byte references.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "media/h264.h"
#include "media/kernels.h"

namespace psc::media {
namespace {

TEST(Ebsp, EscapesStartCodeLikeSequences) {
  const Bytes rbsp = {0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02};
  const Bytes ebsp = escape_ebsp(rbsp);
  // No 00 00 00/01/02 sequences may survive (00 00 03 is the legal
  // emulation-prevention pattern itself).
  for (std::size_t i = 0; i + 2 < ebsp.size(); ++i) {
    const bool bad =
        ebsp[i] == 0 && ebsp[i + 1] == 0 && ebsp[i + 2] <= 0x02;
    EXPECT_FALSE(bad) << "at offset " << i;
  }
  EXPECT_EQ(unescape_ebsp(ebsp), rbsp);
}

class EbspRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(EbspRoundtrip, RandomPayloadsSurvive) {
  std::uint64_t state = static_cast<std::uint64_t>(GetParam()) + 1;
  Bytes rbsp;
  for (int i = 0; i < 4096; ++i) {
    state = state * 6364136223846793005ull + 1;
    // Skew towards zeros to provoke escaping.
    const auto b = static_cast<std::uint8_t>(state >> 33);
    rbsp.push_back(b % 5 == 0 ? 0x00 : b % 4);
  }
  EXPECT_EQ(unescape_ebsp(escape_ebsp(rbsp)), rbsp);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EbspRoundtrip, ::testing::Range(0, 8));

struct SpsDims {
  int w, h;
};

class SpsRoundtrip : public ::testing::TestWithParam<SpsDims> {};

TEST_P(SpsRoundtrip, DimensionsSurvive) {
  Sps sps;
  sps.width = GetParam().w;
  sps.height = GetParam().h;
  auto parsed = parse_sps_rbsp(write_sps_rbsp(sps));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().width, sps.width);
  EXPECT_EQ(parsed.value().height, sps.height);
  EXPECT_EQ(parsed.value().profile_idc, 66);
  EXPECT_EQ(parsed.value().log2_max_frame_num, 8);
}

INSTANTIATE_TEST_SUITE_P(Dims, SpsRoundtrip,
                         ::testing::Values(SpsDims{320, 568},   // Periscope
                                           SpsDims{568, 320},   // landscape
                                           SpsDims{640, 480},
                                           SpsDims{1280, 720},
                                           SpsDims{176, 144},
                                           SpsDims{322, 242}));  // odd crop

TEST(Sps, HighProfileRejected) {
  Bytes rbsp = write_sps_rbsp(Sps{});
  rbsp[0] = 100;  // High profile
  auto parsed = parse_sps_rbsp(rbsp);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "unsupported");
}

class PpsRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(PpsRoundtrip, PicInitQpSurvives) {
  Pps pps;
  pps.pic_init_qp = GetParam();
  auto parsed = parse_pps_rbsp(write_pps_rbsp(pps));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().pic_init_qp, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Qps, PpsRoundtrip,
                         ::testing::Values(0, 10, 26, 35, 51));

struct SliceCase {
  FrameType type;
  bool idr;
  // gtest names each case by the parameter's raw bytes, so the gap before
  // qp is an explicit zeroed field rather than padding of random content.
  std::uint8_t pad[2];
  int qp;
  std::uint32_t frame_num;
};
static_assert(std::has_unique_object_representations_v<SliceCase>);

class SliceRoundtrip : public ::testing::TestWithParam<SliceCase> {};

TEST_P(SliceRoundtrip, HeaderFieldsSurvive) {
  const SliceCase c = GetParam();
  Sps sps;
  Pps pps;
  SliceHeader hdr;
  hdr.type = c.type;
  hdr.idr = c.idr;
  hdr.qp = c.qp;
  hdr.frame_num = c.frame_num;
  const NalUnit nal = make_slice_nal(hdr, sps, pps, 600, 42);
  auto parsed = parse_slice_header(nal, sps, pps);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().type, c.type);
  EXPECT_EQ(parsed.value().idr, c.idr);
  EXPECT_EQ(parsed.value().qp, c.qp);
  EXPECT_EQ(parsed.value().frame_num, c.frame_num & 0xFF);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SliceRoundtrip,
    ::testing::Values(SliceCase{FrameType::I, true, {}, 26, 0},
                      SliceCase{FrameType::I, false, {}, 40, 5},
                      SliceCase{FrameType::P, false, {}, 18, 17},
                      SliceCase{FrameType::P, false, {}, 44, 255},
                      SliceCase{FrameType::B, false, {}, 30, 100},
                      SliceCase{FrameType::B, false, {}, 51, 3}));

TEST(Slice, PayloadPaddedToRequestedSize) {
  Sps sps;
  Pps pps;
  SliceHeader hdr;
  const NalUnit nal = make_slice_nal(hdr, sps, pps, 5000, 1);
  EXPECT_GE(nal.rbsp.size(), 5000u);
  EXPECT_LT(nal.rbsp.size(), 5100u);
}

TEST(Slice, NalRefIdcConventions) {
  Sps sps;
  Pps pps;
  SliceHeader b_hdr{FrameType::B, false, 0, 30};
  EXPECT_EQ(make_slice_nal(b_hdr, sps, pps, 100, 1).nal_ref_idc, 0);
  SliceHeader i_hdr{FrameType::I, true, 0, 30};
  EXPECT_EQ(make_slice_nal(i_hdr, sps, pps, 100, 1).nal_ref_idc, 3);
  SliceHeader p_hdr{FrameType::P, false, 1, 30};
  EXPECT_EQ(make_slice_nal(p_hdr, sps, pps, 100, 1).nal_ref_idc, 2);
}

TEST(NalFraming, AnnexBRoundtrip) {
  Sps sps;
  Pps pps;
  std::vector<NalUnit> nals;
  nals.push_back(NalUnit{NalType::Sps, 3, write_sps_rbsp(sps)});
  nals.push_back(NalUnit{NalType::Pps, 3, write_pps_rbsp(pps)});
  nals.push_back(make_slice_nal(SliceHeader{}, sps, pps, 1200, 7));
  const Bytes annexb = annexb_wrap(nals);
  auto split = split_annexb(annexb);
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split.value().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(split.value()[i].type, nals[i].type);
    EXPECT_EQ(split.value()[i].rbsp, nals[i].rbsp);
  }
}

TEST(NalFraming, AvccRoundtrip) {
  Sps sps;
  Pps pps;
  std::vector<NalUnit> nals;
  nals.push_back(make_ntp_sei(12345));
  nals.push_back(make_slice_nal(SliceHeader{}, sps, pps, 900, 3));
  auto split = split_avcc(avcc_wrap(nals));
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(split.value().size(), 2u);
  EXPECT_EQ(split.value()[0].rbsp, nals[0].rbsp);
  EXPECT_EQ(split.value()[1].rbsp, nals[1].rbsp);
}

TEST(NalFraming, AnnexBNoStartCodeFails) {
  const Bytes junk = {1, 2, 3, 4};
  EXPECT_FALSE(split_annexb(junk).ok());
}

TEST(NalFraming, AvccTruncatedFails) {
  ByteWriter w;
  w.u32be(100);  // claims 100 bytes, provides 2
  w.u8(0x65);
  w.u8(0x00);
  EXPECT_FALSE(split_avcc(w.bytes()).ok());
}

TEST(NalFraming, ForbiddenBitRejected) {
  ByteWriter w;
  w.u32be(0x00000001);
  w.u8(0xE5);  // forbidden_zero_bit set
  w.u8(0x00);
  EXPECT_FALSE(split_annexb(w.bytes()).ok());
}

TEST(AvcConfig, Roundtrip) {
  Sps sps;
  sps.width = 568;
  sps.height = 320;
  Pps pps;
  pps.pic_init_qp = 28;
  auto parsed = parse_avc_decoder_config(write_avc_decoder_config(sps, pps));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().sps.width, 568);
  EXPECT_EQ(parsed.value().sps.height, 320);
  EXPECT_EQ(parsed.value().pps.pic_init_qp, 28);
}

TEST(NtpSei, Roundtrip) {
  const std::uint64_t ntp = ntp_from_seconds(1234.5678);
  const NalUnit sei = make_ntp_sei(ntp);
  EXPECT_EQ(sei.type, NalType::Sei);
  auto parsed = parse_ntp_sei(sei);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ntp);
  EXPECT_NEAR(seconds_from_ntp(*parsed), 1234.5678, 1e-6);
}

TEST(NtpSei, NonSeiNalIgnored) {
  const NalUnit nal{NalType::Pps, 3, write_pps_rbsp(Pps{})};
  EXPECT_FALSE(parse_ntp_sei(nal).has_value());
}

TEST(NtpSei, SurvivesFramingRoundtrip) {
  const std::uint64_t ntp = ntp_from_seconds(99.25);
  auto split = split_annexb(annexb_wrap({make_ntp_sei(ntp)}));
  ASSERT_TRUE(split.ok());
  auto parsed = parse_ntp_sei(split.value()[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, ntp);
}

TEST(NtpSei, SecondsConversionPrecision) {
  for (double s : {0.0, 1.5, 3600.25, 86400.125}) {
    EXPECT_NEAR(seconds_from_ntp(ntp_from_seconds(s)), s, 1e-6);
  }
}

// ---- Kernels vs naive per-byte references ----

using detail::kSliceFillChunk;

/// The escaping rule one byte at a time, carrying the zero count.
Bytes naive_escape(BytesView d, std::size_t& zeros) {
  Bytes out;
  for (std::uint8_t b : d) {
    if (zeros >= 2 && b <= 0x03) {
      out.push_back(0x03);
      zeros = 0;
    }
    out.push_back(b);
    zeros = b == 0 ? zeros + 1 : 0;
  }
  return out;
}

/// escape_append over d split at `cut`, with carried count `zeros`.
Bytes split_escape(BytesView d, std::size_t cut, std::size_t& zeros) {
  Bytes out;
  detail::escape_append(out, d.data(), cut, zeros);
  detail::escape_append(out, d.data() + cut, d.size() - cut, zeros);
  return out;
}

/// Zero-heavy random bytes: half zeros, the rest mostly 1..3, so windows
/// and escapes occur in nearly every 16-byte block.
Bytes zero_heavy(std::size_t n, std::uint64_t seed) {
  Bytes d(n);
  std::uint64_t s = seed;
  for (std::uint8_t& b : d) {
    s = detail::lcg_next(s);
    const unsigned r = static_cast<unsigned>(s >> 40) % 10;
    b = static_cast<std::uint8_t>(r < 5 ? 0x00 : r < 9 ? r - 4 : 0xAA);
  }
  return d;
}

/// Lengths worth checking: short inputs, around the 16-byte block, and
/// around the slice filler's chunk.
std::vector<std::size_t> kernel_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 40; ++n) lens.push_back(n);
  for (std::size_t n : {kSliceFillChunk - 1, kSliceFillChunk,
                        kSliceFillChunk + 1}) {
    lens.push_back(n);
  }
  return lens;
}

TEST(EscapeKernel, AllZeroInput) {
  for (std::size_t n : kernel_lengths()) {
    const Bytes d(n, 0x00);
    std::size_t ref_zeros = 0;
    EXPECT_EQ(escape_ebsp(d), naive_escape(d, ref_zeros)) << "n=" << n;
  }
}

TEST(EscapeKernel, WindowAtEveryOffset) {
  // A lone 00 00 0x window in non-zero background at every offset, so it
  // sits at every position mod 16 and straddles every block boundary;
  // the chunk-sized buffer puts it across the slice filler's chunk end.
  for (std::size_t n : {std::size_t{80}, kSliceFillChunk + 1}) {
    for (std::uint8_t x = 0; x <= 3; ++x) {
      // Every offset of the short buffer; the last 40 of the long one.
      for (std::size_t at = n > 80 ? n - 40 : 0; at + 3 <= n; ++at) {
        Bytes d(n, 0xAA);
        d[at] = 0x00;
        d[at + 1] = 0x00;
        d[at + 2] = x;
        std::size_t ref_zeros = 0;
        ASSERT_EQ(escape_ebsp(d), naive_escape(d, ref_zeros))
            << "n=" << n << " x=" << int{x} << " at=" << at;
      }
    }
  }
}

TEST(EscapeKernel, RandomInputsWithCarriedCount) {
  for (std::size_t n : kernel_lengths()) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      const Bytes d = zero_heavy(n, seed * 131 + n);
      for (std::size_t carried = 0; carried <= 2; ++carried) {
        std::size_t zeros = carried;
        std::size_t ref_zeros = carried;
        Bytes out;
        detail::escape_append(out, d.data(), d.size(), zeros);
        ASSERT_EQ(out, naive_escape(d, ref_zeros))
            << "n=" << n << " seed=" << seed << " carried=" << carried;
        ASSERT_EQ(std::min<std::size_t>(zeros, 2),
                  std::min<std::size_t>(ref_zeros, 2));
      }
    }
  }
}

TEST(EscapeKernel, EverySplitPointCarriesTheCount) {
  for (std::size_t n : {std::size_t{40}, std::size_t{100}}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      const Bytes d = zero_heavy(n, seed);
      for (std::size_t carried = 0; carried <= 2; ++carried) {
        std::size_t ref_zeros = carried;
        const Bytes want = naive_escape(d, ref_zeros);
        for (std::size_t cut = 0; cut <= n; ++cut) {
          std::size_t zeros = carried;
          ASSERT_EQ(split_escape(d, cut, zeros), want)
              << "n=" << n << " seed=" << seed << " carried=" << carried
              << " cut=" << cut;
          ASSERT_EQ(std::min<std::size_t>(zeros, 2),
                    std::min<std::size_t>(ref_zeros, 2));
        }
      }
    }
  }
}

TEST(FillKernel, LcgFillMatchesOneStepLoop) {
  for (std::size_t n : kernel_lengths()) {
    for (std::uint64_t seed : {0ull, 1ull, 0x9E3779B97F4A7C15ull}) {
      Bytes got(n);
      const std::uint64_t end = detail::lcg_fill(got.data(), n, seed);
      std::uint64_t s = seed;
      Bytes want(n);
      for (std::uint8_t& b : want) {
        s = detail::lcg_next(s);
        b = static_cast<std::uint8_t>(s >> 33);
      }
      ASSERT_EQ(got, want) << "n=" << n;
      ASSERT_EQ(end, s) << "n=" << n;
    }
  }
}

TEST(FillKernel, ZeroLowNibblesMatchesPerByteRule) {
  for (std::size_t n : kernel_lengths()) {
    Bytes got(n);
    detail::lcg_fill(got.data(), n, n);
    Bytes want = got;
    for (std::uint8_t& b : want) {
      if ((b & 0x0F) == 0) b = 0x00;
    }
    detail::zero_low_nibbles(got.data(), n);
    ASSERT_EQ(got, want) << "n=" << n;
  }
}

/// append_annexb_slice must equal annexb_wrap over make_slice_nal, and
/// both must equal the naive route: header bits, then one-step LCG
/// filler with low-nibble-zero bytes zeroed, escaped byte by byte.
void expect_slice_routes_agree(const SliceHeader& hdr, std::size_t payload,
                               std::uint64_t seed) {
  const Sps sps;
  const Pps pps;
  Bytes streamed = {0xEE};  // appends after existing bytes
  append_annexb_slice(streamed, hdr, sps, pps, payload, seed);
  const NalUnit nal = make_slice_nal(hdr, sps, pps, payload, seed);
  Bytes want = {0xEE};
  const Bytes wrapped = annexb_wrap({nal});
  want.insert(want.end(), wrapped.begin(), wrapped.end());
  ASSERT_EQ(streamed, want) << "type=" << frame_type_char(hdr.type)
                            << " idr=" << hdr.idr << " payload=" << payload
                            << " seed=" << seed;

  Bytes rbsp = make_slice_nal(hdr, sps, pps, 0, seed).rbsp;  // header only
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  while (rbsp.size() < payload) {
    s = detail::lcg_next(s);
    const auto b = static_cast<std::uint8_t>(s >> 33);
    rbsp.push_back((b & 0x0F) == 0 ? 0x00 : b);
  }
  std::size_t zeros = 0;
  Bytes naive = {0xEE, 0x00, 0x00, 0x00, 0x01,
                 static_cast<std::uint8_t>(nal.nal_ref_idc << 5 |
                                           static_cast<int>(nal.type))};
  const Bytes escaped = naive_escape(rbsp, zeros);
  naive.insert(naive.end(), escaped.begin(), escaped.end());
  ASSERT_EQ(streamed, naive) << "payload=" << payload << " seed=" << seed;
}

std::vector<SliceHeader> slice_kinds() {
  std::vector<SliceHeader> kinds;
  for (FrameType t : {FrameType::I, FrameType::P, FrameType::B}) {
    SliceHeader h;
    h.type = t;
    h.frame_num = 5;
    h.qp = 31;
    kinds.push_back(h);
  }
  SliceHeader idr;
  idr.idr = true;
  idr.qp = 20;
  kinds.push_back(idr);
  return kinds;
}

TEST(SliceKernel, StreamedEqualsMaterialisedSmallPayloads) {
  for (const SliceHeader& hdr : slice_kinds()) {
    for (std::size_t payload = 0; payload <= 300; ++payload) {
      expect_slice_routes_agree(hdr, payload, payload * 7 + 1);
    }
  }
}

TEST(SliceKernel, StreamedEqualsMaterialisedAtChunkBoundaries) {
  const Sps sps;
  const Pps pps;
  const std::vector<SliceHeader> kinds = slice_kinds();
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const SliceHeader& hdr = kinds[seed % kinds.size()];
    // Filler = payload - header, so size the payload from the header.
    const std::size_t head = make_slice_nal(hdr, sps, pps, 0, seed).rbsp.size();
    for (std::size_t chunks : {1, 2}) {
      for (std::size_t filler : {chunks * kSliceFillChunk - 1,
                                 chunks * kSliceFillChunk,
                                 chunks * kSliceFillChunk + 1}) {
        expect_slice_routes_agree(hdr, head + filler, seed);
      }
    }
  }
}

}  // namespace
}  // namespace psc::media
