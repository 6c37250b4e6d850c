// Heap-allocation budgets for the media path's steady state.
//
// This file replaces the global operator new/delete for the whole
// psc_tests binary with malloc/free plus a per-thread counter, so a test
// can count every heap allocation its own thread makes — what the
// kernel's `allocs_per_event` (callback spills only) cannot see. The
// budgets below are per media sample, from the counts of the relay and
// segmenter as they stand; a change that brings back a per-sample copy
// or regrowth trips them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "hls/segmenter.h"
#include "media/encoder.h"
#include "rtmp/session.h"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace psc {
namespace {

/// `n` samples of a default broadcast (video + audio, DTS order), made
/// before any counting starts.
std::vector<media::MediaSample> broadcast_samples(std::size_t n) {
  media::BroadcastSource src(media::VideoConfig{}, media::AudioConfig{},
                             media::ContentModelConfig{}, 0.0, Rng(11));
  std::vector<media::MediaSample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(src.next_sample());
  return out;
}

/// Heap allocations this thread made while running `fn`.
template <class F>
std::uint64_t allocations_in(F&& fn) {
  const std::uint64_t before = t_allocations;
  fn();
  return t_allocations - before;
}

TEST(AllocBudget, RtmpRelayPerSample) {
  // The origin -> viewer leg of every RTMP session: the server frames
  // each sample as an FLV-tagged message, its output crosses the wire
  // as one buffer and the client reassembles it into a sample.
  std::uint64_t received = 0;
  rtmp::ClientSession::Callbacks cbs;
  cbs.on_sample = [&](media::MediaSample s) {
    received += s.data.empty() ? 0 : 1;
  };
  rtmp::ClientSession client("live", "budget", 3, std::move(cbs));
  rtmp::ServerSession server(4);
  for (int i = 0; i < 16 && !(client.playing() && server.playing()); ++i) {
    if (client.has_output()) {
      ASSERT_TRUE(server.on_input(client.take_output()).ok());
    }
    if (server.has_output()) {
      ASSERT_TRUE(client.on_input(server.take_output()).ok());
    }
  }
  ASSERT_TRUE(server.playing());

  const std::vector<media::MediaSample> samples = broadcast_samples(900);
  const auto relay = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      server.send_sample(samples[i]);
      const Bytes wire = server.take_output();
      ASSERT_TRUE(client.on_input(wire).ok());
    }
  };
  relay(0, 300);  // warm-up: scratch buffers and queues reach capacity
  const std::uint64_t allocs = allocations_in([&] { relay(300, 900); });
  ASSERT_EQ(received, 900u);
  ASSERT_GT(allocs, 0u);  // the counter sees this thread's heap
  // One buffer for the server's wire output and one for the client's
  // reassembled message (which becomes the sample's data): 2 per sample.
  const double per_sample = static_cast<double>(allocs) / 600.0;
  EXPECT_LE(per_sample, 2.0) << allocs << " allocations for 600 samples";
}

TEST(AllocBudget, SegmenterPerSample) {
  const std::vector<media::MediaSample> samples = broadcast_samples(3000);
  hls::Segmenter seg;
  std::size_t segments = 0;
  const auto push = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      if (seg.push(samples[i])) ++segments;
    }
  };
  push(0, 600);  // warm-up: the first segments size the next ones
  const std::size_t before = segments;
  const std::uint64_t allocs = allocations_in([&] { push(600, 3000); });
  ASSERT_GE(segments - before, 10u);
  ASSERT_GT(allocs, 0u);  // the counter sees this thread's heap
  // Per closed segment: its buffer, reserved once from the previous
  // segment's size, and the ref-counted block that adopts it. Muxing a
  // sample allocates nothing.
  const double per_sample = static_cast<double>(allocs) / 2400.0;
  EXPECT_LE(per_sample, 0.01) << allocs << " allocations for 2400 samples, "
                              << (segments - before) << " segments";
}

}  // namespace
}  // namespace psc
