#include "gateway/segment_store.h"

#include <algorithm>
#include <utility>

namespace psc::gateway {

namespace {

std::string segment_uri(std::uint64_t sequence) {
  return "seg_" + std::to_string(sequence) + ".ts";
}

}  // namespace

void SegmentStore::set_metrics(obs::Registry* reg) {
  if (reg == nullptr) {
    segments_total_ = nullptr;
    publishes_total_ = nullptr;
    first_segment_latency_ = nullptr;
    segment_duration_ = nullptr;
    return;
  }
  segments_total_ = &reg->counter("gateway_segments_total");
  publishes_total_ = &reg->counter("gateway_publishes_total");
  first_segment_latency_ = &reg->histogram("gateway_first_segment_latency_s");
  segment_duration_ = &reg->histogram("gateway_segment_duration_s");
}

void SegmentStore::on_publish_start(const std::string& stream, TimePoint now) {
  auto [it, inserted] = streams_.try_emplace(stream, cfg_.segment_target,
                                             cfg_.playlist_window);
  if (!inserted) {
    // Re-publish of the same key: drop any stale partial; the playlist
    // window and sequence numbering continue across the restart.
    it->second.segmenter.discard();
    if (it->second.ended) {
      ended_.erase(std::find(ended_.begin(), ended_.end(), stream));
      it->second.playlist.reopen();
      it->second.ended = false;
    }
  }
  it->second.publish_started_at = now;
  it->second.saw_first_segment = false;
  if (publishes_total_ != nullptr) publishes_total_->add();
}

void SegmentStore::on_sample(const std::string& stream,
                             const media::MediaSample& sample, TimePoint now) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  if (auto seg = it->second.segmenter.push(sample)) {
    commit(it->second, std::move(*seg), now);
  }
}

void SegmentStore::on_publish_end(const std::string& stream, TimePoint now) {
  auto it = streams_.find(stream);
  if (it == streams_.end() || it->second.ended) return;
  end_stream(stream, it->second, now);
  evict_ended();
}

void SegmentStore::flush_all(TimePoint now) {
  for (auto& [name, st] : streams_) {
    if (!st.ended) end_stream(name, st, now);
  }
  evict_ended();
}

void SegmentStore::end_stream(const std::string& name, Stream& st,
                              TimePoint now) {
  if (auto seg = st.segmenter.flush()) commit(st, std::move(*seg), now);
  st.playlist.end_stream();
  st.ended = true;
  ended_.push_back(name);
}

void SegmentStore::evict_ended() {
  while (ended_.size() > kMaxEndedStreams) {
    streams_.erase(ended_.front());
    ended_.pop_front();
  }
}

void SegmentStore::commit(Stream& st, hls::Segment seg, TimePoint now) {
  st.playlist.add_segment(segment_uri(seg.sequence), seg.duration);
  if (!st.saw_first_segment) {
    st.saw_first_segment = true;
    if (first_segment_latency_ != nullptr) {
      first_segment_latency_->record(to_s(now - st.publish_started_at));
    }
  }
  if (segments_total_ != nullptr) segments_total_->add();
  if (segment_duration_ != nullptr) {
    segment_duration_->record(to_s(seg.duration));
  }
  ++segments_stored_;
  st.segments.push_back(StoredSegment{std::move(seg), now});
  const std::size_t cap = cfg_.playlist_window + cfg_.retain_extra;
  while (st.segments.size() > cap) st.segments.pop_front();
}

const SegmentStore::Stream* SegmentStore::find_stream(
    const std::string& stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? nullptr : &it->second;
}

const SegmentStore::StoredSegment* SegmentStore::find_segment(
    const std::string& stream, const std::string& uri) const {
  const Stream* st = find_stream(stream);
  if (st == nullptr) return nullptr;
  for (const StoredSegment& s : st->segments) {
    if (segment_uri(s.segment.sequence) == uri) return &s;
  }
  return nullptr;
}

std::string SegmentStore::media_playlist(const std::string& stream) const {
  const Stream* st = find_stream(stream);
  if (st == nullptr) return "";
  return hls::write_m3u8(st->playlist.snapshot());
}

std::string SegmentStore::master_playlist(const std::string& stream) const {
  if (find_stream(stream) == nullptr) return "";
  hls::VariantRef v;
  v.uri = "media.m3u8";
  v.bandwidth_bps = cfg_.nominal_bandwidth_bps;
  return hls::write_master_m3u8({v});
}

std::vector<std::string> SegmentStore::stream_names() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [name, st] : streams_) names.push_back(name);
  return names;
}

}  // namespace psc::gateway
