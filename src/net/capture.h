// tcpdump stand-in: a per-direction trace of (arrival time, byte count)
// records plus the reassembled payload stream.
//
// The paper's pipeline captured all video/audio traffic with tcpdump and
// later reconstructed the TCP streams with wireshark; analysis code here
// consumes Capture objects the same way — it never looks at sender-side
// ground truth.
//
// Storage is chunked: each record keeps a ref-counted BufferSlice, so
// recording a delivered network buffer shares it instead of copying.
// payload() flattens the chunks into one contiguous buffer lazily — only
// the offline analysis paths (RTMP re-dissection, pcap export) pay for
// that; per-packet consumers use packet_data().
//
// A capture nobody will analyze can be told so (keep_packets(false)):
// it then only counts delivered bytes, holding no packet and no buffer,
// so an unread trace pins nothing until the session retires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/bytes.h"
#include "util/units.h"

namespace psc::net {

class Capture {
 public:
  struct Packet {
    TimePoint time{};
    std::size_t offset = 0;  // byte offset into payload()
    std::size_t size = 0;
  };

  /// Keep packets and their bytes (the default) or only count bytes.
  /// Switch before the first record().
  void keep_packets(bool keep) { keep_packets_ = keep; }
  bool keeps_packets() const { return keep_packets_; }

  /// Record by view: the bytes are copied (callers without a slice).
  void record_copy(TimePoint t, BytesView data) {
    if (!keep_packets_) {
      total_ += data.size();
      return;
    }
    record(t, util::BufferSlice::copy_of(data));
  }
  /// Record by slice: shares the buffer, no copy (an owning Bytes
  /// converts implicitly).
  void record(TimePoint t, util::BufferSlice data) {
    if (!keep_packets_) {
      total_ += data.size();
      return;
    }
    packets_.push_back(Packet{t, total_, data.size()});
    total_ += data.size();
    chunks_.push_back(std::move(data));
  }

  const std::vector<Packet>& packets() const { return packets_; }
  /// Bytes of packet `i` without flattening.
  BytesView packet_data(std::size_t i) const { return chunks_[i].view(); }
  /// The reassembled contiguous stream; materialised on first call.
  const Bytes& payload() const;
  std::uint64_t total_bytes() const { return total_; }

  /// Arrival time of the packet containing payload byte `offset`
  /// (the paper computes delivery latency as "time of receiving the
  /// packet containing the NTP timestamp").
  TimePoint time_of_byte(std::size_t offset) const;

  /// Drop recorded data (a retired session frees its trace memory once
  /// analysis has consumed it).
  void clear() {
    packets_.clear();
    packets_.shrink_to_fit();
    chunks_.clear();
    chunks_.shrink_to_fit();
    payload_.clear();
    payload_.shrink_to_fit();
    total_ = 0;
  }

  bool empty() const { return packets_.empty(); }
  TimePoint first_time() const {
    return packets_.empty() ? TimePoint{} : packets_.front().time;
  }
  TimePoint last_time() const {
    return packets_.empty() ? TimePoint{} : packets_.back().time;
  }

 private:
  std::vector<Packet> packets_;
  std::vector<util::BufferSlice> chunks_;  // aligned with packets_
  std::uint64_t total_ = 0;
  bool keep_packets_ = true;
  mutable Bytes payload_;  // lazy flatten cache; valid when size()==total_
};

}  // namespace psc::net
