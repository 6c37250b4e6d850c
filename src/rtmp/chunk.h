// RTMP chunk stream layer: splits messages into chunks with fmt 0-3
// headers and reassembles them, handling extended timestamps and dynamic
// chunk-size changes (Adobe RTMP specification, section 5.3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "rtmp/message.h"
#include "util/bytes.h"
#include "util/result.h"

namespace psc::rtmp {

/// Largest chunk size either side may negotiate (RTMP spec §5.4.1: valid
/// sizes are 1 to 16777215).
constexpr std::uint32_t kMaxChunkSize = 0xFFFFFF;

/// Serialises messages into the chunk stream. Tracks per-chunk-stream
/// header state so it can use compressed header formats (1/2/3) whenever
/// the previous message on the same chunk stream allows it.
class ChunkWriter {
 public:
  explicit ChunkWriter(std::uint32_t chunk_size = kDefaultChunkSize)
      : chunk_size_(chunk_size) {}

  /// Serialise one message onto `out`.
  void write(ByteWriter& out, std::uint32_t csid, const Message& msg) {
    write(out, csid, msg.type, msg.timestamp_ms, msg.stream_id, msg.payload);
  }
  /// Same, from the header fields and a payload view: senders that build
  /// the payload in a reused buffer need no Message. `out` grows once,
  /// by the exact serialized size.
  void write(ByteWriter& out, std::uint32_t csid, MessageType type,
             std::uint32_t timestamp_ms, std::uint32_t stream_id,
             BytesView payload);

  /// Change the outgoing chunk size (the caller must also send a
  /// SetChunkSize control message). Clamped to the spec's valid range
  /// [1, 0xFFFFFF] — a zero size would never make progress splitting a
  /// non-empty payload.
  void set_chunk_size(std::uint32_t size) {
    chunk_size_ = std::clamp<std::uint32_t>(size, 1, kMaxChunkSize);
  }
  std::uint32_t chunk_size() const { return chunk_size_; }

 private:
  struct PrevHeader {
    std::uint32_t timestamp = 0;
    std::uint32_t length = 0;
    MessageType type = MessageType::CommandAmf0;
    std::uint32_t stream_id = 0;
    std::uint32_t last_delta = 0;
    bool has_delta = false;
  };

  void write_basic_header(ByteWriter& out, int fmt, std::uint32_t csid) const;
  static std::size_t basic_header_size(std::uint32_t csid) {
    return csid <= 63 ? 1 : csid <= 319 ? 2 : 3;
  }

  std::uint32_t chunk_size_;
  std::map<std::uint32_t, PrevHeader> prev_;
};

/// Incremental chunk stream parser: feed arbitrary byte slices; complete
/// messages come out in order. Handles interleaved chunk streams and
/// inbound SetChunkSize messages transparently.
class ChunkReader {
 public:
  /// Append bytes; parses as many complete chunks as possible.
  /// Complete messages are appended to the internal queue.
  Status push(BytesView data);

  /// Messages completed so far, in arrival order (moves them out).
  std::vector<Message> take_messages();
  /// The same queue in place, for consumers that handle each message and
  /// then clear_messages(): the queue keeps its capacity across pushes.
  /// A handler must not push() into this reader while iterating.
  std::vector<Message>& messages() { return messages_; }
  void clear_messages() { messages_.clear(); }

  std::uint32_t chunk_size() const { return chunk_size_; }
  std::uint64_t bytes_consumed() const { return consumed_; }

  /// Release all internal buffers (retirement path).
  void discard() {
    Bytes{}.swap(buffer_);
    streams_.clear();
    std::vector<Message>{}.swap(messages_);
  }

 private:
  struct StreamState {
    std::uint32_t timestamp = 0;
    std::uint32_t timestamp_delta = 0;
    std::uint32_t length = 0;
    MessageType type = MessageType::CommandAmf0;
    std::uint32_t stream_id = 0;
    bool ext_timestamp = false;
    Bytes assembly;
  };

  /// Try to parse one chunk from input[used...]; on success advances
  /// `used` past it. Returns false if more bytes are needed (`used`
  /// unchanged).
  Result<bool> parse_one(BytesView input, std::size_t& used);

  /// Bytes of a partial chunk carried over to the next push(). Input
  /// that holds whole chunks is parsed in place and never lands here.
  Bytes buffer_;
  std::uint32_t chunk_size_ = kDefaultChunkSize;
  std::map<std::uint32_t, StreamState> streams_;
  std::vector<Message> messages_;
  std::uint64_t consumed_ = 0;
};

}  // namespace psc::rtmp
