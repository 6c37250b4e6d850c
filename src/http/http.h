// Minimal HTTP/1.1 message model.
//
// Two uses in the study: (1) the Periscope API — JSON bodies POSTed to
// https://api.periscope.tv/api/v2/<apiRequest>; (2) HLS — GETs for the
// M3U8 playlist and the MPEG-TS segments from the CDN edge. Rate-limited
// API calls get "429 Too Many Requests", which the crawler must pace
// around exactly as the paper describes.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/buffer.h"
#include "util/bytes.h"
#include "util/result.h"

namespace psc::http {

struct Request {
  std::string method = "GET";
  std::string path = "/";
  std::map<std::string, std::string> headers;
  std::string body;

  std::string serialize() const;
  static Result<Request> parse(const std::string& text);
};

struct Response {
  int status = 200;
  std::string reason = "OK";
  std::map<std::string, std::string> headers;
  /// Ref-counted: serving a cached segment shares its buffer instead of
  /// copying (an owning Bytes converts implicitly).
  util::BufferSlice body;

  Bytes serialize() const;
  /// Status line and headers through the blank line: serialize() is
  /// head() ++ body, so a sender that only paces the response needs
  /// head().size() + body.size(), not a copy of the body.
  std::string head() const;
  /// Parse from a view; the body is copied out.
  static Result<Response> parse(BytesView data);
  /// Parse from a delivered slice; the body aliases `data` (zero-copy).
  static Result<Response> parse_slice(const util::BufferSlice& data);

  static Response ok(util::BufferSlice body, std::string content_type);
  static Response json(const std::string& body);
  static Response too_many_requests();
  static Response not_found();
};

const char* reason_for(int status);

/// Incremental request parser for byte streams that fragment arbitrarily
/// (real sockets deliver at any granularity, including one byte at a
/// time). Feed bytes with push(); complete requests accumulate and come
/// out of take_requests() in arrival order. Framing: headers end at
/// CRLFCRLF, the body length is Content-Length (absent = 0), and the
/// buffer may hold several pipelined requests. The parser is
/// split-invariant: any partition of the same byte stream yields the same
/// request sequence and the same terminal error, which the gateway's
/// golden-corpus regression tests assert at granularities 1/7/random.
class RequestParser {
 public:
  /// Oversize guards: hostile peers must not grow the buffer unboundedly.
  static constexpr std::size_t kMaxHeadBytes = 64 * 1024;
  static constexpr std::size_t kMaxBodyBytes = 16 * 1024 * 1024;

  /// Append bytes; parses as many complete requests as possible. Once an
  /// error is returned the parser is poisoned: the connection should be
  /// closed, and further pushes report the same error.
  Status push(BytesView data);
  Status push(std::string_view text) {
    return push(BytesView(reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()));
  }

  /// Requests completed so far, in arrival order (moves them out).
  std::vector<Request> take_requests();

  bool failed() const { return error_.has_value(); }
  /// Bytes buffered but not yet parsed into a complete request.
  std::size_t buffered() const { return buf_.size(); }

 private:
  Status fail(Error e);

  std::string buf_;
  std::vector<Request> out_;
  std::optional<Error> error_;
};

}  // namespace psc::http
