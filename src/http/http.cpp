#include "http/http.h"

#include <cstdlib>

#include "util/strings.h"

namespace psc::http {

const char* reason_for(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 429:
      return "Too Many Requests";
    case 500:
      return "Internal Server Error";
    default:
      return "Unknown";
  }
}

std::string Request::serialize() const {
  std::string out = method + " " + path + " HTTP/1.1\r\n";
  for (const auto& [k, v] : headers) out += k + ": " + v + "\r\n";
  out += strf("Content-Length: %zu\r\n\r\n", body.size());
  out += body;
  return out;
}

namespace {

/// Split head (start line + headers) from body at CRLFCRLF.
Result<std::pair<std::string, std::string>> split_head(
    const std::string& text) {
  const std::size_t pos = text.find("\r\n\r\n");
  if (pos == std::string::npos) {
    return make_error("http", "missing header terminator");
  }
  return std::make_pair(text.substr(0, pos), text.substr(pos + 4));
}

std::map<std::string, std::string> parse_headers(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::string> headers;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t colon = lines[i].find(':');
    if (colon == std::string::npos) continue;
    headers[std::string(trim(lines[i].substr(0, colon)))] =
        std::string(trim(lines[i].substr(colon + 1)));
  }
  return headers;
}

}  // namespace

Result<Request> Request::parse(const std::string& text) {
  auto parts = split_head(text);
  if (!parts) return parts.error();
  const auto& [head, body] = parts.value();
  const std::vector<std::string> lines = split(head, '\n');
  if (lines.empty()) return make_error("http", "empty request");
  const std::vector<std::string> start = split(trim(lines[0]), ' ');
  if (start.size() < 3) return make_error("http", "malformed request line");
  Request req;
  req.method = start[0];
  req.path = start[1];
  req.headers = parse_headers(lines);
  req.body = body;
  return req;
}

std::string Response::head() const {
  std::string head = strf("HTTP/1.1 %d %s\r\n", status, reason.c_str());
  for (const auto& [k, v] : headers) head += k + ": " + v + "\r\n";
  head += strf("Content-Length: %zu\r\n\r\n", body.size());
  return head;
}

Bytes Response::serialize() const {
  const std::string h = head();
  ByteWriter w;
  w.reserve(h.size() + body.size());
  w.raw(h);
  w.raw(body);
  return w.take();
}

namespace {

/// Parse the status line + headers; on success returns the byte offset
/// where the body starts (callers attach the body zero-copy or by copy).
Result<std::size_t> parse_response_head(BytesView data, Response& resp) {
  // Headers are ASCII; find the terminator in the raw bytes first.
  std::size_t pos = std::string::npos;
  for (std::size_t i = 0; i + 4 <= data.size(); ++i) {
    if (data[i] == '\r' && data[i + 1] == '\n' && data[i + 2] == '\r' &&
        data[i + 3] == '\n') {
      pos = i;
      break;
    }
  }
  if (pos == std::string::npos) {
    return make_error("http", "missing header terminator");
  }
  const std::string head = to_string(data.subspan(0, pos));
  const std::vector<std::string> lines = split(head, '\n');
  if (lines.empty()) return make_error("http", "empty response");
  const std::vector<std::string> start = split(trim(lines[0]), ' ');
  if (start.size() < 2 || !starts_with(start[0], "HTTP/")) {
    return make_error("http", "malformed status line");
  }
  resp.status = std::atoi(start[1].c_str());
  resp.reason = reason_for(resp.status);
  resp.headers = parse_headers(lines);
  return pos + 4;
}

}  // namespace

Result<Response> Response::parse(BytesView data) {
  Response resp;
  auto body_off = parse_response_head(data, resp);
  if (!body_off) return body_off.error();
  resp.body = util::BufferSlice::copy_of(data.subspan(body_off.value()));
  return resp;
}

Result<Response> Response::parse_slice(const util::BufferSlice& data) {
  Response resp;
  auto body_off = parse_response_head(data.view(), resp);
  if (!body_off) return body_off.error();
  resp.body =
      data.subslice(body_off.value(), data.size() - body_off.value());
  return resp;
}

Response Response::ok(util::BufferSlice body, std::string content_type) {
  Response r;
  r.status = 200;
  r.reason = "OK";
  r.headers["Content-Type"] = std::move(content_type);
  r.body = std::move(body);
  return r;
}

Response Response::json(const std::string& body) {
  return ok(to_bytes(body), "application/json");
}

Response Response::too_many_requests() {
  Response r;
  r.status = 429;
  r.reason = reason_for(429);
  return r;
}

Response Response::not_found() {
  Response r;
  r.status = 404;
  r.reason = reason_for(404);
  return r;
}

Status RequestParser::fail(Error e) {
  error_ = e;
  buf_.clear();
  return e;
}

Status RequestParser::push(BytesView data) {
  if (error_) return *error_;
  buf_.append(reinterpret_cast<const char*>(data.data()), data.size());
  for (;;) {
    const std::size_t head_end = buf_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buf_.size() > kMaxHeadBytes) {
        return fail(make_error("http", "request head too large"));
      }
      return {};
    }
    // Reuse the one-shot parser on the head (it validates the request
    // line and splits the headers); the body is attached below once the
    // Content-Length bytes have arrived.
    auto head = Request::parse(buf_.substr(0, head_end + 4));
    if (!head) return fail(head.error());
    std::size_t body_len = 0;
    if (auto it = head.value().headers.find("Content-Length");
        it != head.value().headers.end()) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(it->second.c_str(), &end, 10);
      if (end == it->second.c_str() || *end != '\0') {
        return fail(make_error("http", "malformed Content-Length"));
      }
      body_len = static_cast<std::size_t>(n);
    }
    if (body_len > kMaxBodyBytes) {
      return fail(make_error("http", "request body too large"));
    }
    const std::size_t total = head_end + 4 + body_len;
    if (buf_.size() < total) return {};  // body still in flight
    Request req = std::move(head).value();
    req.body = buf_.substr(head_end + 4, body_len);
    out_.push_back(std::move(req));
    buf_.erase(0, total);
  }
}

std::vector<Request> RequestParser::take_requests() {
  std::vector<Request> out;
  out.swap(out_);
  return out;
}

}  // namespace psc::http
