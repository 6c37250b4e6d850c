#include "gateway/oracle.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "gateway/clients.h"
#include "gateway/gateway.h"
#include "json/json.h"
#include "testing/fuzz_target.h"
#include "testing/mutator.h"

namespace psc::gateway {

namespace {

namespace fs = std::filesystem;

struct PoolEntry {
  Bytes data;
  bool is_http = false;  // route to the HTTP listener instead of RTMP
};

void load_target_pool(const std::string& name, bool is_http,
                      const std::string& corpus_dir,
                      std::vector<PoolEntry>& pool) {
  const testing::FuzzTarget* t = testing::TargetRegistry::instance().find(name);
  if (t != nullptr && t->corpus) {
    for (Bytes& b : t->corpus()) pool.push_back({std::move(b), is_http});
  }
  if (corpus_dir.empty()) return;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(corpus_dir) / name, ec)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    Bytes b((std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
    pool.push_back({std::move(b), is_http});
  }
}

/// Pump the peer and the gateway until the peer's queue drains (or the
/// gateway closed the connection). Bounded: a gateway that stops reading
/// must not hang the oracle.
void pump_until_drained(Gateway& gw, SocketPump& pump, int max_turns) {
  Bytes discard;
  for (int i = 0; i < max_turns; ++i) {
    const bool alive = pump.step(discard);
    discard.clear();
    gw.poll_once(0);
    if (!alive || pump.closed() || pump.peer_closed()) return;
    if (pump.pending() == 0) return;
  }
}

/// Drive the gateway until every oracle connection is gone.
bool settle(Gateway& gw, int max_turns) {
  for (int i = 0; i < max_turns; ++i) {
    if (gw.loop().connection_count() == 0) return true;
    gw.poll_once(1);
  }
  return gw.loop().connection_count() == 0;
}

/// GET `path` on a fresh connection; nullopt if the gateway never answers.
std::optional<http::Response> fetch(Gateway& gw, const std::string& path) {
  HlsFetchClient client;
  if (!client.connect(gw.http_port()).ok()) return std::nullopt;
  client.get(path);
  for (int i = 0; i < 2000 && !client.done(); ++i) {
    if (!client.step()) return std::nullopt;
    gw.poll_once(0);
  }
  if (!client.done()) return std::nullopt;
  http::Response resp = client.take_response();
  client.close();
  settle(gw, 200);
  return resp;
}

bool healthz_ok(Gateway& gw) {
  const std::optional<http::Response> resp = fetch(gw, "/healthz");
  return resp && resp->status == 200;
}

/// Publisher-chosen stream names: quotes, backslashes, control bytes,
/// NUL, non-UTF-8, JSON and HTML look-alikes, then seeded random bytes.
std::vector<std::string> hostile_stream_names(testing::Mutator& rng) {
  std::vector<std::string> names = {
      "quote\"name",
      "back\\slash\\",
      "ctl\x01\x02\x1b\x1f\x7f",
      "tab\tnl\ncr\r",
      std::string("nul\0byte", 8),
      "bad-utf8\xff\xfe\xc3\x28\xed\xa0\x80\xf4\x90\x80\x80",
      "\\u0000\\\"}],{\"name\":\"",
      "</script><x y='z'>",
      std::string(300, '"'),
  };
  for (int i = 0; i < 8; ++i) {
    std::string name(1 + rng.below(48), '\0');
    for (char& c : name) c = static_cast<char>(rng.below(256));
    names.push_back(std::move(name));
  }
  return names;
}

/// Publish every hostile name on a fresh gateway, then fetch /streams.
/// Contract: /streams parses as JSON and lists exactly the store's
/// streams under their byte-exact names, and /healthz answers 200.
/// Names and the /streams body fold into `digest`. Returns the number of
/// violations.
std::uint64_t check_hostile_stream_names(const GatewayConfig& cfg,
                                         std::uint64_t seed,
                                         std::uint64_t& digest,
                                         std::ostream& out) {
  Gateway gw(cfg);
  if (const Status s = gw.start(); !s.ok()) {
    out << "gateway oracle: names: start failed: " << s.error().to_string()
        << "\n";
    return 1;
  }
  testing::Mutator rng(seed ^ 0x6e616d6573ull);
  const SyntheticMedia media = synthetic_frames(seed, 30);
  const std::vector<std::string> names = hostile_stream_names(rng);
  for (const std::string& name : names) {
    digest = testing::fnv1a(to_bytes(name), digest);
    PublishClient pub("live", name, seed);
    if (!pub.connect(gw.rtmp_port()).ok()) {
      out << "gateway oracle: names: connect refused\n";
      return 1;
    }
    for (int i = 0; i < 20000 && !pub.publishing() && !pub.closed(); ++i) {
      pub.step();
      gw.poll_once(0);
    }
    if (pub.publishing()) {
      pub.send_avc_config(media.sps, media.pps);
      for (const auto& sample : media.samples) pub.send_sample(sample);
      for (int i = 0; i < 20000 && pub.pending() > 0 && pub.step(); ++i) {
        gw.poll_once(0);
      }
    }
    pub.close();
    settle(gw, 2000);
  }

  std::uint64_t violations = 0;
  const std::optional<http::Response> resp = fetch(gw, "/streams");
  if (!resp || resp->status != 200) {
    out << "gateway oracle: names: /streams did not answer 200\n";
    return 1;
  }
  const std::string body = to_string(resp->body.view());
  digest = testing::fnv1a(to_bytes(body), digest);
  auto parsed = json::parse(body);
  if (!parsed.ok()) {
    out << "gateway oracle: names: /streams is not valid JSON\n";
    return 1;
  }
  std::vector<std::string> listed;
  for (const json::Value& st : parsed.value()["streams"].as_array()) {
    listed.push_back(st["name"].as_string());
  }
  std::vector<std::string> stored = gw.store().stream_names();
  std::sort(listed.begin(), listed.end());
  std::sort(stored.begin(), stored.end());
  if (listed != stored) {
    ++violations;
    out << "gateway oracle: names: /streams lists " << listed.size()
        << " name(s), the store holds " << stored.size()
        << " (or a name did not round-trip)\n";
  }
  if (stored.empty()) {
    ++violations;
    out << "gateway oracle: names: no hostile-name publish reached the "
           "store\n";
  }
  if (!healthz_ok(gw)) {
    ++violations;
    out << "gateway oracle: names: /healthz failed\n";
  }
  return violations;
}

}  // namespace

int run_gateway_oracle(const OracleOptions& opts, std::ostream& out) {
  testing::register_builtin_targets();

  std::vector<PoolEntry> pool;
  load_target_pool("rtmp_handshake", /*is_http=*/false, opts.corpus_dir, pool);
  load_target_pool("rtmp_chunk", /*is_http=*/false, opts.corpus_dir, pool);
  load_target_pool("http_request", /*is_http=*/true, opts.corpus_dir, pool);
  if (pool.empty()) {
    out << "gateway oracle: no corpus entries (unknown targets?)\n";
    return 1;
  }
  std::vector<Bytes> splice_corpus;
  splice_corpus.reserve(pool.size());
  for (const PoolEntry& e : pool) splice_corpus.push_back(e.data);

  GatewayConfig cfg;
  cfg.rtmp_port = 0;
  cfg.http_port = 0;
  cfg.enable_api = false;
  cfg.seed = opts.seed;
  Gateway gw(cfg);
  if (const Status s = gw.start(); !s.ok()) {
    out << "gateway oracle: start failed: " << s.error().to_string() << "\n";
    return 1;
  }

  testing::Mutator mutator(opts.seed);
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::uint64_t violations = 0;

  for (std::uint64_t iter = 0; iter < opts.iters; ++iter) {
    const PoolEntry& entry = pool[mutator.below(pool.size())];
    Bytes mutant = mutator.mutate(entry.data, splice_corpus);
    if (mutant.size() > opts.max_input_bytes) {
      mutant.resize(opts.max_input_bytes);
    }
    digest = testing::fnv1a(mutant, digest);

    SocketPump peer;
    if (!peer.connect(entry.is_http ? gw.http_port() : gw.rtmp_port()).ok()) {
      ++violations;
      out << "gateway oracle: iter " << iter << ": connect refused\n";
      break;
    }
    // Feed the mutant in deterministic random-sized slices; the kernel is
    // free to refragment further.
    std::size_t off = 0;
    while (off < mutant.size()) {
      const std::size_t n =
          std::min(mutant.size() - off, 1 + mutator.below(4096));
      peer.queue(Bytes(mutant.begin() + static_cast<std::ptrdiff_t>(off),
                       mutant.begin() + static_cast<std::ptrdiff_t>(off + n)));
      off += n;
      pump_until_drained(gw, peer, 10000);
      if (peer.closed() || peer.peer_closed()) break;
    }
    peer.close();
    if (!settle(gw, 2000)) {
      ++violations;
      out << "gateway oracle: iter " << iter << ": "
          << gw.loop().connection_count()
          << " connection(s) leaked after peer close\n";
    }
    if ((iter + 1) % 50 == 0 && !healthz_ok(gw)) {
      ++violations;
      out << "gateway oracle: iter " << iter << ": /healthz failed\n";
    }
  }

  const bool healthy = healthz_ok(gw);
  if (!healthy) out << "gateway oracle: final /healthz failed\n";
  violations += check_hostile_stream_names(cfg, opts.seed, digest, out);
  out << "FUZZ {\"target\":\"gateway_live_peer\",\"iters\":" << opts.iters
      << ",\"seed\":" << opts.seed << ",\"violations\":" << violations
      << ",\"digest\":\"" << std::hex << digest << std::dec << "\"}\n";
  return violations == 0 && healthy ? 0 : 1;
}

}  // namespace psc::gateway
