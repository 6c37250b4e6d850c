// gateway_live: the in-process gateway::Gateway on one thread, a load
// generator on this one.
//
// The generator holds one RTMP publisher (gateway::PublishClient pushing
// gateway::synthetic_frames, encoded during set-up, in real time) and
// http_conns() keep-alive HTTP connections (at most nproc connections in
// all). The HTTP side stands for the HLS viewers of that one broadcast.
// A live HLS client reloads the media playlist once per target duration
// while it keeps changing and fetches each new segment once (RFC 8216
// §6.3.4), so at 1x ingest each viewer sends one playlist GET and one
// segment GET per segment: the GETs alternate 1:1, and every segment GET
// asks for the newest segment the generator has seen listed. An offered
// rate of R requests/s then stands for R * segment_target / 2 viewers.
// The GETs are offered open-loop at a few fixed rates: each request is
// due at a fixed instant, is pipelined on the least-loaded connection (at
// most kWindow in flight per connection, the rest queue in the generator)
// and is timed from when it was due, so a gateway stall is charged to
// every request it delays. Between rate steps the generator stops offering
// and drains.
//
// Validity: the generator records how late it noticed each due request
// (gw.generator_late_ms_p99). A step where that exceeds kLateLimitMs is
// flagged invalid, so generator lateness is never booked as gateway
// latency.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "gateway/clients.h"
#include "gateway/gateway.h"
#include "hls/playlist.h"
#include "media/types.h"
#include "probes.h"

namespace pscbench {

namespace {

using namespace psc;

constexpr std::size_t kWindow = 4;
constexpr double kLatencyLimitMs = 10;  // p99 limit for gw_max_rate_rps
constexpr double kLateLimitMs = 1;      // generator validity limit
constexpr double kDrainTimeoutS = 10;
constexpr std::size_t kHeadlineStep = 1;
const char* const kStream = "benchstream0001";

/// Pin the calling thread to `cpu` (modulo the CPUs present), or release
/// it to every CPU when `cpu` < 0. Best effort: a refusal leaves the
/// thread where the scheduler put it.
void pin_thread(int cpu) {
  const int n = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < n; ++i) {
    if (cpu < 0 || i == cpu % n) CPU_SET(i, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Up to 3 HTTP connections beside the publisher, nproc connections in all.
std::size_t http_conns() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n > 1 ? n - 1 : 1, 1, 3);
}

struct StepSpec {
  double rate;      // offered requests per second
  double share;     // share of a round
};
// Offered rates span from well below the single-thread pump's ~9.6 k
// segment GETs/s to far past what one gateway thread serves; the 2000/s
// step (about 3600 viewers at the default 3.6 s segment target) is the
// headline, the last one measures the saturated rate.
const StepSpec kSteps[] = {{500, 0.10},   {2000, 0.40},  {8000, 0.20},
                           {32000, 0.20}, {512000, 0.10}};
// The steps run once per round; each round starts a fresh gateway with its
// thread on another CPU. At saturation the gateway is bound by memory
// bandwidth, and on a shared host a neighbour can halve it for seconds at a
// time (gateway CPU per response then doubles too). Interference only ever
// slows a round, so the gated saturation figures are the best round's.
constexpr int kRounds = 6;

struct Pending {
  double due = 0;
  bool playlist = false;
  std::uint64_t seq = 0;
};

struct StepStats {
  std::vector<double> playlist_ms, segment_ms, late_ms;
  long attempted = 0, failed = 0;
  std::size_t backlog_end = 0;
  double start = 0, end = 0, drained = 0;
  double completed = 0;
  double gw_cpu_s = 0;  // gateway-thread CPU from step start to drained
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::deque<Pending> inflight;
  std::vector<std::uint8_t> in;
  std::size_t in_len = 0, in_off = 0;
  bool dead = false;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// What set-up produces: the pre-encoded frames, the sim-only reference
/// segments for them, and a started gateway.
struct Prepared {
  gateway::SyntheticMedia media;
  std::map<std::uint64_t, util::BufferSlice> reference;  // by sequence
  std::unique_ptr<gateway::Gateway> gw;
  double encode_s = 0;
};

/// The gateway's defaults (segment target, playlist window), ephemeral
/// ports, no API bridge.
gateway::GatewayConfig gateway_config() {
  gateway::GatewayConfig cfg;
  cfg.rtmp_port = 0;
  cfg.http_port = 0;
  cfg.enable_api = false;
  return cfg;
}

/// The publisher paces frames at the encoder's own frame rate (1x).
double pace_fps() { return media::VideoConfig{}.fps; }

/// The broadcast has been live for a full playlist window when the viewers
/// arrive: set-up publishes that much, plus one GOP so the last segment of
/// the window closes, as a burst before the steps.
std::size_t burst_frames() {
  const gateway::GatewayConfig cfg = gateway_config();
  return static_cast<std::size_t>(
      static_cast<double>(cfg.playlist_window) * to_s(cfg.segment_target) *
          pace_fps() +
      media::VideoConfig{}.gop_length);
}

int frames_needed(double seconds) {
  // Burst + real-time frames over the steps and a few seconds of drain; a
  // publisher that runs out of frames simply stops.
  return static_cast<int>(pace_fps() * (seconds + 5) +
                          static_cast<double>(burst_frames()));
}

Prepared prepare(std::uint64_t seed, double seconds) {
  Prepared p;
  const double t0 = wall_s();
  p.media = gateway::synthetic_frames(derive_seed(seed, 40),
                                      frames_needed(seconds));
  p.encode_s = wall_s() - t0;
  const gateway::GatewayConfig cfg = gateway_config();
  for (hls::Segment& s : gateway::sim_reference_segments(
           p.media, kStream, cfg.segment_target, cfg.seed)) {
    p.reference.emplace(s.sequence, std::move(s.ts_data));
  }
  p.gw = std::make_unique<gateway::Gateway>(cfg);
  if (!p.gw->start().ok()) p.gw.reset();
  return p;
}

/// Everything one run of the rate steps measures.
struct GwRun {
  std::vector<StepStats> steps;
  double gw_cpu_s = 0;
  double poll_calls = 0, poll_events = 0;
  std::vector<double> sim_lag_ms;
  std::vector<std::string> request_texts;  // traced only: the parser probe
  std::uint64_t stored = 0, served = 0, bytes_served = 0;
  std::size_t mismatches = 0;
  bool setup_ok = true;
};

class Generator {
 public:
  /// `gw_cpu` is the gateway thread's CPU seconds, published after every
  /// poll, so each step can charge the gateway's CPU to its own responses.
  /// `traced` keeps a sample of the request texts for the parser probe.
  Generator(Prepared& p, GwRun& run, const std::atomic<double>& gw_cpu,
            bool traced)
      : p_(p),
        run_(run),
        gw_cpu_(gw_cpu),
        traced_(traced),
        conns_(http_conns()) {}

  bool connect_all() {
    pub_ = std::make_unique<gateway::PublishClient>("live", kStream, 21);
    if (!pub_->connect(p_.gw->rtmp_port()).ok()) return false;
    for (Conn& c : conns_) {
      c.fd = connect_loopback(p_.gw->http_port());
      c.in.resize(1 << 20);
      if (c.fd < 0) return false;
    }
    return true;
  }

  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (pub_) pub_->close();
  }

  /// Publish a playlist window as a burst and learn it from the playlist,
  /// so segment GETs have targets from the first step on.
  bool warm_up() {
    const double deadline = wall_s() + 10;
    while (wall_s() < deadline) {
      pub_->step();
      if (!config_sent_ && pub_->publishing()) {
        pub_->send_avc_config(p_.media.sps, p_.media.pps);
        config_sent_ = true;
        for (; next_frame_ < burst_frames() &&
               next_frame_ < p_.media.samples.size();
             ++next_frame_) {
          pub_->send_sample(p_.media.samples[next_frame_]);
        }
      }
      const std::size_t window = gateway_config().playlist_window;
      if (config_sent_ && known_.size() < window && backlog() == 0) {
        queue_.push_back(Pending{wall_s(), true, 0});
      }
      pump(scratch_);
      if (known_.size() >= window && backlog() == 0) {
        pace_start_ = wall_s();
        pace_base_ = next_frame_;
        return true;
      }
    }
    return false;
  }

  void run_step(std::size_t index, const StepSpec& spec, double duration) {
    StepStats& st = run_.steps[index];
    const double cpu0 = gw_cpu_.load();
    st.start = wall_s();
    st.end = st.start + duration;
    std::uint64_t j = 0;
    double due = st.start;
    for (;;) {
      const double now = wall_s();
      if (now >= st.end) break;
      while (due <= now && due < st.end) {
        st.late_ms.push_back(1e3 * (now - due));
        const bool playlist = counter_++ % 2 == 0;
        queue_.push_back(Pending{due, playlist, playlist ? 0 : known_.back()});
        ++st.attempted;
        ++j;
        due = st.start + static_cast<double>(j) / spec.rate;
      }
      pump(st);
    }
    st.backlog_end = backlog();
    const double drain_deadline = wall_s() + kDrainTimeoutS;
    while (backlog() > 0 && wall_s() < drain_deadline) pump(st);
    st.drained = wall_s();
    st.gw_cpu_s = gw_cpu_.load() - cpu0;
    // Whatever is still outstanding timed out.
    st.failed += static_cast<long>(backlog());
    queue_.clear();
    for (Conn& c : conns_) c.inflight.clear();
  }

 private:
  std::size_t backlog() const {
    std::size_t n = queue_.size();
    for (const Conn& c : conns_) n += c.inflight.size();
    return n;
  }

  /// One generator turn: pace the publisher, hand queued requests to
  /// connections, flush writes, read and check responses.
  void pump(StepStats& st) {
    const double now = wall_s();
    if (pace_start_ > 0) {
      while (next_frame_ < p_.media.samples.size() &&
             pace_start_ + static_cast<double>(next_frame_ - pace_base_) /
                               pace_fps() <= now) {
        pub_->send_sample(p_.media.samples[next_frame_++]);
      }
    }
    pub_->step();
    while (!queue_.empty()) {
      Conn* best = nullptr;
      for (Conn& c : conns_) {
        if (c.dead || c.inflight.size() >= kWindow) continue;
        if (best == nullptr || c.inflight.size() < best->inflight.size()) {
          best = &c;
        }
      }
      if (best == nullptr) break;
      const Pending& p = queue_.front();
      std::string req = "GET /hls/" + std::string(kStream) + "/" +
                        (p.playlist ? std::string("media.m3u8")
                                    : "seg_" + std::to_string(p.seq) + ".ts") +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
      if (traced_ && run_.request_texts.size() < 20000) {
        run_.request_texts.push_back(req);
      }
      best->out += req;
      best->inflight.push_back(p);
      queue_.pop_front();
    }
    for (Conn& c : conns_) {
      if (c.dead) continue;
      flush(c);
      read(c, st);
    }
  }

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail_conn(c);
        return;
      }
      c.out_off += static_cast<std::size_t>(n);
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  void read(Conn& c, StepStats& st) {
    for (;;) {
      if (c.in_off > 0 && c.in_off == c.in_len) c.in_off = c.in_len = 0;
      if (c.in.size() - c.in_len < (256u << 10)) {
        if (c.in_off > 0) {
          std::memmove(c.in.data(), c.in.data() + c.in_off,
                       c.in_len - c.in_off);
          c.in_len -= c.in_off;
          c.in_off = 0;
        }
        if (c.in.size() - c.in_len < (256u << 10)) c.in.resize(c.in.size() * 2);
      }
      const ssize_t n =
          ::recv(c.fd, c.in.data() + c.in_len, c.in.size() - c.in_len, 0);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fail_conn(c);
        return;
      }
      c.in_len += static_cast<std::size_t>(n);
      while (parse_one(c, st)) {
      }
    }
  }

  /// Frame one response by Content-Length; false when incomplete.
  bool parse_one(Conn& c, StepStats& st) {
    const char* base = reinterpret_cast<const char*>(c.in.data()) + c.in_off;
    const std::string_view avail(base, c.in_len - c.in_off);
    const std::size_t head_end = avail.find("\r\n\r\n");
    if (head_end == std::string_view::npos) return false;
    const std::string_view head = avail.substr(0, head_end);
    const std::size_t cl = head.find("Content-Length: ");
    const std::size_t body_len =
        cl == std::string_view::npos
            ? 0
            : std::strtoul(std::string(head.substr(cl + 16, 12)).c_str(),
                           nullptr, 10);
    if (avail.size() < head_end + 4 + body_len) return false;
    const int status = head.size() >= 12 ? std::atoi(std::string(head.substr(9, 3)).c_str()) : 0;
    const std::string_view body = avail.substr(head_end + 4, body_len);
    c.in_off += head_end + 4 + body_len;
    if (c.inflight.empty()) {
      ++st.failed;  // an unsolicited response
      return true;
    }
    const Pending p = c.inflight.front();
    c.inflight.pop_front();
    const double ms = 1e3 * (wall_s() - p.due);
    bool ok = status == 200;
    if (ok && p.playlist) {
      auto parsed = hls::parse_m3u8(std::string(body));
      ok = parsed.ok();
      if (ok) learn(parsed.value());
    } else if (ok) {
      const auto it = p_.reference.find(p.seq);
      ok = it != p_.reference.end() && it->second.size() == body.size() &&
           std::memcmp(it->second.data(), body.data(), body.size()) == 0;
      if (!ok) ++run_.mismatches;
    }
    if (!ok) {
      ++st.failed;
    } else {
      ++st.completed;
      (p.playlist ? st.playlist_ms : st.segment_ms).push_back(ms);
    }
    return true;
  }

  void learn(const hls::MediaPlaylist& pl) {
    for (const auto& ref : pl.segments) {
      const std::uint64_t seq =
          std::strtoull(ref.uri.c_str() + 4, nullptr, 10);  // "seg_N.ts"
      if (known_.empty() || seq > known_.back()) known_.push_back(seq);
    }
  }

  void fail_conn(Conn& c) {
    c.dead = true;
    // Requests on a dead connection fail when the step drains.
    for (const Pending& p : c.inflight) queue_.push_back(p);
    c.inflight.clear();
  }

  Prepared& p_;
  GwRun& run_;
  const std::atomic<double>& gw_cpu_;
  const bool traced_;
  std::unique_ptr<gateway::PublishClient> pub_;
  std::vector<Conn> conns_;
  std::deque<Pending> queue_;
  std::vector<std::uint64_t> known_;
  StepStats scratch_;  // warm-up traffic, not reported
  bool config_sent_ = false;
  std::size_t next_frame_ = 0;
  std::size_t pace_base_ = 0;
  double pace_start_ = 0;
  std::uint64_t counter_ = 0;
};

/// One run of every rate step against `p.gw` on its own thread, the
/// gateway pinned to CPU `round` and the generator to the next one.
GwRun run_steps(Prepared& p, double seconds, bool traced, int round) {
  GwRun run;
  run.steps.resize(std::size(kSteps));
  std::atomic<bool> stop{false};
  std::atomic<double> gw_cpu{0};
  gateway::Gateway& gw = *p.gw;
  std::thread server([&] {
    pin_thread(round);
    const double c0 = thread_cpu_s();
    const double sim0 = to_s(gw.sim().now());
    while (!stop.load(std::memory_order_relaxed)) {
      const int events = gw.poll_once(5);
      gw_cpu.store(thread_cpu_s() - c0, std::memory_order_relaxed);
      run.poll_calls += 1;
      run.poll_events += events;
      if (traced) {
        const double lag_s = gw.bridge().wall_elapsed_s() -
                             (to_s(gw.sim().now()) - sim0);
        run.sim_lag_ms.push_back(1e3 * lag_s);
      }
    }
    run.gw_cpu_s = thread_cpu_s() - c0;
  });
  pin_thread(round + 1);
  {
    Generator gen(p, run, gw_cpu, traced);
    run.setup_ok = gen.connect_all() && gen.warm_up();
    if (run.setup_ok) {
      for (std::size_t i = 0; i < std::size(kSteps); ++i) {
        gen.run_step(i, kSteps[i], kSteps[i].share * seconds);
      }
    }
  }
  // Let the gateway see the closes, then stop it.
  const double linger = wall_s() + 0.05;
  while (wall_s() < linger) std::this_thread::yield();
  stop.store(true);
  server.join();
  pin_thread(-1);
  run.stored = gw.store().segments_stored();
  run.served = gw.segments_served();
  run.bytes_served = gw.bytes_served();
  return run;
}

/// Gateway CPU per response over the sustainable steps (all but the
/// saturation step, whose regime is bistable on a shared host).
double sustained_cpu_per_response(const GwRun& r) {
  double cpu = 0, n = 0;
  for (std::size_t i = 0; i + 1 < r.steps.size(); ++i) {
    cpu += r.steps[i].gw_cpu_s;
    n += r.steps[i].completed;
  }
  return n > 0 ? cpu / n : 0;
}

double total_completed(const GwRun& r) {
  double n = 0;
  for (const StepStats& s : r.steps) n += s.completed;
  return n;
}

/// Step verdicts and the highest valid rate.
double report_steps(const GwRun& run, Report& report) {
  double max_rate = 0;
  bool all_below_valid = true;
  for (std::size_t i = 0; i < run.steps.size(); ++i) {
    const StepStats& s = run.steps[i];
    const double late_p99 = quantile(s.late_ms, 0.99);
    const bool generator_ok = late_p99 <= kLateLimitMs;
    const double seg_p99 = quantile(s.segment_ms, 0.99);
    const double pl_p99 = quantile(s.playlist_ms, 0.99);
    const bool no_growth = static_cast<double>(s.backlog_end) <=
                           std::max<double>(http_conns() * kWindow,
                                            kSteps[i].rate * kLatencyLimitMs / 1e3);
    const bool meets = generator_ok && s.failed == 0 && no_growth &&
                       seg_p99 <= kLatencyLimitMs && pl_p99 <= kLatencyLimitMs;
    all_below_valid = all_below_valid && meets;
    if (all_below_valid) max_rate = kSteps[i].rate;
    std::printf("step rate=%-6.0f offered=%-6ld done=%-6.0f failed=%ld "
                "seg_p50=%.3fms seg_p99=%.3fms (n=%zu) pl_p99=%.3fms (n=%zu) "
                "backlog_end=%zu late_p99=%.3fms gw_cpu_us/resp=%.3f "
                "done_rate=%.0f/s%s%s\n",
                kSteps[i].rate, s.attempted, s.completed, s.failed,
                quantile(s.segment_ms, 0.5), seg_p99, s.segment_ms.size(),
                pl_p99, s.playlist_ms.size(), s.backlog_end, late_p99,
                s.completed > 0 ? 1e6 * s.gw_cpu_s / s.completed : 0,
                s.drained > s.start ? s.completed / (s.drained - s.start) : 0,
                generator_ok ? "" : " INVALID(generator behind)",
                meets ? " meets-limit" : "");
    report.ops(s.attempted, s.failed);
  }
  report.check(run.mismatches == 0,
               std::to_string(run.mismatches) +
                   " served segments differ from the sim-only reference");
  return max_rate;
}

}  // namespace

void run_gateway_live(const Options& opt, Report& report, LayerValues& layers,
                      Spans& spans) {
  std::printf("gateway: %zu HTTP connections (window %zu), publisher at "
              "%.0f fps, steps:",
              http_conns(), kWindow, pace_fps());
  for (const StepSpec& s : kSteps) std::printf(" %.0f/s", s.rate);
  std::printf("\n");

  const double round_s = opt.seconds / kRounds;
  if (opt.trace) {
    // Three untraced and three traced rounds, alternating, all on the
    // first CPU; the per-layer figures come from the last traced round.
    const int root = spans.begin("pscbench.traced_run");
    std::vector<double> untraced_cpu, traced_cpu;
    Prepared p;
    GwRun run;
    for (int i = 0; i < 6; ++i) {
      const bool traced = i % 2 == 1;
      p = prepare(opt.seed, round_s);
      report.check(p.gw != nullptr, "gateway failed to start");
      if (!p.gw) return;
      const int s = spans.begin("gateway.run_steps", root);
      run = run_steps(p, round_s, traced, 0);
      spans.end(s);
      report.check(run.setup_ok, "gateway warm-up failed");
      (traced ? traced_cpu : untraced_cpu)
          .push_back(sustained_cpu_per_response(run));
      if (traced) report_steps(run, report);
    }
    layers.set("obs.trace_overhead_pct",
               overhead_pct(median(traced_cpu), median(untraced_cpu)));
    layers.set("gateway.poll_busy_s", run.gw_cpu_s);
    layers.set("gateway.poll_calls", run.poll_calls);
    layers.set("gateway.events_per_poll",
               run.poll_calls > 0 ? run.poll_events / run.poll_calls : 0);
    layers.set("gateway.sim_lag_ms_p99", quantile(run.sim_lag_ms, 0.99));
    layers.set("gateway.segments_stored", double(run.stored));
    layers.set("gateway.segments_served", double(run.served));
    layers.set("gateway.bytes_served", double(run.bytes_served));
    std::vector<double> late;
    for (const StepStats& st : run.steps) {
      late.insert(late.end(), st.late_ms.begin(), st.late_ms.end());
    }
    layers.set("gw.generator_late_ms_p99", quantile(late, 0.99));
    const int probes = spans.begin("pscbench.probes", root);
    layers.set("http.parse_ns_per_request",
               probe_http_parse_ns(run.request_texts, spans, probes));
    MediaProbe mp;
    mp.samples_kept = p.media.samples;
    for (const auto& smp : mp.samples_kept) {
      mp.media_bytes += static_cast<double>(smp.data.size());
    }
    mp.video_frames = static_cast<double>(mp.samples_kept.size());
    mp.ns_per_frame = mp.video_frames > 0 ? 1e9 * p.encode_s / mp.video_frames : 0;
    probe_packaging(mp, spans, probes);
    set_media_layers(mp, layers);
    spans.end(probes);
    spans.end(root);
    return;
  }

  // Rounds: each a fresh set-up (encode the frames, build the sim-only
  // reference segments, start a gateway; timed as setup_s) and every rate
  // step, over --seconds in all.
  std::vector<double> setups;
  Digest digest;
  std::vector<double> max_rates, top_rates, top_cpu_ms;
  // Generator lateness is kept as one p99 per round: pooling every round's
  // samples would grow this process by megabytes over the run and put the
  // generator's memory into the gated peak_rss_mb.
  std::vector<double> head_pl, head_seg, late_p99;
  std::size_t late_n = 0;
  double bytes = 0, gw_cpu = 0, responses = 0;
  for (int r = 0; r < kRounds; ++r) {
    const double t0 = wall_s();
    Prepared p = prepare(opt.seed, round_s);
    setups.push_back(wall_s() - t0);
    report.check(p.gw != nullptr, "gateway failed to start");
    if (!p.gw) return;
    if (r == 0) {
      for (const auto& [seq, ts] : p.reference) {
        digest.add(std::to_string(seq));
        digest.add_bytes(ts.data(), ts.size());
      }
    }
    std::printf("round %d: gateway pinned to cpu %d\n", r,
                r % static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
    const GwRun run = run_steps(p, round_s, false, r);
    report.check(run.setup_ok, "gateway warm-up failed");
    max_rates.push_back(report_steps(run, report));
    const StepStats& head = run.steps[kHeadlineStep];
    head_pl.insert(head_pl.end(), head.playlist_ms.begin(), head.playlist_ms.end());
    head_seg.insert(head_seg.end(), head.segment_ms.begin(), head.segment_ms.end());
    std::vector<double> late;
    for (const StepStats& st : run.steps) {
      late.insert(late.end(), st.late_ms.begin(), st.late_ms.end());
    }
    late_n += late.size();
    late_p99.push_back(quantile(std::move(late), 0.99));
    const StepStats& top = run.steps.back();
    top_rates.push_back(
        top.drained > top.start ? top.completed / (top.drained - top.start) : 0);
    top_cpu_ms.push_back(top.completed > 0 ? 1e3 * top.gw_cpu_s / top.completed
                                           : 0);
    bytes += static_cast<double>(run.bytes_served);
    gw_cpu += run.gw_cpu_s;
    responses += total_completed(run);
  }
  std::printf("output_digest %s\n", digest.hex().c_str());
  Report::info("gw_playlist_p50_ms", quantile(head_pl, 0.5), "ms", head_pl.size());
  Report::info("gw_playlist_p99_ms", quantile(head_pl, 0.99), "ms", head_pl.size());
  Report::info("gw_segment_p50_ms", quantile(head_seg, 0.5), "ms", head_seg.size());
  Report::info("gw_segment_p99_ms", quantile(head_seg, 0.99), "ms", head_seg.size());
  Report::info("gw_max_rate_rps", median(max_rates), "1/s", max_rates.size());
  Report::info("gw_saturated_rps_median", median(top_rates), "1/s",
               top_rates.size());
  Report::info("gw_bytes_per_cpu_s", gw_cpu > 0 ? bytes / gw_cpu : 0, "B/s");
  Report::info("gw.generator_late_ms_p99",
               *std::max_element(late_p99.begin(), late_p99.end()), "ms",
               late_n);
  Report::info("bytes_per_response", responses > 0 ? bytes / responses : 0, "B");
  report.metric("setup_s", median(setups));
  report.metric("work_per_s",
                *std::max_element(top_rates.begin(), top_rates.end()));
  report.metric("cpu_ms_per_op",
                *std::min_element(top_cpu_ms.begin(), top_cpu_ms.end()));
  report.metric("peak_rss_mb", peak_rss_mb());
}

}  // namespace pscbench
