#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "bench.h"

namespace pscbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

// --- BestOfInputs ---

void BestOfInputs::add(std::size_t input, double ops, double wall_s,
                       double cpu_s) {
  Best& b = best_[input];
  const bool first = b.wall_s == 0;
  b.ops = ops;
  b.wall_s = first ? wall_s : std::min(b.wall_s, wall_s);
  b.cpu_s = first ? cpu_s : std::min(b.cpu_s, cpu_s);
}

double BestOfInputs::ops_per_s() const {
  double ops = 0, wall = 0;
  for (const Best& b : best_) {
    ops += b.ops;
    wall += b.wall_s;
  }
  return wall > 0 ? ops / wall : 0;
}

double BestOfInputs::cpu_ms_per_op() const {
  double ops = 0, cpu = 0;
  for (const Best& b : best_) {
    ops += b.ops;
    cpu += b.cpu_s;
  }
  return ops > 0 ? 1e3 * cpu / ops : 0;
}

// --- Spans ---

Spans::Spans() : t0_(wall_s()) {}

int Spans::begin(const char* name, int parent) {
  const double t = wall_s() - t0_;
  spans_.push_back(Span{name, t, t, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = wall_s() - t0_;
}

int Spans::add(const char* name, double start_wall, double end_wall,
               int parent) {
  spans_.push_back(Span{name, start_wall - t0_, end_wall - t0_, parent});
  return static_cast<int>(spans_.size()) - 1;
}

bool Spans::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                 "\"end_s\":%.9f,\"parent\":%d}\n",
                 i == 0 ? "" : ",", i, s.name, s.start, s.end, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- Digest ---

void Digest::add_bytes(const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(const std::string& s) {
  add_bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  add_bytes(reinterpret_cast<const std::uint8_t*>("\n"), 1);
}

void Digest::add(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  add(std::string(buf));
}

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// --- Report ---

void Report::metric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::info(const std::string& name, double value, const char* unit,
                  std::size_t samples) {
  if (samples > 0) {
    std::printf("metric %-28s %14.6g %-6s (n=%zu)\n", name.c_str(), value,
                unit, samples);
  } else {
    std::printf("metric %-28s %14.6g %s\n", name.c_str(), value, unit);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++errors_;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

int Report::finish() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max(attempted_, 1L));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    double v = metrics_[i].second;
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].first + "\": " + buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct() && failed_ == 0 ? 0 : 1;
}

// --- Per-layer metrics ---

void LayerValues::set(const std::string& name, double v) {
  for (auto& [n, value] : values_) {
    if (n == name) {
      value = v;
      return;
    }
  }
  values_.emplace_back(name, v);
}

void LayerValues::emit(Report& report) const {
  for (const auto& [name, value] : values_) {
    // Probes report -1 when their own sanity check failed.
    report.check(value >= 0 || name == "obs.trace_overhead_pct",
                 "layer probe failed: " + name);
    report.metric(name, value);
  }
}

}  // namespace pscbench
