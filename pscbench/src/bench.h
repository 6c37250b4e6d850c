// Shared plumbing of the repository benchmark: options, host clocks,
// order statistics, in-memory spans, the output digest and the result
// report whose last line is the machine-readable JSON object.
//
// Everything here measures the program from outside: wall and CPU clocks
// around the benchmark's own calls into public entry points, plus the
// counters the program already exports. Nothing is added to src/.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace pscbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Campaign worker threads; 0 = hardware concurrency (the users'
  /// default). Only the determinism test overrides it.
  int threads = 0;
  /// Directory for the span file of a traced run ("" = do not write).
  std::string trace_dir;
};

/// Seed mixing (SplitMix64 finaliser): every input stream of a workload
/// derives from the --seed argument through this, salted per stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

// --- Host clocks ---
double wall_s();        // steady clock
double process_cpu_s(); // user + system CPU of the whole process
double thread_cpu_s();  // CPU of the calling thread
double peak_rss_mb();   // ru_maxrss

// --- Order statistics (nearest-rank on a sorted copy) ---
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The fastest repetition of each input a run cycles through. Repetitions
/// of one input do identical work (their output digests must agree), so
/// their times differ only by interference from the host, which only ever
/// slows a repetition: the fastest is the least disturbed measurement.
class BestOfInputs {
 public:
  explicit BestOfInputs(std::size_t inputs) : best_(inputs) {}
  void add(std::size_t input, double ops, double wall_s, double cpu_s);
  /// Ops per second over one cycle of every input's fastest repetition.
  double ops_per_s() const;
  /// CPU milliseconds per op over one cycle, each input at its least CPU.
  double cpu_ms_per_op() const;

 private:
  struct Best {
    double ops = 0;
    double wall_s = 0;  // 0 = no repetition yet
    double cpu_s = 0;
  };
  std::vector<Best> best_;
};

/// In-memory spans: name, start, end (seconds since the tracer was made)
/// and the index of the span that caused it (-1 for a root). Written out
/// once, when the run ends.
class Spans {
 public:
  Spans();
  int begin(const char* name, int parent = -1);
  void end(int id);
  /// Record a finished span from its start/end wall times.
  int add(const char* name, double start_wall, double end_wall, int parent);
  template <typename F>
  double time(const char* name, int parent, F&& fn) {
    const int id = begin(name, parent);
    fn();
    end(id);
    return spans_[static_cast<std::size_t>(id)].end -
           spans_[static_cast<std::size_t>(id)].start;
  }
  std::size_t size() const { return spans_.size(); }
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };
  double t0_;
  std::vector<Span> spans_;
};

/// FNV-1a over the canonical text of a workload's outputs.
class Digest {
 public:
  void add(const std::string& s);
  void add(double v);  // %.17g: exact and platform-stable
  void add_bytes(const std::uint8_t* p, std::size_t n);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One run's result. Metrics are kept in insertion order; the last stdout
/// line is {"correct","attempted","failed","metrics":{name: value}}.
/// Units come from BENCHMARK.json, which run.py attaches.
class Report {
 public:
  void metric(const std::string& name, double value);
  /// Informational line (name, value, unit, percentile sample count when
  /// the value is a percentile; 0 otherwise). Printed immediately; never
  /// part of the JSON line.
  static void info(const std::string& name, double value, const char* unit,
                   std::size_t samples = 0);
  /// Record an output check; a false check marks the run incorrect.
  void check(bool ok, const std::string& what);
  void ops(long attempted, long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return errors_ == 0; }
  /// Print the closing JSON line; returns the process exit code.
  int finish() const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
  int errors_ = 0;
};

/// Per-layer values collected by a traced run (name -> value). Only the
/// layers a workload exercises are set; run.py reports the others of
/// BENCHMARK.json's per_layer list as 0.
class LayerValues {
 public:
  void set(const std::string& name, double v);
  void emit(Report& report) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

// --- Workloads (each fills `report`; `layers` only when tracing) ---
void run_sweep_independent(const Options& opt, Report& report,
                           LayerValues& layers, Spans& spans);
void run_flashcrowd_shared_faulted(const Options& opt, Report& report,
                                   LayerValues& layers, Spans& spans);
void run_crawl_usage(const Options& opt, Report& report, LayerValues& layers,
                     Spans& spans);
void run_gateway_live(const Options& opt, Report& report,
                      LayerValues& layers, Spans& spans);

/// Overhead of the traced run over the untraced one, in percent.
inline double overhead_pct(double traced_s, double untraced_s) {
  return untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0;
}

}  // namespace pscbench
