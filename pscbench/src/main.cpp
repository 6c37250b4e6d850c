// pscbench: the repository benchmark.
//
//   pscbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--threads <n>] [--trace-dir <dir>]
//
// Workloads: sweep_independent, flashcrowd_shared_faulted, crawl_usage,
// gateway_live (see ../README.md for why each is included). With
// --trace 0 the closing JSON line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// Informational `metric ...` lines (workload-specific names, percentile
// sample counts, the output digest) come before it.
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

using namespace pscbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "pscbench: %s\nusage: pscbench --workload "
               "{sweep_independent|flashcrowd_shared_faulted|crawl_usage|"
               "gateway_live} --seed N --seconds S --trace {0|1} "
               "[--threads N] [--trace-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--threads") {
      opt.threads = std::atoi(v);
    } else if (arg == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (opt.seconds <= 0) return usage("--seconds must be positive");

  std::printf("pscbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  Report report;
  LayerValues layers;
  Spans spans;
  if (opt.workload == "sweep_independent") {
    run_sweep_independent(opt, report, layers, spans);
  } else if (opt.workload == "flashcrowd_shared_faulted") {
    run_flashcrowd_shared_faulted(opt, report, layers, spans);
  } else if (opt.workload == "crawl_usage") {
    run_crawl_usage(opt, report, layers, spans);
  } else if (opt.workload == "gateway_live") {
    run_gateway_live(opt, report, layers, spans);
  } else {
    return usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.trace) {
    layers.emit(report);
    if (!opt.trace_dir.empty()) {
      const std::string path = opt.trace_dir + "/spans-" + opt.workload +
                               "-" + std::to_string(opt.seed) + ".json";
      report.check(spans.write(path), "write span file " + path);
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    }
  }
  return report.finish();
}
