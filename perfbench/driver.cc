// perfbench_driver: runs one benchmark workload and prints its raw results
// as one JSON object on stdout. run.py builds this program, runs it, and
// reduces the raw results into the benchmark's metrics.
//
//   perfbench_driver --workload embed-fr|serve-read|serve-refresh
//                    --seed N --seconds S --trace 0|1 [--spans PATH]
//
// With --trace 1 the benchmark's spans are written to PATH when the run ends.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(2);
}

namespace {

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--spans") {
      cfg.spans_path = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (cfg.seconds <= 0.0) Die("--seconds must be positive");
  return cfg;
}

}  // namespace

int Main(int argc, char** argv) {
  const RunConfig cfg = ParseArgs(argc, argv);
  SpanRecorder spans(cfg.trace, Clock::now());
  WorkloadResult result;
  if (cfg.workload == "embed-fr") {
    result = RunEmbedFr(cfg, &spans);
  } else if (cfg.workload == "serve-read") {
    result = RunServeRead(cfg, &spans);
  } else if (cfg.workload == "serve-refresh") {
    result = RunServeRefresh(cfg, &spans);
  } else {
    Die("unknown workload '" + cfg.workload + "'");
  }
  if (cfg.trace && !cfg.spans_path.empty() && !spans.WriteFile(cfg.spans_path)) {
    Die("cannot write spans to " + cfg.spans_path);
  }
  JsonObject out;
  out.Str("workload", cfg.workload);
  out.Num("seed", static_cast<double>(cfg.seed));
  out.Num("attempted", static_cast<double>(result.attempted));
  out.Num("op_failures", static_cast<double>(result.op_failures));
  out.Array("setup_s", result.setup_s);
  out.Num("peak_rss_mb", PeakRssMb());
  out.Num("trace_overhead_s", spans.overhead_seconds());
  out.Object("values", result.values);
  out.Object("samples", result.samples);
  out.Object("checks", result.checks);
  std::printf("%s\n", out.ToString().c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
