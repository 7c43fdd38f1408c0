// perfbench: runs one workload and prints one JSON result line.
//
//   perfbench --workload fork_fib|steal_search|io_echo|stvm_pfib
//             --seed N --seconds S --trace 0|1 [--t0-ns NS]
//
// --trace 0 measures the end-to-end metrics: set-up, then one warm-up
// repetition, then repetitions until S seconds have passed; times are
// medians over the timed repetitions.  --trace 1 is the per-layer run:
// it records spans around every call into the runtime layers for all
// four workloads (the named one repeated until S seconds have passed),
// adds the probes and reference timings, writes the spans to
// perfbench_out/spans_<workload>_seed<N>.json and prints the per-layer metrics.
// --t0-ns is the CLOCK_MONOTONIC time at which the caller spawned this
// process, so set-up time counts from the process's start.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "workload.hpp"

namespace perfbench {

namespace {

struct WorkloadDef {
  const char* name;
  std::unique_ptr<Workload> (*make)();
  const char* warmup_span;
  const char* rep_span;
};

constexpr WorkloadDef kWorkloads[] = {
    {"fork_fib", make_fork_fib, "fork_fib.warmup", "fork_fib.rep"},
    {"steal_search", make_steal_search, "steal_search.warmup", "steal_search.rep"},
    {"io_echo", make_io_echo, "io_echo.warmup", "io_echo.rep"},
    {"stvm_pfib", make_stvm_pfib, "stvm_pfib.warmup", "stvm_pfib.rep"},
};

struct Args {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  long long t0_ns = -1;
};

/// Results and spans, relative to the checkout root (run.py's cwd).
constexpr const char* kOutDir = "perfbench_out";

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fork_fib|steal_search|io_echo|stvm_pfib "
               "--seed N --seconds S --trace 0|1 [--t0-ns NS]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      for (const auto& d : kWorkloads) {
        if (std::strcmp(d.name, v) == 0) a.workload = &d;
      }
      if (a.workload == nullptr) usage("unknown workload");
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
      if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
    } else if (k == "--t0-ns") {
      a.t0_ns = std::strtoll(v, &end, 10);
    } else {
      usage(("unknown option " + k).c_str());
    }
    if (end != nullptr && (end == v || *end != '\0')) usage(("bad value for " + k).c_str());
  }
  if (a.workload == nullptr) usage("--workload is required");
  return a;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Peak resident set of this process image, from VmHWM.  getrusage's
/// ru_maxrss would also count the parent's pages from before exec.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  double kib = std::nan("");
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Prints the result line (last line of stdout) and keeps a copy in the
/// output directory.
int report(const Args& a, Outcome& out, const Metrics& metrics, const std::string& extra) {
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) out.check("metric " + m.name + " is not a number");
  }
  std::string json = "{\"correct\": " + std::string(out.error.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                  m.unit.c_str());
    json += buf;
  }
  json += "}}";
  if (!out.error.empty()) std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", out.error.c_str());
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(stderr, "  attempted %ld, failed %ld%s\n", out.attempted, out.failed, extra.c_str());
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string path = std::string(kOutDir) + "/result_" + a.workload->name + "_trace" +
                           std::to_string(a.trace) + "_seed" + std::to_string(a.seed) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.error.empty() ? 0 : 1;
}

int run_untraced(const Args& a) {
  const std::uint64_t t0 = a.t0_ns >= 0 ? static_cast<std::uint64_t>(a.t0_ns) : now_ns();
  std::unique_ptr<Workload> w = a.workload->make();
  w->setup(a.seed);
  const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  // The calibration loop, before and after the repetitions, tells a
  // slow phase of the host apart from a slower program (stderr only).
  const double calib_before = host_calibration(nullptr);
  Outcome out;
  w->rep(out);  // warm-up: checked, not timed
  std::vector<double> wall, cpu;
  const std::uint64_t start = now_ns();
  do {
    const double c0 = cpu_seconds();
    const std::uint64_t r0 = now_ns();
    w->rep(out);
    wall.push_back(static_cast<double>(now_ns() - r0) / 1e9);
    cpu.push_back(cpu_seconds() - c0);
  } while (static_cast<double>(now_ns() - start) / 1e9 < a.seconds);
  w->finish(out);
  const double calib_after = host_calibration(nullptr);

  const Metrics metrics = {
      {"setup_s", setup_s, "s"},
      {"wall_s", median(wall), "s"},
      {"cpu_s", median(cpu), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
  char calib[96];
  std::snprintf(calib, sizeof calib, ", host.calib_ms %.3f before, %.3f after", calib_before,
                calib_after);
  return report(a, out, metrics,
                ", timed repetitions " + std::to_string(wall.size()) + calib);
}

int run_traced(const Args& a) {
  Tracer tr;
  Outcome out;
  Metrics metrics;
  const std::uint64_t start = now_ns();
  host_calibration(&tr);
  runtime_probes(tr, metrics);
  // The named workload runs last, repeated until the run's time is up;
  // the others run one warm-up and one traced repetition each.
  std::vector<const WorkloadDef*> order;
  for (const auto& d : kWorkloads) {
    if (&d != a.workload) order.push_back(&d);
  }
  order.push_back(a.workload);
  for (const WorkloadDef* d : order) {
    host_calibration(&tr);
    std::unique_ptr<Workload> w = d->make();
    w->tracer = &tr;
    {
      Span s(&tr, "setup");
      w->rep_span = s.id();
      w->setup(a.seed);
    }
    Outcome wo;
    for (int i = 0;; ++i) {
      {
        Span s(&tr, i == 0 ? d->warmup_span : d->rep_span);
        w->rep_span = s.id();
        w->rep(wo);
      }
      w->after_rep();
      if (i >= 1 && (d != a.workload ||
                     static_cast<double>(now_ns() - start) / 1e9 >= a.seconds)) {
        break;
      }
    }
    w->finish(wo);
    w->layer_metrics(tr, metrics);
    if (d == a.workload) {
      out.attempted = wo.attempted;
      out.failed = wo.failed;
    }
    out.check(wo.error);
    w.reset();
    host_calibration(&tr);
  }
  reference_timings(tr, a.seed, metrics, out);
  metrics.push_back({"host.calib_ms", tr.median_ns("host.calib") / 1e6, "ms"});
  metrics.push_back({"trace.wall_s", tr.median_ns(a.workload->rep_span) / 1e9, "s"});

  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string spans = std::string(kOutDir) + "/spans_" + a.workload->name + "_seed" +
                            std::to_string(a.seed) + ".json";
  if (!tr.write(spans)) out.check("cannot write " + spans);
  return report(a, out, metrics,
                ", spans in " + spans + " (" + std::to_string(tr.dropped()) + " dropped)");
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  return a.trace == 1 ? perfbench::run_traced(a) : perfbench::run_untraced(a);
}
