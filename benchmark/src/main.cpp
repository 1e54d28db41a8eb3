// mrlr_benchmark: the repository benchmark.
//
//   mrlr_benchmark --out FILE [--workload NAME] [--seed S] [--seconds T]
//                  [--trace 0|1] [--selftest [--forge-reference]]
//
// Runs the named workload (default: all four, in a fixed order). Each
// workload runs in two forked children: one generates its instances
// from --seed into files and computes the sequential reference weights,
// the next loads those files, checks every result, and measures for
// --seconds. The parent stays single-threaded and small, takes the
// workload's peak RSS from wait4, and kills the child's process group
// if it outlives its watchdog. With --trace 1 the run reports the
// per-layer metrics instead of the end-to-end ones. Every metric is
// printed by name with its unit; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}, and FILE receives the
// full results with provenance. Exit status: 0 when every check
// passed, 1 when one failed or timed out, 2 on a usage error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "common.hpp"
#include "mrlr/util/mix64.hpp"
#include "workloads.hpp"

namespace mrlr::benchmark {
namespace {

namespace fs = std::filesystem;

/// Budget beyond --seconds for generation, set-up, references and
/// warm-up; past it the watchdog kills the workload.
constexpr double kWatchdogSlackS = 120.0;
constexpr double kMaxSeconds = 60.0;
/// Fixed CPU work, about 0.2 s on one core of a current x86 server.
constexpr std::uint64_t kProbeIters = 50'000'000;

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  bool forge = false;
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "mrlr_benchmark: " << why << "\n"
            << "usage: mrlr_benchmark --out FILE [--workload NAME] [--seed S]"
               " [--seconds T] [--trace 0|1] [--selftest"
               " [--forge-reference]]\nworkloads:";
  for (const std::string_view w : kWorkloads) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        const std::string w = value();
        bool known = false;
        for (const std::string_view k : kWorkloads) known = known || k == w;
        if (!known) usage("unknown workload \"" + w + "\"");
        o.workloads.push_back(w);
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--out") {
        o.out = value();
      } else if (a == "--selftest") {
        o.selftest = true;
      } else if (a == "--forge-reference") {
        o.forge = true;
      } else {
        usage("unknown argument \"" + a + "\"");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.out.empty()) usage("--out is required");
  if (!(o.seconds > 0.0 && o.seconds <= kMaxSeconds)) {
    usage("--seconds must be in (0, 60]");
  }
  if (o.forge && !o.selftest) usage("--forge-reference needs --selftest");
  if (o.workloads.empty()) {
    o.workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
  }
  return o;
}

/// Informational host-speed probe, never used to normalise a metric:
/// it lets a reader tell host drift from a regression.
double cpu_probe() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t h = 0;
  for (std::uint64_t i = 0; i < kProbeIters; ++i) h = mix64(h + i);
  volatile std::uint64_t sink = h;
  (void)sink;
  return seconds_since(t0);
}

struct WorkloadResult {
  std::string name;
  Report report;
  double cpu_probe_s = 0.0;
  bool correct = false;
};

WorkloadResult run_workload(const std::string& name, const Options& o) {
  WorkloadResult w;
  w.name = name;
  Ctx ctx;
  ctx.seed = o.seed;
  ctx.seconds = o.seconds;
  ctx.trace = o.trace;
  ctx.selftest = o.selftest;
  ctx.forge = o.forge;
  ctx.work_dir = o.out + ".work";
  if (o.trace) ctx.telemetry_out = o.out + "." + name + ".telemetry.jsonl";
  fs::remove_all(ctx.work_dir);
  fs::create_directories(ctx.work_dir);

  w.cpu_probe_s = cpu_probe();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds +
                                                       kWatchdogSlackS));
  const std::vector<JobDef> defs = workload_jobs(name, ctx);
  const ChildOutcome gen = run_child(
      [&](Report& r) { generate_instances(ctx, defs, r); }, deadline);
  bool clean = gen.clean_exit;
  if (!clean) {
    w.report = gen.report;
  } else {
    for (const Metric& m : gen.report.detail) ctx.refs[m.name] = m.value;
    const ChildOutcome run = run_child(
        [&](Report& r) {
          if (name == "serve-mixed") {
            run_serve(ctx, defs, r);
          } else {
            run_batch(ctx, defs.front(), r);
          }
        },
        deadline);
    clean = run.clean_exit;
    w.report = run.report;
    if (!o.trace) {
      w.report.metric("peak_rss_mb",
                      double(run.usage.ru_maxrss) / 1024.0);  // KiB
    }
  }
  Report& r = w.report;
  for (Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.fail("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  r.attempted = std::max({r.attempted, r.failed, std::uint64_t{1}});
  w.correct = clean && r.failed == 0;
  fs::remove_all(ctx.work_dir);
  return w;
}

// ------------------------------------------------------------- output --

std::string jstr(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += jstr(ms[i].name) + ": {\"value\": " + jnum(ms[i].value) +
         ", \"unit\": " + jstr(ms[i].unit) + "}";
  }
  return s + "}";
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string provenance_json(const Options& o) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  double load[1] = {0.0};
  ::getloadavg(load, 1);
  std::ostringstream os;
  os << "{\"nproc\": " << nproc << ", \"loadavg_1m\": " << jnum(load[0])
     << ", \"oversubscribed\": " << (nproc < 4 ? "true" : "false")
     << ", \"build_type\": " << jstr(MRLR_BENCHMARK_BUILD_TYPE)
     << ", \"compiler\": " << jstr(compiler())
     << ", \"git_describe\": " << jstr(MRLR_BENCHMARK_GIT_DESCRIBE)
     << ", \"seed\": " << o.seed << ", \"seconds\": " << jnum(o.seconds)
     << ", \"trace\": " << (o.trace ? "true" : "false")
     << ", \"selftest\": " << (o.selftest ? "true" : "false") << "}";
  return os.str();
}

std::string workload_json(const WorkloadResult& w, bool trace) {
  const Report& r = w.report;
  std::string s = "{\"name\": " + jstr(w.name) +
                  ", \"trace\": " + (trace ? "true" : "false") +
                  ", \"correct\": " + (w.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"failed_frac\": " +
                  jnum(double(r.failed) / double(r.attempted)) +
                  ", \"cpu_probe_s\": " + jnum(w.cpu_probe_s) +
                  ", \"config\": {";
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    if (i > 0) s += ", ";
    s += jstr(r.config[i].first) + ": " + jstr(r.config[i].second);
  }
  s += "}, \"metrics\": " + metrics_json(r.metrics) +
       ", \"detail\": " + metrics_json(r.detail) + ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) s += ", ";
    s += jstr(r.failures[i]);
  }
  return s + "]}";
}

void print_metrics(const WorkloadResult& w) {
  const auto line = [&](const Metric& m, const char* kind) {
    std::printf("%-16s %-6s %-34s %-22.10g %s\n", w.name.c_str(), kind,
                m.name.c_str(), m.value, m.unit.c_str());
  };
  for (const Metric& m : w.report.metrics) line(m, "metric");
  for (const Metric& m : w.report.detail) line(m, "detail");
  std::printf("%-16s %-6s %-34s %-22.10g %s\n", w.name.c_str(), "probe",
              "cpu_probe_s", w.cpu_probe_s, "s");
  std::printf("%-16s %s: %llu of %llu checked jobs failed\n", w.name.c_str(),
              w.correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(w.report.failed),
              static_cast<unsigned long long>(w.report.attempted));
  for (const std::string& f : w.report.failures) {
    std::printf("%-16s failure: %s\n", w.name.c_str(), f.c_str());
  }
}

int run(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  become_subreaper();
  ::signal(SIGPIPE, SIG_IGN);

  std::vector<WorkloadResult> results;
  for (const std::string& w : o.workloads) {
    results.push_back(run_workload(w, o));
    print_metrics(results.back());
    std::fflush(stdout);
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string workloads = "[";
  std::vector<Metric> all;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& w = results[i];
    correct = correct && w.correct;
    attempted += w.report.attempted;
    failed += w.report.failed;
    if (i > 0) workloads += ",\n  ";
    workloads += workload_json(w, o.trace);
    for (Metric m : w.report.metrics) {
      if (results.size() > 1) m.name = w.name + "/" + m.name;
      all.push_back(std::move(m));
    }
  }
  workloads += "]";

  std::ofstream out(o.out);
  out << "{\"format\": \"mrlr-benchmark-results/1\",\n \"comparable\": "
      << (o.selftest ? "false" : "true")
      << ",\n \"provenance\": " << provenance_json(o)
      << ",\n \"workloads\": " << workloads << "}\n";
  out.close();
  if (!out) {
    std::cerr << "mrlr_benchmark: cannot write " << o.out << "\n";
    correct = false;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(all).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mrlr::benchmark

int main(int argc, char** argv) { return mrlr::benchmark::run(argc, argv); }
