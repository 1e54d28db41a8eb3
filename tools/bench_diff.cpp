// Perf-regression comparator over two bench result files (the CI gate
// behind the perf-smoke job).
//
// Usage:
//   bench_diff <baseline.json> <current.json>
//              [--time-threshold R] [--time-floor SECONDS]
//
// Policy (see src/mrlr/bench/diff.hpp): deterministic metrics (rounds,
// space, quality, determinism hash, failure flags) must match exactly;
// wall time may grow up to R x over max(baseline, floor); scenarios
// missing from the current file are regressions; new scenarios are
// noted. Exit codes: 0 = no regressions, 1 = regressions found,
// 2 = usage error or malformed/incompatible input.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "mrlr/bench/diff.hpp"
#include "mrlr/util/text.hpp"

namespace {

void usage() {
  std::cerr << "usage: bench_diff <baseline.json> <current.json> "
               "[--time-threshold R] [--time-floor SECONDS]\n"
               "exit codes: 0 ok, 1 regressions, 2 usage/malformed "
               "input\n";
}

double parse_positive_double(const char* flag, const char* value) {
  const std::optional<double> v = mrlr::text::parse_number<double>(value);
  if (!v || *v <= 0.0) {
    std::cerr << "bench_diff: bad value for " << flag << ": '" << value
              << "'\n";
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, current_path;
  mrlr::bench::DiffOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_diff: missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--time-threshold") {
      options.time_threshold = parse_positive_double(arg.c_str(), value());
    } else if (arg == "--time-floor") {
      options.time_floor_seconds =
          parse_positive_double(arg.c_str(), value());
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "bench_diff: unknown flag " << arg << "\n";
      usage();
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      std::cerr << "bench_diff: unexpected argument " << arg << "\n";
      usage();
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    usage();
    return 2;
  }

  try {
    const auto baseline = mrlr::bench::read_bench_file(baseline_path);
    const auto current = mrlr::bench::read_bench_file(current_path);
    const auto report =
        mrlr::bench::diff_bench_files(baseline, current, options);
    std::cout << mrlr::bench::render_diff_report(report);
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    // JsonError (malformed/incompatible files) and I/O failures.
    std::cerr << "bench_diff: " << e.what() << "\n";
    return 2;
  }
}
