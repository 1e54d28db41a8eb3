#pragma once
// Drives a selected set of registry scenarios and writes the versioned
// result file: the body of `mrlr_cli bench`.

#include <iosfwd>
#include <string>
#include <vector>

#include "mrlr/bench/registry.hpp"
#include "mrlr/bench/result.hpp"

namespace mrlr::bench {

struct RunOptions {
  std::vector<std::string> groups;
  std::vector<std::string> scenarios;
  std::string out_path;  ///< empty = no result file
  RunContext context;
  bool list_only = false;
};

/// Runs the scenarios selected by `options` against `registry`,
/// streaming one progress line per scenario to `log`, then prints a
/// summary table and (optionally) writes the result file.
///
/// Exit-code semantics (what mrlr_cli returns):
///   0 — every scenario ran and none reported failed;
///   1 — at least one scenario reported failed (invalid solution,
///       algorithm failure, or space violation);
///   2 — selection/usage errors (unknown group or scenario).
int run_bench(const Registry& registry, const RunOptions& options,
              std::ostream& log);

}  // namespace mrlr::bench
