#pragma once
// Declarative scenario registry for the unified bench harness.
//
// A scenario is one fully pinned experiment configuration — algorithm x
// instance family x size x mu/c x threads x on-disk format — whose run
// function produces a single BenchResult with a fixed seed, so every
// non-timing field is reproducible and can be diffed exactly against a
// committed baseline.
//
// Scenarios are grouped by tags (paper-f1, rounds-vs-mu, space-vs-c,
// shuffle, io, threads, process, serve, compare, large, smoke);
// `mrlr_cli bench --group` selects by tag. Registration is explicit
// (register_builtin_scenarios), not static-initializer magic: mrlr is a
// static library and self-registering translation units would be
// silently dropped by the linker.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "mrlr/bench/result.hpp"

namespace mrlr::bench {

struct RunContext {
  /// Execution backend threads (per shard under the process backend)
  /// for every scenario that runs a jobs-registry driver at the session
  /// backend; scenarios whose *subject* is the backend (exec/*) pin
  /// their own value and ignore this.
  std::uint64_t threads = 1;

  /// `mrlr_cli bench --backend process [--shards K]`: every scenario
  /// that runs a jobs-registry driver at the session backend (the f1,
  /// rounds, space, compare and large rows) runs it with num_shards =
  /// shards; the exec/* rows and large/setcover-greedy/k4 keep their
  /// pinned backend, and rows with no driver ignore it. Either way
  /// every non-timing result field must equal the committed baseline —
  /// that is the backend determinism contract the perf-smoke CI job
  /// checks.
  bool process_backend = false;
  std::uint64_t shards = 2;
};

struct Scenario {
  std::string name;  ///< unique key, e.g. "f1/matching/n1000-c0.40-mu0.20"
  std::vector<std::string> groups;
  std::string description;
  std::function<BenchResult(const RunContext&)> run;
};

class Registry {
 public:
  /// Throws std::invalid_argument on a duplicate name.
  void add(Scenario s);

  const Scenario* find(std::string_view name) const;
  /// Members of a group in registration order ("all" selects everything).
  std::vector<const Scenario*> group(std::string_view g) const;
  const std::vector<Scenario>& all() const { return scenarios_; }
  /// Distinct group tags in first-seen order (plus the "all" pseudo-group).
  std::vector<std::string> group_names() const;

 private:
  std::vector<Scenario> scenarios_;
};

/// Populates r with every built-in scenario (scenarios.cpp).
void register_builtin_scenarios(Registry& r);

/// The lazily built singleton registry holding the built-in scenarios.
const Registry& builtin_registry();

/// Union of the named groups and explicit scenario names, in registry
/// order, deduplicated. Throws std::invalid_argument on an unknown
/// group or scenario name.
std::vector<const Scenario*> select_scenarios(
    const Registry& r, const std::vector<std::string>& groups,
    const std::vector<std::string>& names);

}  // namespace mrlr::bench
