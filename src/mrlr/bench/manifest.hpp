#pragma once
// Run manifest: the build and execution facts stamped into every
// BenchResult so nightly artifacts are self-describing — which binary
// (build type, git describe), what the scenario actually ran (backend,
// threads, shards), the host's core count, and the seed policy.
// Manifest keys are provenance, not metrics: bench_diff never compares
// them (a baseline recorded by one build must diff cleanly against a
// run from another).

#include <map>
#include <string>

#include "mrlr/bench/result.hpp"

namespace mrlr::bench {

/// The manifest for one scenario result, built from what it ran:
/// threads from r.threads, shards from r.extra["shards"] (1 when the
/// scenario recorded none), and backend "process" when it recorded
/// shards, else "threads" for more than one thread, else "serial". Keys
/// the scenario set in r.manifest itself win (the TCP scenarios set
/// backend "tcp"). build_type is the configured MRLR_BUILD_TYPE;
/// git_describe is `git describe` as of the last build (the generated
/// mrlr/git_describe.hpp), "unknown" outside a git checkout.
std::map<std::string, std::string> run_manifest(const BenchResult& r);

}  // namespace mrlr::bench
