#pragma once
// Versioned result schema for the unified bench harness.
//
// One BenchResult per scenario run; a BenchFile is what `mrlr_cli bench
// --out` writes and what tools/bench_diff consumes. The schema carries
// an explicit schema_version so a comparator never silently diffs
// incompatible files.
//
// Field semantics (the diff policy in diff.hpp keys off these):
//   * wall_seconds            — timing; compared with a ratio threshold;
//   * rounds/iterations/max_machine_words/max_central_inbox/
//     shuffle_words/quality/quality_vs_baseline/determinism_hash/failed
//                             — deterministic given the scenario's fixed
//                               seed; compared exactly;
//   * extra                   — informational only (derived rates,
//                               bounds, telemetry per-phase totals);
//                               never compared;
//   * manifest                — run provenance strings (build type,
//                               git describe, the backend, threads
//                               and shards the scenario ran); never
//                               compared, omitted from JSON when empty
//                               (older files parse unchanged).
//
// determinism_hash is serialized as a hex string ("0x..."), not a JSON
// number: 64-bit hashes do not survive a double round-trip.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mrlr/bench/json.hpp"

namespace mrlr::bench {

inline constexpr std::uint64_t kBenchSchemaVersion = 1;

/// Order- and length-sensitive 64-bit mixer (splitmix64 core) used to
/// fingerprint solutions: equal streams of mixed values give equal
/// hashes, and any single-word difference changes the result.
class HashAcc {
 public:
  void mix(std::uint64_t x);
  void mix(double d);
  void mix(const std::string& s);

  template <typename Range>
  void mix_range(const Range& r) {
    std::uint64_t count = 0;
    for (const auto& v : r) {
      mix(static_cast<std::uint64_t>(v));
      ++count;
    }
    mix(count);
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x9E3779B97F4A7C15ull;
};

struct BenchResult {
  std::string name;    ///< scenario name (registry key)
  std::string algo;    ///< algorithm label, e.g. "rlr-mwm"
  std::string family;  ///< instance family, e.g. "gnm-density"
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  double mu = 0.0;
  double c = 0.0;
  std::uint64_t threads = 1;
  std::string format;  ///< on-disk format for io scenarios, else ""

  double wall_seconds = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t iterations = 0;
  std::uint64_t max_machine_words = 0;
  std::uint64_t max_central_inbox = 0;
  std::uint64_t shuffle_words = 0;  ///< total words shuffled (engine accounting)
  double quality = 0.0;             ///< solution value (weight, |S|, colours)
  double quality_vs_baseline = 0.0; ///< ratio vs sequential reference (0 = n/a)
  std::uint64_t determinism_hash = 0;
  bool failed = false;  ///< algorithm failed, invalid solution, or violation

  /// Scenario-specific metrics; informational, never diffed.
  std::map<std::string, double> extra;

  /// Run provenance (bench/manifest.hpp); informational, never diffed.
  std::map<std::string, std::string> manifest;
};

struct BenchFile {
  std::uint64_t schema_version = kBenchSchemaVersion;
  std::string tool = "mrlr_cli bench";
  std::vector<BenchResult> results;
};

Json to_json(const BenchResult& r);
Json to_json(const BenchFile& f);

/// Throw JsonError on structural problems; bench_file_from_json also
/// rejects a schema_version it does not understand.
BenchResult bench_result_from_json(const Json& j);
BenchFile bench_file_from_json(const Json& j);

/// File convenience wrappers. read_bench_file throws JsonError on parse
/// or schema problems and std::runtime_error on I/O failure.
void write_bench_file(const BenchFile& f, const std::string& path);
BenchFile read_bench_file(const std::string& path);

std::string hash_to_hex(std::uint64_t h);
std::uint64_t hash_from_hex(const std::string& s);  ///< throws JsonError

}  // namespace mrlr::bench
