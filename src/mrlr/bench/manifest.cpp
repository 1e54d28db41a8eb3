#include "mrlr/bench/manifest.hpp"

#include <thread>

#include "mrlr/git_describe.hpp"

namespace mrlr::bench {

std::map<std::string, std::string> run_manifest(const BenchResult& r) {
  std::map<std::string, std::string> m = r.manifest;
#ifdef MRLR_BUILD_TYPE
  m.emplace("build_type", MRLR_BUILD_TYPE);
#else
  m.emplace("build_type", "unknown");
#endif
  m.emplace("git_describe", MRLR_GIT_DESCRIBE);
  const auto shards = r.extra.find("shards");
  m.emplace("backend", shards != r.extra.end() ? "process"
                       : r.threads > 1         ? "threads"
                                               : "serial");
  m.emplace("threads", std::to_string(r.threads));
  m.emplace("shards",
            std::to_string(shards != r.extra.end()
                               ? static_cast<std::uint64_t>(shards->second)
                               : 1));
  m.emplace("nproc", std::to_string(std::thread::hardware_concurrency()));
  // Scenarios pin their own seeds (that is what makes baselines
  // diffable); record the policy rather than a number.
  m.emplace("seed", "scenario-pinned");
  return m;
}

}  // namespace mrlr::bench
