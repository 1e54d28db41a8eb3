#include "mrlr/bench/emit.hpp"

#include <cstdio>
#include <cstdlib>

namespace mrlr::bench {

std::uint64_t env_threads() {
  const char* env = std::getenv("MRLR_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return 1;
  return static_cast<std::uint64_t>(v);
}

std::string fmt_double(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

}  // namespace mrlr::bench
