#include "mrlr/bench/emit.hpp"

#include <cstdio>
#include <cstdlib>

#include "mrlr/util/text.hpp"

namespace mrlr::bench {

std::uint64_t env_threads() {
  const char* env = std::getenv("MRLR_THREADS");
  return text::parse_number<std::uint64_t>(env ? env : "").value_or(1);
}

std::string fmt_double(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

}  // namespace mrlr::bench
