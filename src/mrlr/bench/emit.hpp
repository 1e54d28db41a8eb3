#pragma once
// Environment handling and number formatting shared by the bench
// harness (`mrlr_cli bench`, bench_diff).
//
// Environment knob (read here and nowhere else):
//   MRLR_THREADS — execution backend (1 serial, N pool, 0 hardware).

#include <cstdint>
#include <string>

namespace mrlr::bench {

/// MRLR_THREADS; 1 (the serial backend) when the variable is unset,
/// empty, or not an unsigned integer.
std::uint64_t env_threads();

std::string fmt_double(double v, int prec = 2);

}  // namespace mrlr::bench
