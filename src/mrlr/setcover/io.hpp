#pragma once
// Plain-text set system I/O so examples and the CLI can load
// user-provided cover instances.
//
// Format: header "n m [weighted]" (n sets over universe [m]); then one
// line per set: "[w] k e1 e2 ... ek" (weight first when the header says
// weighted). '#' lines are comments.
//
// read_set_system shares the graph reader's error taxonomy: a garbage
// or truncated header, a short set row, an element outside the
// universe, or a missing/non-finite/non-positive weight throws
// graph::ParseError instead of yielding a silently empty system. So
// does a universe above 2^32 (element ids are 32-bit) or above the
// number of element ids the rows carry, which could never be covered
// and would otherwise size the element index from the header alone.
// It scans each line with std::from_chars (weights parse to the same
// doubles as operator>>) and fills the SetSystem's CSR arrays directly.

#include <iosfwd>

#include "mrlr/graph/io.hpp"
#include "mrlr/setcover/set_system.hpp"

namespace mrlr::setcover {

using graph::ParseError;

void write_set_system(const SetSystem& sys, std::ostream& os);

/// Parses the format written by write_set_system. Throws ParseError on
/// malformed input.
SetSystem read_set_system(std::istream& is);

}  // namespace mrlr::setcover
