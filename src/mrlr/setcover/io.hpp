#pragma once
// Plain-text set systems, so examples and the CLI can load and save
// cover instances. Format (grammar in util/text.hpp, shared with edge
// lists): header "n m [weighted]" (n sets over the universe [m]), then
// one row "[w] k e1 ... ek" per set, the weight first when the header
// declares weights. The writer always writes weights, in shortest
// round-trip form, so a written system reads back bit-exactly.
//
// read_set_system throws ParseError, never returns a silently empty
// system, on text the grammar refuses, a row shorter than its k, an
// element outside [m], a non-positive weight, or a universe above 2^32
// (element ids are 32-bit) or above the element ids the rows carry
// (which could never be covered, and would size the element index from
// the header alone). The rows fill the SetSystem's CSR arrays directly.

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
