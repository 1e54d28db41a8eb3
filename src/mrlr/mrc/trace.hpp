#pragma once
// Execution trace reporting: turn an Engine's metrics into a per-round
// table (examples/mapreduce_primer.cpp prints one) or CSV (the tests
// compare traces across backends with it).

#include <iosfwd>

#include "mrlr/mrc/metrics.hpp"

namespace mrlr::mrc {

/// One line per round: label, words sent, max inbox/outbox/resident,
/// central inbox, violation flag.
void write_trace_csv(const Metrics& metrics, std::ostream& os);

/// Compact human-readable dump (used by examples and failed-test output).
void print_trace(const Metrics& metrics, std::ostream& os);

/// One-line summary: "rounds=R maxwords=W central=C comm=T".
void print_summary(const Metrics& metrics, std::ostream& os);

}  // namespace mrlr::mrc
