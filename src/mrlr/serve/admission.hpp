#pragma once
// Admission control for the serve daemon: projecting one job's
// per-machine space footprint from its spec alone, before anything
// runs.
//
// The projection is the engine's own per-machine capacity formula (the
// Theorem 5.6 space accounting every RLR driver provisions,
// core/rlr_matching.cpp):
//
//   eta       = max(1, round(n^(1 + mu)))
//   projected = floor((slack / 16) *
//               (24 * max(1, sample_boost) * eta + 2 * n)) + 64   words
//
// where n is the instance's vertex count (graphs) or universe size
// (set systems), read from the instance header without materializing
// the instance. The daemon admits a job iff the sum of projected words
// over all admitted-and-unfinished jobs stays within its configured
// budget — the same quantity `max_machine_words` reports after the
// fact, projected before the run instead.

#include <cstdint>

#include "mrlr/jobs/job_spec.hpp"

namespace mrlr::serve {

/// Reads the instance's n (graph vertex count / set-system universe)
/// from the spec's instance header. Throws
/// exec::TransportError(kBadPayload) when the header is malformed; a
/// graph header goes through the .mgb decoder's header check, which
/// also refuses a byte count that disagrees with the header's m.
std::uint64_t instance_dimension(const jobs::JobSpec& spec);

/// The formula above. Never zero.
std::uint64_t projected_machine_words(const jobs::JobSpec& spec);

}  // namespace mrlr::serve
