#pragma once
// Randomized local ratio for maximum weight matching — Algorithm 4,
// Theorems 5.5/5.6, and the mu = 0 regime of Appendix C.
//
// Outline (per outer iteration i):
//   1. allreduce the number of alive edges |E_i| (modified weight > 0,
//      not stacked);
//   2. every vertex v builds a sample E'_v of its alive incident edges:
//      all of them when |E_i| < 4*eta, otherwise i.i.d. with probability
//      p = min(eta/|E_i|, 1); samples ship (edge id, weight) pairs to the
//      central machine; fail if sum_v |E'_v| > 8*eta;
//   3. the central machine, which maintains phi(v) = total reduction at v
//      (Theorem 5.6's stateful representation), scans vertices in order:
//      the heaviest still-alive sampled edge at v gets a weight reduction
//      and is pushed on the stack;
//   4. central sends phi to vertex owners, vertex owners forward phi to
//      the owners of their still-alive incident edges; edges recompute
//      aliveness and tell the vertex owners which incidences died.
// When no alive edge remains, the stack is unwound greedily into a
// matching. 2-approximate for any sampling outcome (Theorem 5.1); the
// sampling makes the degree drop by n^{mu/4} per iteration w.h.p.
// (Lemma 5.4), giving O(c/mu) iterations, or O(log n) when eta = n
// (mu = 0, Lemma C.1's 0.975 expected decay).
//
// This driver is process-clean (ported to the process-sharded backend,
// MrParams::num_shards): non-central machines communicate exclusively
// through engine messages — the central scan decodes the sample from
// its inbox, and the driver's fail check reads the engine's merged
// accounting (Engine::inbox_words) rather than host-side counters.
// Central state (the phi table and stack) lives on machine 0, which the
// process backend always runs in the coordinator.

#include <vector>

#include "mrlr/core/params.hpp"
#include "mrlr/graph/graph.hpp"
#include "mrlr/mrc/metrics.hpp"

namespace mrlr::core {

struct RlrMatchingResult {
  std::vector<graph::EdgeId> matching;
  double weight = 0.0;
  std::uint64_t stack_size = 0;  ///< edges stacked before unwinding
  MrOutcome outcome;
  /// The engine's record of every round, in order (labels as defined
  /// in live_edges.hpp and the driver: "count|Ei|", "sample", ...).
  std::vector<mrc::RoundMetrics> per_round;
};

/// params.mu == 0 selects the Appendix C regime (eta = n, O(n) space,
/// O(log n) rounds).
RlrMatchingResult rlr_matching(const graph::Graph& g, const MrParams& params);

}  // namespace mrlr::core
