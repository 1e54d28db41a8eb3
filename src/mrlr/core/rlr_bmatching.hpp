#pragma once
// Randomized local ratio for maximum weight b-matching — Algorithm 7 and
// Appendix D.
//
// The plain local ratio reduction is too weak for b >= 2: killing all
// edges at a vertex requires b(v) reductions (Section D.2), so the paper
// uses *epsilon-adjusted* reductions. The central machine maintains
// phi(v) = sum of (reduction / b(v)) charges at v; processing edge
// e = {u, v} with residual g = w(e) - phi(u) - phi(v) > 0 pushes e and
// charges g/b(u) to u and g/b(v) to v. An edge dies when
// w(e) <= (1+eps) * (phi(u) + phi(v)). Unwinding the stack greedily
// (respecting capacities) yields a (3 - 2/max{2,b} + 2*eps)-approximate
// b-matching (Theorem D.1 + the epsilon adjustment).
//
// Sampling per iteration: vertex v draws b(v) * ln(1/delta) * n^mu alive
// incident edges (delta = eps/(1+eps)); the central machine pops the
// heaviest b(v) * ln(1/delta) of them per vertex. Lemma D.2: the maximum
// degree drops by n^{mu/4} per iteration w.h.p.
//
// The distributed rounds are rlr_matching's (live_edges.hpp): the same
// worker-resident, owner-filled liveness per incidence, with the
// epsilon-adjusted kill rule and the stacked notices that send-phi
// carries to the edge owners.

#include <vector>

#include "mrlr/core/params.hpp"
#include "mrlr/core/rlr_matching.hpp"
#include "mrlr/graph/graph.hpp"

namespace mrlr::core {

/// A b-matching run reports what a matching run does.
using RlrBMatchingResult = RlrMatchingResult;

/// b[v] >= 1 is the capacity of vertex v; eps > 0 controls the
/// epsilon-adjusted kill rule.
RlrBMatchingResult rlr_b_matching(const graph::Graph& g,
                                  const std::vector<std::uint32_t>& b,
                                  double eps, const MrParams& params);

/// Sequential epsilon-adjusted local ratio (the order-driven engine the
/// MapReduce version drives); exposed for tests. Processes edges in the
/// given order, then any leftovers in id order, and unwinds.
RlrBMatchingResult seq_b_matching_local_ratio(
    const graph::Graph& g, const std::vector<std::uint32_t>& b, double eps,
    const std::vector<graph::EdgeId>& order = {});

}  // namespace mrlr::core
