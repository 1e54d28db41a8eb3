#pragma once
// Randomized local ratio for minimum weight set cover — Algorithm 1,
// Theorem 2.3, and the MapReduce schedule of Theorem 2.4.
//
// Outline (per outer iteration r):
//   1. all machines count their active elements -> |U_r| (allreduce);
//   2. each active element joins the sample U' independently with
//      probability p = min(1, 2*eta / |U_r|), eta = n^{1+mu}; sampled
//      elements ship their dual sets T_j to the central machine
//      (fail if |U'| > 6*eta);
//   3. the central machine runs the sequential local ratio method on the
//      sample, extending its persistent residual-weight state; sets whose
//      residual reaches zero join the cover C;
//   4. the newly covered set ids are broadcast down a fanout-n^mu tree;
//      every machine deactivates its elements intersecting C.
// The loop ends when no active element remains; Theorem 2.3 shows
// ceil(c/mu) iterations suffice w.h.p., and the cover is f-approximate
// because Algorithm 1 is an instantiation of the sequential method with
// a randomized processing order.
//
// Both drivers run this one loop (CoverLoop in rlr_setcover.cpp), on
// `sys` or on the f = 2 instance of a graph. Each supplies only its
// sample message ({j, |T_j|, T_j...} for a set system, {j, u, v} for an
// edge), its extra per-machine footprint (vertex owners' adjacency lists
// for vertex cover), its result conversion and its step 4:
//   * set cover tree-broadcasts C, and every machine marks the sets in
//     its mirror of C and deactivates its elements that meet one;
//   * vertex cover forwards instead, in two direct rounds (central ->
//     vertex owner -> edge owners), which is what drops the round bound
//     from O((c/mu)^2) to O(c/mu).

#include <vector>

#include "mrlr/core/params.hpp"
#include "mrlr/graph/graph.hpp"
#include "mrlr/setcover/set_system.hpp"

namespace mrlr::core {

struct RlrSetCoverResult {
  std::vector<setcover::SetId> cover;
  double weight = 0.0;
  double lower_bound = 0.0;  ///< local ratio certificate: OPT >= this
  MrOutcome outcome;
};

/// General-f algorithm (Theorem 2.4, O((c/mu)^2) rounds).
RlrSetCoverResult rlr_set_cover(const setcover::SetSystem& sys,
                                const MrParams& params);

struct RlrVertexCoverResult {
  std::vector<graph::VertexId> cover;
  double weight = 0.0;
  double lower_bound = 0.0;
  MrOutcome outcome;
};

/// f = 2 specialization for weighted vertex cover (Theorem 2.4,
/// O(c/mu) rounds via direct bit forwarding).
RlrVertexCoverResult rlr_vertex_cover(const graph::Graph& g,
                                      const std::vector<double>& weights,
                                      const MrParams& params);

}  // namespace mrlr::core
