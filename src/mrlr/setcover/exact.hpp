#pragma once
// Exact solvers for small instances, used to certify approximation ratios
// in the tests.

#include <cstdint>
#include <optional>
#include <vector>

#include "mrlr/graph/graph.hpp"
#include "mrlr/setcover/set_system.hpp"

namespace mrlr::setcover {

/// Minimum-weight set cover by subset DP over the universe.
/// Requires universe_size <= 24 (memory 2^m doubles). Returns nullopt if
/// the instance is not coverable.
std::optional<double> exact_min_cover_weight(const SetSystem& sys);

/// As above, also returning one optimal selection.
struct ExactCover {
  double weight = 0.0;
  std::vector<SetId> sets;
};
std::optional<ExactCover> exact_min_cover(const SetSystem& sys);

/// Minimum-weight vertex cover by brute force over vertex subsets.
/// Requires num_vertices <= 24.
double exact_min_vertex_cover_weight(const graph::Graph& g,
                                     const std::vector<double>& weights);

}  // namespace mrlr::setcover
