#pragma once
// Shared instance construction and parameter defaults for the bench
// scenarios.

#include <cstdint>

#include "mrlr/core/params.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/graph.hpp"

namespace mrlr::bench {

/// Standard bench MrParams: the paper's defaults plus a high iteration
/// safety valve and an explicit execution backend.
core::MrParams scenario_params(double mu, std::uint64_t seed,
                               std::uint64_t threads = 1);

/// Standard weighted instance family for graph problems: G(n, n^{1+c})
/// with the given weight distribution.
graph::Graph weighted_gnm(std::uint64_t n, double c, graph::WeightDist dist,
                          std::uint64_t seed);

}  // namespace mrlr::bench
