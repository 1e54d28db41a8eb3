#pragma once
// Graph representation shared by all algorithms.
//
// A Graph is an immutable simple undirected graph held as its GraphData
// (vertex count, edge list, optional weights) plus a CSR adjacency index
// (neighbour and incident-edge ids). Edge weights are optional; weight()
// on an unweighted graph returns 1.0, so unweighted problems are the
// uniform-weight special case throughout.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mrlr/util/require.hpp"

namespace mrlr::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

/// Largest admissible vertex count: ids are 32 bits, and generators and
/// file readers pack two of them into a 64-bit word (edge keys, .mgb
/// edge records), so every ingestion surface enforces n <= 2^32.
inline constexpr std::uint64_t kMaxVertexCount = 1ull << 32;

struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  /// The endpoint that is not `x`. Requires x to be an endpoint: the
  /// precondition is checked in debug builds; a violation would
  /// otherwise silently return v, corrupting path walks.
  VertexId other(VertexId x) const {
    MRLR_DEBUG_REQUIRE(x == u || x == v, "Edge::other: x is not an endpoint");
    return x == u ? v : u;
  }
  bool has_endpoint(VertexId x) const { return x == u || x == v; }
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// CSR adjacency entry: the neighbour reached and the id of the edge used.
struct Incidence {
  VertexId neighbour = 0;
  EdgeId edge = 0;
};

class Graph;

/// A graph's edge data without its adjacency index: what the readers
/// produce and the writers take. Consumers that never walk
/// neighbourhoods (format converters, writers) stay at this layer and
/// skip the index, which dominates the load time of large instances.
struct GraphData {
  std::uint64_t n = 0;
  bool weighted = false;
  std::vector<Edge> edges;
  std::vector<double> weights;  // size edges.size() when weighted

  /// Builds the algorithmic Graph (CSR index) from this data.
  Graph build() &&;

  friend bool operator==(const GraphData&, const GraphData&) = default;
};

class Graph {
 public:
  /// Builds the adjacency index over `data`. Self-loops are rejected;
  /// parallel edges are permitted by the representation but the
  /// library's generators never produce them (validate::has_parallel_edges
  /// checks). The graph is weighted iff it carries weights.
  explicit Graph(GraphData data);
  Graph(std::uint64_t num_vertices, std::vector<Edge> edges);
  Graph(std::uint64_t num_vertices, std::vector<Edge> edges,
        std::vector<double> weights);

  std::uint64_t num_vertices() const { return data_.n; }
  std::uint64_t num_edges() const { return data_.edges.size(); }
  bool weighted() const { return data_.weighted; }

  const Edge& edge(EdgeId e) const { return data_.edges[e]; }
  const std::vector<Edge>& edges() const { return data_.edges; }

  /// Weight of edge e (1.0 when the graph is unweighted).
  double weight(EdgeId e) const {
    return data_.weighted ? data_.weights[e] : 1.0;
  }
  const std::vector<double>& weights() const { return data_.weights; }

  /// The edge data. The writers take GraphData, and a Graph converts to
  /// it; an rvalue graph hands its data over instead of copying it.
  const GraphData& data() const& { return data_; }
  GraphData data() && { return std::move(data_); }
  operator const GraphData&() const { return data_; }

  std::uint64_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbours of v with the edge ids realizing them.
  std::span<const Incidence> neighbours(VertexId v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  std::uint64_t max_degree() const { return max_degree_; }

  /// Total weight of all edges.
  double total_weight() const;

  /// A copy of this graph with the given edge weights attached.
  Graph with_weights(std::vector<double> weights) const;

 private:
  void build_index();

  GraphData data_;
  std::vector<std::uint64_t> offsets_;  // size n+1
  std::vector<Incidence> adj_;          // size 2m
  std::uint64_t max_degree_ = 0;
};

}  // namespace mrlr::graph
