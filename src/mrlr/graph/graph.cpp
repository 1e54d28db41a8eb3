#include "mrlr/graph/graph.hpp"

#include <algorithm>

#include "mrlr/util/require.hpp"

namespace mrlr::graph {

Graph GraphData::build() && { return Graph(std::move(*this)); }

Graph::Graph(GraphData data) : data_(std::move(data)) {
  MRLR_REQUIRE(data_.weights.empty() ||
                   data_.weights.size() == data_.edges.size(),
               "weight vector must match edge count");
  data_.weighted = !data_.weights.empty();
  build_index();
}

Graph::Graph(std::uint64_t num_vertices, std::vector<Edge> edges)
    : Graph(GraphData{num_vertices, false, std::move(edges), {}}) {}

Graph::Graph(std::uint64_t num_vertices, std::vector<Edge> edges,
             std::vector<double> weights)
    : Graph(GraphData{num_vertices, true, std::move(edges),
                      std::move(weights)}) {}

void Graph::build_index() {
  const std::uint64_t n = data_.n;
  const std::vector<Edge>& edges = data_.edges;
  offsets_.assign(n + 1, 0);
  for (const Edge& e : edges) {
    MRLR_REQUIRE(e.u < n && e.v < n, "edge endpoint out of range");
    MRLR_REQUIRE(e.u != e.v, "self-loops are not supported");
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::uint64_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  adj_.resize(2 * edges.size());
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId e = 0; e < edges.size(); ++e) {
    const Edge& ed = edges[e];
    adj_[cursor[ed.u]++] = Incidence{ed.v, e};
    adj_[cursor[ed.v]++] = Incidence{ed.u, e};
  }
  max_degree_ = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    max_degree_ = std::max(max_degree_, degree(static_cast<VertexId>(v)));
  }
}

double Graph::total_weight() const {
  double s = 0.0;
  for (EdgeId e = 0; e < num_edges(); ++e) s += weight(e);
  return s;
}

Graph Graph::with_weights(std::vector<double> weights) const {
  return Graph(data_.n, data_.edges, std::move(weights));
}

}  // namespace mrlr::graph
