#include "mrlr/setcover/set_system.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "mrlr/util/require.hpp"

namespace mrlr::setcover {

SetSystem::SetSystem(std::uint64_t universe_size,
                     std::vector<std::uint64_t> set_offsets,
                     std::vector<ElementId> set_elements,
                     std::vector<double> weights)
    : m_(universe_size),
      set_offsets_(std::move(set_offsets)),
      set_elements_(std::move(set_elements)),
      weights_(std::move(weights)) {
  build();
}

SetSystem::SetSystem(std::uint64_t universe_size,
                     const std::vector<std::vector<ElementId>>& sets)
    : SetSystem(universe_size, sets, {}) {}

SetSystem::SetSystem(std::uint64_t universe_size,
                     const std::vector<std::vector<ElementId>>& sets,
                     std::vector<double> weights)
    : m_(universe_size), weights_(std::move(weights)) {
  std::uint64_t total = 0;
  for (const auto& s : sets) total += s.size();
  set_offsets_.reserve(sets.size() + 1);
  set_offsets_.push_back(0);
  set_elements_.reserve(total);
  for (const auto& s : sets) {
    set_elements_.insert(set_elements_.end(), s.begin(), s.end());
    set_offsets_.push_back(set_elements_.size());
  }
  build();
}

void SetSystem::build() {
  MRLR_REQUIRE(m_ <= (std::uint64_t{1} << 32),
               "universe exceeds the 32-bit element-id limit");
  MRLR_REQUIRE(!set_offsets_.empty() && set_offsets_.front() == 0 &&
                   set_offsets_.back() == set_elements_.size(),
               "set offsets must run from 0 to the element count");
  const std::uint64_t n = set_offsets_.size() - 1;
  MRLR_REQUIRE(n <= (std::uint64_t{1} << 32), "too many sets for 32-bit ids");
  if (weights_.empty()) weights_.assign(n, 1.0);
  MRLR_REQUIRE(weights_.size() == n, "one weight per set required");
  max_weight_ = 0.0;
  min_weight_ = weights_.empty() ? 0.0 : weights_[0];
  for (const double w : weights_) {
    MRLR_REQUIRE(w > 0.0, "set weights must be positive");
    max_weight_ = std::max(max_weight_, w);
    min_weight_ = std::min(min_weight_, w);
  }

  // One pass over the sets, each while it sits in cache: canonicalise
  // it in place (sort it only if it is not already strictly ascending,
  // drop repeats, close up the gaps they leave), then count its
  // elements toward the dual.
  element_offsets_.assign(m_ + 1, 0);
  max_set_size_ = 0;
  std::uint64_t begin = 0;  // set i's start before compaction
  std::uint64_t out = 0;    // and after
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t end = set_offsets_[i + 1];
    MRLR_REQUIRE(begin <= end, "set offsets must not decrease");
    ElementId* const first = set_elements_.data() + begin;
    ElementId* kept = set_elements_.data() + end;
    if (std::adjacent_find(first, kept, std::greater_equal<>()) != kept) {
      std::sort(first, kept);
      kept = std::unique(first, kept);
    }
    MRLR_REQUIRE(first == kept || kept[-1] < m_,
                 "set element outside the universe");
    for (const ElementId* j = first; j != kept; ++j) ++element_offsets_[*j];
    const std::uint64_t size = static_cast<std::uint64_t>(kept - first);
    if (out != begin) std::copy(first, kept, set_elements_.data() + out);
    out += size;
    set_offsets_[i + 1] = out;
    max_set_size_ = std::max(max_set_size_, size);
    begin = end;
  }
  set_elements_.resize(out);
  set_elements_.shrink_to_fit();
  set_offsets_.shrink_to_fit();
  weights_.shrink_to_fit();

  // The dual's second counting pass: prefix-sum the counts to the end
  // of each T_j, then scatter set ids from the last set back, so every
  // T_j fills from its end in descending set order. That leaves each
  // T_j ascending and element_offsets_[j] back at its start.
  max_frequency_ =
      *std::max_element(element_offsets_.begin(), element_offsets_.end());
  std::partial_sum(element_offsets_.begin(), element_offsets_.end(),
                   element_offsets_.begin());
  element_sets_.resize(out);
  for (std::uint64_t i = n; i-- > 0;) {
    for (std::uint64_t k = set_offsets_[i + 1]; k-- > set_offsets_[i];) {
      element_sets_[--element_offsets_[set_elements_[k]]] =
          static_cast<SetId>(i);
    }
  }
}

bool SetSystem::coverable() const {
  return std::adjacent_find(element_offsets_.begin(), element_offsets_.end(),
                            std::equal_to<>()) == element_offsets_.end();
}

SetSystem SetSystem::vertex_cover_instance(
    const graph::Graph& g, const std::vector<double>& vertex_weights) {
  MRLR_REQUIRE(vertex_weights.size() == g.num_vertices(),
               "one weight per vertex required");
  std::vector<std::uint64_t> offsets;
  offsets.reserve(g.num_vertices() + 1);
  offsets.push_back(0);
  std::vector<ElementId> edges;
  edges.reserve(2 * g.num_edges());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const graph::Incidence& inc : g.neighbours(v)) {
      edges.push_back(inc.edge);
    }
    offsets.push_back(edges.size());
  }
  return SetSystem(g.num_edges(), std::move(offsets), std::move(edges),
                   vertex_weights);
}

}  // namespace mrlr::setcover
