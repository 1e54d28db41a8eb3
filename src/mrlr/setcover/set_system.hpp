#pragma once
// Weighted set systems for the set cover problems (Sections 2 and 4).
//
// Notation follows the paper: n sets S_1..S_n over universe U = [m] with
// positive weights w_1..w_n. The *frequency* of element j is the number
// of sets containing it; f is the maximum frequency. Delta is the largest
// set size. The dual view T_j = { i : j in S_i } ("element incidence") is
// precomputed because both the f-approximation (which distributes the
// dual sets across machines, Theorem 2.4) and the validators need it.
//
// Layout: both views are CSR (compressed sparse rows), four exact-size
// arrays and no per-set allocation:
//   S_i = set_elements[set_offsets[i], set_offsets[i + 1])      (n + 1 offsets)
//   T_j = element_sets[element_offsets[j], element_offsets[j + 1])
//                                                                (m + 1 offsets)
// Every S_i is sorted ascending without repeats, and every T_j lists its
// set ids ascending, whatever order the input gave; set(i) and
// sets_containing(j) return spans into these arrays. One build
// canonicalises the sets in place (sorting only a set that is not
// already sorted) and fills the dual in two counting passes.

#include <cstdint>
#include <span>
#include <vector>

#include "mrlr/graph/graph.hpp"

namespace mrlr::setcover {

using SetId = std::uint32_t;
using ElementId = std::uint32_t;

class SetSystem {
 public:
  /// The one build. Set i is set_elements[set_offsets[i],
  /// set_offsets[i + 1]), in any order and with repeats allowed;
  /// set_offsets starts at 0 and ends at set_elements.size(). Empty
  /// `weights` means unit weights, else one positive weight per set.
  SetSystem(std::uint64_t universe_size,
            std::vector<std::uint64_t> set_offsets,
            std::vector<ElementId> set_elements, std::vector<double> weights);

  /// Flattens `sets` into the build above, with unit weights (for
  /// generators and brace-list literals).
  SetSystem(std::uint64_t universe_size,
            const std::vector<std::vector<ElementId>>& sets);

  /// As above with explicit positive weights (one per set).
  SetSystem(std::uint64_t universe_size,
            const std::vector<std::vector<ElementId>>& sets,
            std::vector<double> weights);

  std::uint64_t num_sets() const { return weights_.size(); }
  std::uint64_t universe_size() const { return m_; }

  std::span<const ElementId> set(SetId i) const {
    return {set_elements_.data() + set_offsets_[i],
            set_elements_.data() + set_offsets_[i + 1]};
  }
  double weight(SetId i) const { return weights_[i]; }
  const std::vector<double>& weights() const { return weights_; }

  /// Dual incidence T_j: ids of all sets containing element j, ascending.
  std::span<const SetId> sets_containing(ElementId j) const {
    return {element_sets_.data() + element_offsets_[j],
            element_sets_.data() + element_offsets_[j + 1]};
  }

  /// Maximum frequency f = max_j |T_j|.
  std::uint64_t max_frequency() const { return max_frequency_; }

  /// Delta = max_i |S_i|.
  std::uint64_t max_set_size() const { return max_set_size_; }

  /// Sum over all sets of |S_i| (the paper's Phi upper bound in Thm 4.5).
  std::uint64_t total_incidences() const { return set_elements_.size(); }

  double max_weight() const { return max_weight_; }
  double min_weight() const { return min_weight_; }

  /// True if every element belongs to at least one set (a cover exists).
  bool coverable() const;

  /// The weighted vertex cover instance of a graph: one set per vertex
  /// (covering its incident edges), universe = edges, f = 2.
  static SetSystem vertex_cover_instance(
      const graph::Graph& g, const std::vector<double>& vertex_weights);

 private:
  void build();

  std::uint64_t m_;
  std::vector<std::uint64_t> set_offsets_;
  std::vector<ElementId> set_elements_;
  std::vector<double> weights_;
  std::vector<std::uint64_t> element_offsets_;
  std::vector<SetId> element_sets_;
  std::uint64_t max_frequency_ = 0;
  std::uint64_t max_set_size_ = 0;
  double max_weight_ = 0.0;
  double min_weight_ = 0.0;
};

}  // namespace mrlr::setcover
