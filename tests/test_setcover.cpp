// Tests for the set cover substrate: set systems, generators, validators,
// and the exact small-instance solvers.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "mrlr/graph/generators.hpp"
#include "mrlr/setcover/exact.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/setcover/set_system.hpp"
#include "mrlr/setcover/validate.hpp"

namespace mrlr::setcover {
namespace {

SetSystem tiny() {
  // Universe {0,1,2,3}; S0={0,1} w=1, S1={1,2} w=1, S2={2,3} w=1,
  // S3={0,1,2,3} w=2.5.
  return SetSystem(4, {{0, 1}, {1, 2}, {2, 3}, {0, 1, 2, 3}},
                   {1.0, 1.0, 1.0, 2.5});
}

// ------------------------------------------------------------ SetSystem --

TEST(SetSystem, BasicAccessors) {
  const SetSystem s = tiny();
  EXPECT_EQ(s.num_sets(), 4u);
  EXPECT_EQ(s.universe_size(), 4u);
  EXPECT_EQ(s.max_set_size(), 4u);
  EXPECT_EQ(s.total_incidences(), 10u);
  EXPECT_DOUBLE_EQ(s.max_weight(), 2.5);
  EXPECT_DOUBLE_EQ(s.min_weight(), 1.0);
  EXPECT_TRUE(s.coverable());
}

TEST(SetSystem, DualIncidence) {
  const SetSystem s = tiny();
  // Element 1 is in S0, S1, S3.
  const auto t1 = s.sets_containing(1);
  EXPECT_EQ(std::vector<SetId>(t1.begin(), t1.end()),
            (std::vector<SetId>{0, 1, 3}));
  EXPECT_EQ(s.max_frequency(), 3u);
}

TEST(SetSystem, DefaultUnitWeights) {
  SetSystem s(2, {{0}, {1}});
  EXPECT_DOUBLE_EQ(s.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(s.weight(1), 1.0);
}

TEST(SetSystem, DeduplicatesElements) {
  SetSystem s(3, {{0, 0, 1, 1, 2}});
  EXPECT_EQ(s.set(0).size(), 3u);
}

TEST(SetSystem, UncoverableDetected) {
  SetSystem s(3, {{0}, {1}});
  EXPECT_FALSE(s.coverable());
}

TEST(SetSystem, RejectsNonPositiveWeight) {
  EXPECT_DEATH(SetSystem(1, {{0}}, {0.0}), "positive");
}

TEST(SetSystem, RejectsOutOfUniverseElement) {
  EXPECT_DEATH(SetSystem(2, {{5}}), "outside");
}

TEST(SetSystem, VertexCoverInstance) {
  // Triangle: each vertex covers its two incident edges; f = 2.
  const graph::Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  const SetSystem s =
      SetSystem::vertex_cover_instance(g, {1.0, 2.0, 3.0});
  EXPECT_EQ(s.num_sets(), 3u);
  EXPECT_EQ(s.universe_size(), 3u);
  EXPECT_EQ(s.max_frequency(), 2u);
  EXPECT_EQ(s.set(0).size(), 2u);
  EXPECT_DOUBLE_EQ(s.weight(2), 3.0);
}

// ------------------------------------------------------- CSR invariants --

/// Checks every set is sorted and unique, and that the dual and the
/// summary statistics agree with a brute-force dual built from set(i).
void expect_csr_invariants(const SetSystem& s) {
  std::vector<std::vector<SetId>> dual(s.universe_size());
  std::uint64_t total = 0;
  std::uint64_t delta = 0;
  for (SetId i = 0; i < s.num_sets(); ++i) {
    const auto set = s.set(i);
    EXPECT_EQ(std::adjacent_find(set.begin(), set.end(),
                                 std::greater_equal<>()),
              set.end())
        << "set " << i << " is not strictly ascending";
    for (const ElementId j : set) {
      ASSERT_LT(j, s.universe_size());
      dual[j].push_back(i);
    }
    total += set.size();
    delta = std::max<std::uint64_t>(delta, set.size());
  }
  std::uint64_t f = 0;
  bool coverable = true;
  for (ElementId j = 0; j < s.universe_size(); ++j) {
    const auto t = s.sets_containing(j);
    EXPECT_EQ(std::vector<SetId>(t.begin(), t.end()), dual[j])
        << "element " << j;
    f = std::max<std::uint64_t>(f, dual[j].size());
    coverable = coverable && !dual[j].empty();
  }
  EXPECT_EQ(s.max_frequency(), f);
  EXPECT_EQ(s.max_set_size(), delta);
  EXPECT_EQ(s.total_incidences(), total);
  EXPECT_EQ(s.coverable(), coverable);
}

std::vector<ElementId> elements_of(const SetSystem& s, SetId i) {
  return {s.set(i).begin(), s.set(i).end()};
}

TEST(SetSystemCsr, GeneratorsKeepInvariants) {
  Rng rng(11);
  for (const auto dist :
       {graph::WeightDist::kUniform, graph::WeightDist::kPolarized}) {
    expect_csr_invariants(bounded_frequency(30, 90, 4, dist, rng));
    expect_csr_invariants(many_sets(120, 35, 9, dist, rng));
  }
  expect_csr_invariants(planted_cover(6, 25, 70, rng, nullptr));
  const graph::Graph g = graph::gnm(40, 150, rng);
  expect_csr_invariants(SetSystem::vertex_cover_instance(
      g, std::vector<double>(g.num_vertices(), 1.0)));
}

TEST(SetSystemCsr, CanonicalisesUnsortedDuplicatedAndEmptySets) {
  const SetSystem s(6, {{4, 1, 1, 3}, {}, {0, 0}, {2, 5, 0, 5, 2}, {}});
  expect_csr_invariants(s);
  EXPECT_EQ(elements_of(s, 0), (std::vector<ElementId>{1, 3, 4}));
  EXPECT_TRUE(s.set(1).empty());
  EXPECT_EQ(elements_of(s, 2), (std::vector<ElementId>{0}));
  EXPECT_EQ(elements_of(s, 3), (std::vector<ElementId>{0, 2, 5}));
  EXPECT_TRUE(s.set(4).empty());
  EXPECT_EQ(s.total_incidences(), 7u);
  EXPECT_EQ(s.max_frequency(), 2u);
  EXPECT_EQ(s.max_set_size(), 3u);
  EXPECT_TRUE(s.coverable());
}

TEST(SetSystemCsr, FlatInputMatchesNestedInput) {
  // Sets {3, 1, 3}, {}, {2, 0}, given as offsets plus elements.
  const SetSystem flat(4, {0, 3, 3, 5}, {3, 1, 3, 2, 0}, {2.0, 1.0, 3.0});
  const SetSystem nested(4, {{3, 1, 3}, {}, {2, 0}}, {2.0, 1.0, 3.0});
  expect_csr_invariants(flat);
  ASSERT_EQ(flat.num_sets(), nested.num_sets());
  for (SetId i = 0; i < flat.num_sets(); ++i) {
    EXPECT_EQ(elements_of(flat, i), elements_of(nested, i));
    EXPECT_EQ(flat.weight(i), nested.weight(i));
  }
  EXPECT_EQ(elements_of(flat, 0), (std::vector<ElementId>{1, 3}));
}

TEST(SetSystemCsr, EmptyUniverse) {
  for (const SetSystem& s : {SetSystem(0, std::vector<std::vector<ElementId>>{}),
                             SetSystem(0, {{}, {}})}) {
    expect_csr_invariants(s);
    EXPECT_EQ(s.max_frequency(), 0u);
    EXPECT_EQ(s.max_set_size(), 0u);
    EXPECT_EQ(s.total_incidences(), 0u);
    EXPECT_TRUE(s.coverable());
  }
}

TEST(SetSystemCsr, RejectsMalformedOffsets) {
  EXPECT_DEATH(SetSystem(4, {0, 2}, {1, 2, 3}, {}), "offsets");
  EXPECT_DEATH(SetSystem(4, {0, 3, 2, 3}, {1, 2, 3}, {}), "offsets");
}

// ----------------------------------------------------------- generators --

TEST(Generators, BoundedFrequencyRespectsF) {
  Rng rng(1);
  for (std::uint64_t f : {1ull, 2ull, 3ull, 5ull}) {
    const SetSystem s =
        bounded_frequency(20, 60, f, graph::WeightDist::kUniform, rng);
    EXPECT_EQ(s.max_frequency(), f);
    EXPECT_TRUE(s.coverable());
    EXPECT_EQ(s.universe_size(), 60u);
  }
}

TEST(Generators, ManySetsCoverable) {
  Rng rng(2);
  const SetSystem s =
      many_sets(200, 40, 8, graph::WeightDist::kExponential, rng);
  EXPECT_EQ(s.num_sets(), 200u);
  EXPECT_TRUE(s.coverable());
  EXPECT_LE(s.max_set_size(), 8u);
}

TEST(Generators, PlantedCoverIsACover) {
  Rng rng(3);
  double planted = 0.0;
  const SetSystem s = planted_cover(5, 20, 50, rng, &planted);
  EXPECT_EQ(s.num_sets(), 25u);
  EXPECT_TRUE(s.coverable());
  EXPECT_GT(planted, 0.0);
  // The first 5 sets partition the universe.
  std::vector<SetId> first{0, 1, 2, 3, 4};
  EXPECT_TRUE(is_cover(s, first));
  EXPECT_NEAR(cover_weight(s, first), planted, 1e-9);
  // Decoys are deliberately expensive: each decoy alone outweighs the
  // whole planted cover.
  for (SetId d = 5; d < s.num_sets(); ++d) {
    EXPECT_GT(s.weight(d), planted / 5.0);
  }
}

// ----------------------------------------------------------- validators --

TEST(Validate, IsCover) {
  const SetSystem s = tiny();
  EXPECT_TRUE(is_cover(s, {0, 2}));
  EXPECT_TRUE(is_cover(s, {3}));
  EXPECT_FALSE(is_cover(s, {0, 1}));
  EXPECT_FALSE(is_cover(s, {}));
}

TEST(Validate, CoverWeightDeduplicates) {
  const SetSystem s = tiny();
  EXPECT_DOUBLE_EQ(cover_weight(s, {0, 0, 2}), 2.0);
}

TEST(Validate, MinimalCover) {
  const SetSystem s = tiny();
  EXPECT_TRUE(is_minimal_cover(s, {0, 2}));
  EXPECT_FALSE(is_minimal_cover(s, {0, 2, 3}));  // 3 redundant
  EXPECT_FALSE(is_minimal_cover(s, {0, 1}));     // not a cover
}

TEST(Validate, PruneCoverRemovesRedundancy) {
  const SetSystem s = tiny();
  auto pruned = prune_cover(s, {0, 1, 2, 3});
  EXPECT_TRUE(is_cover(s, pruned));
  EXPECT_TRUE(is_minimal_cover(s, pruned));
  EXPECT_LT(cover_weight(s, pruned), cover_weight(s, {0, 1, 2, 3}));
}

// ---------------------------------------------------------------- exact --

TEST(Exact, TinyInstance) {
  const SetSystem s = tiny();
  const auto w = exact_min_cover_weight(s);
  ASSERT_TRUE(w.has_value());
  EXPECT_DOUBLE_EQ(*w, 2.0);  // {S0, S2}
  const auto cover = exact_min_cover(s);
  ASSERT_TRUE(cover.has_value());
  EXPECT_TRUE(is_cover(s, cover->sets));
  EXPECT_NEAR(cover_weight(s, cover->sets), 2.0, 1e-9);
}

TEST(Exact, ExpensiveSingletonVsCheapBig) {
  SetSystem s(3, {{0, 1, 2}, {0}, {1}, {2}}, {10.0, 1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(*exact_min_cover_weight(s), 3.0);
}

TEST(Exact, UncoverableReturnsNullopt) {
  SetSystem s(2, {{0}});
  EXPECT_FALSE(exact_min_cover_weight(s).has_value());
}

TEST(Exact, EmptyUniverse) {
  SetSystem s(0, {});
  EXPECT_DOUBLE_EQ(*exact_min_cover_weight(s), 0.0);
}

TEST(Exact, AgreesWithBruteForceOnRandomInstances) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const SetSystem s = bounded_frequency(
        6, 10, 3, graph::WeightDist::kIntegral, rng);
    const auto dp = exact_min_cover_weight(s);
    ASSERT_TRUE(dp.has_value());
    // Brute force over all 2^6 subsets.
    double best = 1e18;
    for (std::uint32_t mask = 0; mask < 64; ++mask) {
      std::vector<SetId> chosen;
      for (std::uint32_t i = 0; i < 6; ++i) {
        if ((mask >> i) & 1) chosen.push_back(i);
      }
      if (is_cover(s, chosen)) best = std::min(best, cover_weight(s, chosen));
    }
    EXPECT_NEAR(*dp, best, 1e-9);
  }
}

TEST(Exact, VertexCoverBruteForce) {
  // Path 0-1-2: min weight cover with weights {5, 1, 5} is {1}... but
  // vertex 1 covers both edges, so OPT = 1.
  const graph::Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_DOUBLE_EQ(exact_min_vertex_cover_weight(g, {5, 1, 5}), 1.0);
  // With weights {1, 10, 1}, picking both endpoints is cheaper.
  EXPECT_DOUBLE_EQ(exact_min_vertex_cover_weight(g, {1, 10, 1}), 2.0);
}

TEST(Exact, VertexCoverMatchesSetCoverDp) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const graph::Graph g = graph::gnm(8, 12, rng);
    const auto weights =
        graph::random_vertex_weights(8, graph::WeightDist::kIntegral, rng);
    const SetSystem s = SetSystem::vertex_cover_instance(g, weights);
    const auto dp = exact_min_cover_weight(s);
    ASSERT_TRUE(dp.has_value());
    EXPECT_NEAR(*dp, exact_min_vertex_cover_weight(g, weights), 1e-9);
  }
}

}  // namespace
}  // namespace mrlr::setcover
