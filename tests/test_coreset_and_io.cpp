// Tests for the composable-coreset matching baseline and set system I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mrlr/baselines/coreset_matching.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/validate.hpp"
#include "mrlr/seq/exact_matching.hpp"
#include "mrlr/seq/greedy_matching.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/setcover/io.hpp"

namespace mrlr::baselines {
namespace {

core::MrParams bp(std::uint64_t seed, double mu = 0.25) {
  core::MrParams p;
  p.mu = mu;
  p.seed = seed;
  return p;
}

class CoresetSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(CoresetSweep, FeasibleTwoRoundsSpaceClean) {
  const auto [n, c, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 9176u + n);
  graph::Graph g = graph::gnm_density(n, c, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  const auto res = coreset_matching(g, bp(seed));
  EXPECT_TRUE(graph::is_matching(g, res.matching));
  EXPECT_EQ(res.outcome.rounds, 2u);  // the whole point: 2 rounds flat
  EXPECT_EQ(res.outcome.space_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoresetSweep,
    ::testing::Combine(::testing::Values(100, 400, 1000),
                       ::testing::Values(0.3, 0.5),
                       ::testing::Values(1, 2, 3)));

TEST(CoresetMatching, QualityReasonableVsGreedy) {
  Rng rng(4);
  graph::Graph g = graph::gnm(400, 6000, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kExponential, rng));
  const auto coreset = coreset_matching(g, bp(1));
  const auto greedy = seq::greedy_matching(g);
  // Each part's greedy keeps the locally heavy edges, so the union
  // contains a good matching; empirically close to global greedy.
  EXPECT_GE(coreset.weight, 0.7 * greedy.weight);
}

TEST(CoresetMatching, SinglePartEqualsGreedy) {
  Rng rng(5);
  graph::Graph g = graph::gnm(100, 800, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  const auto coreset = coreset_matching(g, bp(1), /*machines=*/1);
  const auto greedy = seq::greedy_matching(g);
  EXPECT_DOUBLE_EQ(coreset.weight, greedy.weight);
}

TEST(CoresetMatching, UnionSizeBoundedByPartsTimesMatching) {
  Rng rng(6);
  graph::Graph g = graph::gnm_density(500, 0.5, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  const std::uint64_t parts = 8;
  const auto res = coreset_matching(g, bp(2), parts);
  EXPECT_LE(res.coreset_union_size, parts * (g.num_vertices() / 2 + 1));
}

TEST(CoresetMatching, DeterministicForSeed) {
  Rng rng(7);
  graph::Graph g = graph::gnm(300, 3000, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  const auto a = coreset_matching(g, bp(9));
  const auto b = coreset_matching(g, bp(9));
  EXPECT_EQ(a.matching, b.matching);
}

}  // namespace
}  // namespace mrlr::baselines

namespace mrlr::setcover {
namespace {

/// Every set-system generator family, under each weight distribution
/// it takes: the inputs of the round-trip property below.
std::vector<std::pair<std::string, SetSystem>> generated_set_systems() {
  using graph::WeightDist;
  std::vector<std::pair<std::string, SetSystem>> out;
  std::uint64_t seed = 1;
  for (const auto& [dist, d] :
       {std::pair{WeightDist::kIntegral, "integral"},
        std::pair{WeightDist::kUniform, "uniform"},
        std::pair{WeightDist::kExponential, "exponential"},
        std::pair{WeightDist::kPolarized, "polarized"}}) {
    Rng rng(seed++);
    out.emplace_back(std::string("bounded_frequency/") + d,
                     bounded_frequency(15, 40, 3, dist, rng));
    out.emplace_back(std::string("many_sets/") + d,
                     many_sets(80, 30, 6, dist, rng));
  }
  Rng rng(seed);
  double planted_cost = 0.0;
  out.emplace_back("planted_cover",
                   planted_cover(6, 20, 50, rng, &planted_cost));
  return out;
}

TEST(SetSystemIo, RoundTrip) {
  // Weights are written in their shortest round-trip form, so every
  // generated system reads back bit-exactly (positive finite doubles
  // compare equal only when their bits do).
  for (const auto& [name, sys] : generated_set_systems()) {
    SCOPED_TRACE(name);
    std::stringstream ss;
    write_set_system(sys, ss);
    const SetSystem back = read_set_system(ss);
    ASSERT_EQ(back.num_sets(), sys.num_sets());
    ASSERT_EQ(back.universe_size(), sys.universe_size());
    for (SetId i = 0; i < sys.num_sets(); ++i) {
      EXPECT_EQ(back.weight(i), sys.weight(i)) << "set " << i;
      EXPECT_TRUE(std::equal(back.set(i).begin(), back.set(i).end(),
                             sys.set(i).begin(), sys.set(i).end()));
    }
  }
}

TEST(SetSystemIo, CommentsAndUnweighted) {
  std::stringstream ss("# instance\n2 3\n2 0 1\n# half\n1 2\n");
  const SetSystem sys = read_set_system(ss);
  EXPECT_EQ(sys.num_sets(), 2u);
  EXPECT_EQ(sys.universe_size(), 3u);
  EXPECT_DOUBLE_EQ(sys.weight(0), 1.0);
  EXPECT_EQ(sys.set(1).size(), 1u);
}

TEST(SetSystemIo, RejectsOutOfUniverse) {
  std::stringstream ss("1 2\n1 7\n");
  EXPECT_THROW((void)read_set_system(ss), ParseError);
}

TEST(SetSystemIo, RejectsGarbageHeader) {
  std::stringstream ss("sets universe\n");
  EXPECT_THROW((void)read_set_system(ss), ParseError);
}

TEST(SetSystemIo, RejectsShortRow) {
  std::stringstream ss("1 5\n3 0 1\n");
  EXPECT_THROW((void)read_set_system(ss), ParseError);
}

TEST(SetSystemIo, RejectsBadWeight) {
  std::stringstream ss("1 5 weighted\n-2.0 1 0\n");
  EXPECT_THROW((void)read_set_system(ss), ParseError);
}

TEST(SetSystemIo, WeightsParseLikeStreamExtraction) {
  std::vector<std::string> texts = {"+2.5", "1e3", "0.1", "3.", ".5",
                                    "1E-7", "4.9406564584124654e-324",
                                    "123456789012345678901234567890"};
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const double w = std::ldexp(rng.uniform_real(1.0, 2.0),
                                static_cast<int>(rng.uniform(120)) - 60);
    std::ostringstream os;
    os << std::setprecision(1 + static_cast<int>(rng.uniform(17))) << w;
    texts.push_back(os.str());
  }
  std::stringstream file;
  file << texts.size() << " 1 weighted\n";
  for (const std::string& t : texts) file << t << " 1 0\n";
  const SetSystem sys = read_set_system(file);
  ASSERT_EQ(sys.num_sets(), texts.size());
  for (SetId i = 0; i < sys.num_sets(); ++i) {
    std::istringstream is(texts[i]);
    double expected = 0.0;
    ASSERT_TRUE(is >> expected) << texts[i];
    EXPECT_EQ(sys.weight(i), expected) << texts[i];
  }
}

TEST(SetSystemIo, AdversarialCountsFailAsParseError) {
  // Huge (or negative-wrapped) counts must surface as ParseError from
  // the truncation checks, not std::length_error out of reserve.
  std::stringstream huge_n("1152921504606846976 5\n");
  EXPECT_THROW((void)read_set_system(huge_n), ParseError);
  std::stringstream neg_n("-1 5\n");
  EXPECT_THROW((void)read_set_system(neg_n), ParseError);
  std::stringstream huge_k("1 5\n1000000000000000000 0 1\n");
  EXPECT_THROW((void)read_set_system(huge_k), ParseError);
}

}  // namespace
}  // namespace mrlr::setcover
