// Tests for the paper's MapReduce set cover algorithms: Algorithm 1
// (randomized local ratio, Theorems 2.3/2.4) and Algorithm 3
// (hungry-greedy epsilon-greedy, Theorems 4.5/4.6).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "mrlr/core/greedy_setcover_mr.hpp"
#include "mrlr/core/rlr_setcover.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/validate.hpp"
#include "mrlr/seq/greedy_setcover.hpp"
#include "mrlr/setcover/exact.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/setcover/validate.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/mix64.hpp"

namespace mrlr::core {
namespace {

using setcover::SetSystem;

MrParams test_params(std::uint64_t seed = 1, double mu = 0.25) {
  MrParams p;
  p.mu = mu;
  p.seed = seed;
  p.max_iterations = 500;
  return p;
}

// ------------------------------------------------- Algorithm 1 (RLR) --

TEST(RlrSetCover, CoversTinyInstance) {
  const SetSystem s(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}},
                    {1.0, 2.0, 1.0, 2.0});
  const auto res = rlr_set_cover(s, test_params());
  EXPECT_FALSE(res.outcome.failed);
  EXPECT_TRUE(setcover::is_cover(s, res.cover));
  EXPECT_LE(res.weight,
            static_cast<double>(s.max_frequency()) * res.lower_bound + 1e-9);
}

class RlrSetCoverSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(RlrSetCoverSweep, FApproximationAndFeasibility) {
  const auto [num_sets, universe, f, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u);
  const SetSystem s = setcover::bounded_frequency(
      num_sets, universe, f, graph::WeightDist::kIntegral, rng);
  const auto res = rlr_set_cover(s, test_params(seed));
  ASSERT_FALSE(res.outcome.failed);
  ASSERT_TRUE(setcover::is_cover(s, res.cover));
  // Worst-case guarantee against the local ratio certificate.
  EXPECT_LE(res.weight,
            static_cast<double>(s.max_frequency()) * res.lower_bound + 1e-9);
  EXPECT_EQ(res.outcome.space_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RlrSetCoverSweep,
    ::testing::Combine(::testing::Values(40, 120), ::testing::Values(200, 800),
                       ::testing::Values(2, 3, 5),
                       ::testing::Values(1, 2, 3)));

TEST(RlrSetCover, MatchesGuaranteeAgainstExactOpt) {
  Rng rng(5);
  for (int t = 0; t < 8; ++t) {
    const SetSystem s = setcover::bounded_frequency(
        12, 18, 3, graph::WeightDist::kUniform, rng);
    const auto res = rlr_set_cover(s, test_params(t + 1));
    ASSERT_FALSE(res.outcome.failed);
    ASSERT_TRUE(setcover::is_cover(s, res.cover));
    const auto opt = setcover::exact_min_cover_weight(s);
    ASSERT_TRUE(opt.has_value());
    EXPECT_LE(res.weight,
              static_cast<double>(s.max_frequency()) * (*opt) + 1e-9);
    EXPECT_LE(res.lower_bound, *opt + 1e-9);
  }
}

TEST(RlrSetCover, DeterministicForSeed) {
  Rng rng(6);
  const SetSystem s = setcover::bounded_frequency(
      60, 400, 3, graph::WeightDist::kUniform, rng);
  const auto a = rlr_set_cover(s, test_params(42));
  const auto b = rlr_set_cover(s, test_params(42));
  EXPECT_EQ(a.cover, b.cover);
  EXPECT_EQ(a.outcome.rounds, b.outcome.rounds);
}

TEST(RlrSetCover, DifferentSeedsBothValid) {
  Rng rng(7);
  const SetSystem s = setcover::bounded_frequency(
      60, 400, 2, graph::WeightDist::kUniform, rng);
  const auto a = rlr_set_cover(s, test_params(1));
  const auto b = rlr_set_cover(s, test_params(2));
  EXPECT_TRUE(setcover::is_cover(s, a.cover));
  EXPECT_TRUE(setcover::is_cover(s, b.cover));
}

TEST(RlrSetCover, FewIterationsWhenSampleCoversAll) {
  // Universe smaller than eta: p = 1 immediately, so the algorithm must
  // finish in one local ratio iteration.
  Rng rng(8);
  const SetSystem s = setcover::bounded_frequency(
      30, 50, 2, graph::WeightDist::kUniform, rng);
  const auto res = rlr_set_cover(s, test_params(1, /*mu=*/0.5));
  EXPECT_FALSE(res.outcome.failed);
  EXPECT_LE(res.outcome.iterations, 2u);
}

// --------------------------------- f = 2 vertex cover specialization --

class RlrVertexCoverSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(RlrVertexCoverSweep, TwoApproximationAndFeasibility) {
  const auto [n, c, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 40503u + n);
  const graph::Graph g = graph::gnm_density(n, c, rng);
  const auto weights =
      graph::random_vertex_weights(n, graph::WeightDist::kUniform, rng);
  const auto res = rlr_vertex_cover(g, weights, test_params(seed));
  ASSERT_FALSE(res.outcome.failed);
  ASSERT_TRUE(graph::is_vertex_cover(g, res.cover));
  EXPECT_LE(res.weight, 2.0 * res.lower_bound + 1e-9);
  EXPECT_EQ(res.outcome.space_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RlrVertexCoverSweep,
    ::testing::Combine(::testing::Values(50, 150, 400),
                       ::testing::Values(0.2, 0.35, 0.5),
                       ::testing::Values(1, 2)));

TEST(RlrVertexCover, TwoApproxAgainstExactOpt) {
  Rng rng(9);
  for (int t = 0; t < 6; ++t) {
    const graph::Graph g = graph::gnm(12, 30, rng);
    const auto weights =
        graph::random_vertex_weights(12, graph::WeightDist::kIntegral, rng);
    const auto res = rlr_vertex_cover(g, weights, test_params(t + 1));
    ASSERT_FALSE(res.outcome.failed);
    ASSERT_TRUE(graph::is_vertex_cover(g, res.cover));
    const double opt = setcover::exact_min_vertex_cover_weight(g, weights);
    EXPECT_LE(res.weight, 2.0 * opt + 1e-9);
  }
}

TEST(RlrVertexCover, StarWithCheapHub) {
  // Star where the hub is cheap: the 2-approximation must pick the hub,
  // never the expensive leaves (leaf weights alone exceed 2*OPT).
  const graph::Graph g = graph::star(50);
  std::vector<double> w(50, 1000.0);
  w[0] = 1.0;
  const auto res = rlr_vertex_cover(g, w, test_params(3));
  ASSERT_TRUE(graph::is_vertex_cover(g, res.cover));
  EXPECT_LE(res.weight, 2.0 + 1e-9);
}

TEST(RlrVertexCover, RoundsGrowGentlyWithDensity) {
  // O(c/mu) iterations: doubling c should not explode the iteration
  // count. Loose factor-of-five check on a fixed n.
  Rng rng(10);
  const graph::Graph sparse = graph::gnm_density(300, 0.2, rng);
  const graph::Graph dense = graph::gnm_density(300, 0.5, rng);
  const auto ws =
      graph::random_vertex_weights(300, graph::WeightDist::kUniform, rng);
  const auto rs = rlr_vertex_cover(sparse, ws, test_params(1));
  const auto rd = rlr_vertex_cover(dense, ws, test_params(1));
  ASSERT_FALSE(rs.outcome.failed);
  ASSERT_FALSE(rd.outcome.failed);
  EXPECT_LE(rd.outcome.iterations,
            5 * std::max<std::uint64_t>(rs.outcome.iterations, 1));
}

// ------------------------------------------ pinned Algorithm 1 results --

// One pinned set cover run: a bounded-frequency system and the knobs.
// The 3000-element systems spread over several machines at every mu and
// take several iterations; at sample_boost 0.1 the tiny systems' fail
// line fires on some seeds.
struct SetCoverPin {
  std::uint64_t sets, universe, f;
  double mu, boost;
  std::uint64_t seed;
};

std::vector<SetCoverPin> set_cover_pins() {
  std::vector<SetCoverPin> cases;
  for (const std::uint64_t f : {2, 3, 4}) {
    for (const double mu : {0.1, 0.25, 0.4}) {
      for (const double boost : {1.0, 0.1}) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
          cases.push_back({200, 3000, f, mu, boost, seed});
        }
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    cases.push_back({3, 400, 2, 0.1, 0.1, seed});
  }
  return cases;
}

// One pinned vertex cover run: gnm_density(n, c) with uniform weights.
// At sample_boost 0.1 the sample is small, so the largest machine is an
// edge owner, and its charged footprint (adjacency lists included)
// shows in the pinned words.
struct VertexCoverPin {
  std::uint64_t n;
  double c, mu, boost;
  std::uint64_t seed;
};

std::vector<VertexCoverPin> vertex_cover_pins() {
  std::vector<VertexCoverPin> cases;
  for (const std::uint64_t n : {300, 800}) {
    for (const double c : {0.3, 0.5}) {
      for (const double mu : {0.0, 0.1, 0.2}) {
        for (const double boost : {1.0, 0.1}) {
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            cases.push_back({n, c, mu, boost, seed});
          }
        }
      }
    }
  }
  return cases;
}

template <typename Id>
std::string cover_fingerprint(const std::vector<Id>& cover, double weight,
                              double lower_bound, const MrOutcome& o) {
  std::uint64_t h = mix64(cover.size());
  for (const Id i : cover) h = mix64(h ^ i);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "sol=%016llx weight=%016llx lb=%016llx iters=%llu fail=%d "
                "rounds=%llu words=%llu central=%llu comm=%llu",
                static_cast<unsigned long long>(h),
                static_cast<unsigned long long>(pack_double(weight)),
                static_cast<unsigned long long>(pack_double(lower_bound)),
                static_cast<unsigned long long>(o.iterations),
                o.failed ? 1 : 0,
                static_cast<unsigned long long>(o.rounds),
                static_cast<unsigned long long>(o.max_machine_words),
                static_cast<unsigned long long>(o.max_central_inbox),
                static_cast<unsigned long long>(o.total_communication));
  return buf;
}

std::string run_set_cover_pin(const SetCoverPin& c, std::uint64_t shards) {
  Rng rng(c.seed * 1000003u + c.sets * 31u + c.f);
  const SetSystem s = setcover::bounded_frequency(
      c.sets, c.universe, c.f, graph::WeightDist::kUniform, rng);
  MrParams p = test_params(c.seed, c.mu);
  p.sample_boost = c.boost;
  p.num_shards = shards;
  const auto r = rlr_set_cover(s, p);
  if (!r.outcome.failed) {
    EXPECT_TRUE(setcover::is_cover(s, r.cover));
  }
  return cover_fingerprint(r.cover, r.weight, r.lower_bound, r.outcome);
}

std::string run_vertex_cover_pin(const VertexCoverPin& c,
                                 std::uint64_t shards) {
  Rng rng(c.seed * 40503u + c.n);
  const graph::Graph g = graph::gnm_density(c.n, c.c, rng);
  const auto weights =
      graph::random_vertex_weights(c.n, graph::WeightDist::kUniform, rng);
  MrParams p = test_params(c.seed, c.mu);
  p.sample_boost = c.boost;
  p.num_shards = shards;
  const auto r = rlr_vertex_cover(g, weights, p);
  if (!r.outcome.failed) {
    EXPECT_TRUE(graph::is_vertex_cover(g, r.cover));
  }
  return cover_fingerprint(r.cover, r.weight, r.lower_bound, r.outcome);
}

// Captured before the set cover and vertex cover drivers shared one
// loop: covers, certificates, iterations, the fail line, rounds and
// every traffic total must not depend on how the loop is written.
const std::vector<std::string> kSetCoverWant = {
    "sol=34c8759035e20d60 weight=40c50c975d3cad90 lb=40c0d9b864df457b "
    "iters=2 fail=0 rounds=18 words=2677 central=2475 comm=6026",
    "sol=65545a4adb64a3c2 weight=40c4b491a48c2bec lb=40c08209261ad950 "
    "iters=2 fail=0 rounds=18 words=2561 central=2359 comm=6141",
    "sol=b4b6fdca2494a797 weight=40c50c975d3cad8f lb=40c143563d7673fd "
    "iters=5 fail=0 rounds=42 words=1173 central=274 comm=4335",
    "sol=1e2a0518d4ce19e2 weight=40c4b491a48c2bea lb=40c10b78b3f3ae95 "
    "iters=5 fail=0 rounds=42 words=1166 central=274 comm=4409",
    "sol=058dc02f193729ad weight=40c50c975d3cad92 lb=40c0e37a11c873c9 "
    "iters=1 fail=0 rounds=8 words=5564 central=5362 comm=5970",
    "sol=bd3340bc0d207f67 weight=40c4b491a48c2bf0 lb=40c108c6443c0491 "
    "iters=2 fail=0 rounds=14 words=5440 central=5238 comm=5871",
    "sol=4f2921bef766b608 weight=40c50c975d3cad91 lb=40c0e5ab08eedd52 "
    "iters=3 fail=0 rounds=20 words=2636 central=591 comm=2104",
    "sol=e51dce759244516e weight=40c4b491a48c2bec lb=40c137bd481a62f7 "
    "iters=3 fail=0 rounds=20 words=2636 central=504 comm=2042",
    "sol=4ecfc73d88b130a4 weight=40c50c975d3cad8c lb=40c151b378a186ac "
    "iters=1 fail=0 rounds=8 words=10674 central=10472 comm=10676",
    "sol=e0b03a72bfd4a091 weight=40c4b491a48c2bed lb=40c0827217a38a4e "
    "iters=1 fail=0 rounds=8 words=10655 central=10453 comm=10657",
    "sol=40bf37e6c6184367 weight=40c50c975d3cad8c lb=40c0a50b1270a7c9 "
    "iters=2 fail=0 rounds=14 words=5241 central=1217 comm=2505",
    "sol=d835cce909d3fba2 weight=40c4b491a48c2beb lb=40c0d34e16392647 "
    "iters=2 fail=0 rounds=14 words=5245 central=1221 comm=2486",
    "sol=3e536c0c3de40bab weight=40c4bb0832ca2e31 lb=40bcbb2efd7736ad "
    "iters=2 fail=0 rounds=18 words=3052 central=2850 comm=6582",
    "sol=6fe77348ff253baf weight=40c3775091a2acb7 lb=40be5d06b5a18732 "
    "iters=2 fail=0 rounds=18 words=2882 central=2680 comm=6299",
    "sol=7b644105416c13ac weight=40c4bb0832ca2e2b lb=40be47de20a5d918 "
    "iters=5 fail=0 rounds=42 words=1361 central=313 comm=4387",
    "sol=be28af1fa56186c4 weight=40c3775091a2acb9 lb=40bb12d7c41fdc3b "
    "iters=5 fail=0 rounds=42 words=1363 central=313 comm=4462",
    "sol=bbe3f1c6ce941904 weight=40c4bb0832ca2e2e lb=40bc9cab2e5b52fc "
    "iters=2 fail=0 rounds=14 words=6365 central=6163 comm=6841",
    "sol=078113f53271b94c weight=40c3775091a2acb9 lb=40bcc41e1e5cf082 "
    "iters=2 fail=0 rounds=14 words=6255 central=6053 comm=6698",
    "sol=222112d4d12c75bb weight=40c4bb0832ca2e31 lb=40bcbf064f83e9bb "
    "iters=4 fail=0 rounds=26 words=3031 central=688 comm=2369",
    "sol=6ea0b75702925c68 weight=40c3775091a2acb9 lb=40bce403152dfe24 "
    "iters=4 fail=0 rounds=26 words=3017 central=580 comm=2278",
    "sol=125f16988d39d330 weight=40c4bb0832ca2e2e lb=40bbe96f2187c621 "
    "iters=1 fail=0 rounds=8 words=12225 central=12023 comm=12227",
    "sol=8e72d6f00abe5b37 weight=40c3775091a2acb9 lb=40bcd6f84a044549 "
    "iters=1 fail=0 rounds=8 words=12214 central=12012 comm=12216",
    "sol=ec64359aa3714396 weight=40c4bb0832ca2e30 lb=40bb7a8e04b9fa5b "
    "iters=2 fail=0 rounds=14 words=6045 central=1412 comm=2691",
    "sol=996018d8f03c2257 weight=40c3775091a2acb8 lb=40bb35f7eab6387a "
    "iters=3 fail=0 rounds=20 words=6012 central=1377 comm=2723",
    "sol=41d9930a18b8de5d weight=40c395a55d407d45 lb=40baf908717943c0 "
    "iters=2 fail=0 rounds=18 words=3420 central=3218 comm=6948",
    "sol=c2b28b9eb39a5574 weight=40c466ff5265d98d lb=40b953a02d9e7899 "
    "iters=2 fail=0 rounds=18 words=3274 central=3072 comm=6896",
    "sol=850eeaa8a0d38455 weight=40c401eef75c04e3 lb=40b9d4d324b2aac7 "
    "iters=5 fail=0 rounds=42 words=1523 central=361 comm=4446",
    "sol=3d837db9a633c8d7 weight=40c43915ac9d6226 lb=40b9917e33a7fa51 "
    "iters=5 fail=0 rounds=42 words=1548 central=336 comm=4598",
    "sol=9a0e64ac615b090a weight=40c3b5052e525013 lb=40bb02c7a09ac594 "
    "iters=2 fail=0 rounds=14 words=7082 central=6880 comm=7540",
    "sol=34aa48e933fcb25e weight=40c44ebaa6010737 lb=40bbd4ff3585b997 "
    "iters=2 fail=0 rounds=14 words=6971 central=6769 comm=7453",
    "sol=734c1af8d2dcdb72 weight=40c3c11a4b153eae lb=40b96bdad576b019 "
    "iters=3 fail=0 rounds=20 words=3395 central=776 comm=2337",
    "sol=bf7bb2b018937443 weight=40c466ff5265d98c lb=40bba44a470cf099 "
    "iters=3 fail=0 rounds=20 words=3402 central=662 comm=2319",
    "sol=2fcf20595629842f weight=40c3e7080f72fe86 lb=40ba2cd52839b120 "
    "iters=1 fail=0 rounds=8 words=13685 central=13483 comm=13685",
    "sol=b468bde26fc8b795 weight=40c45777636fe336 lb=40bb3d2574e1658f "
    "iters=1 fail=0 rounds=8 words=13691 central=13489 comm=13692",
    "sol=77abd9cb48cc4392 weight=40c395a55d407d43 lb=40bb73b475b2d97e "
    "iters=2 fail=0 rounds=14 words=6771 central=1534 comm=2930",
    "sol=0ccf01d4fe60c680 weight=40c43f32b70b10e0 lb=40bb24dedcc82a34 "
    "iters=3 fail=0 rounds=20 words=6750 central=1563 comm=2942",
    "sol=0000000000000000 weight=0000000000000000 lb=0000000000000000 "
    "iters=1 fail=1 rounds=3 words=135 central=134 comm=141",
    "sol=9b75ea0ed71828dd weight=4068244c673b349c lb=405c2627df2a6326 "
    "iters=13 fail=0 rounds=158 words=135 central=134 comm=3006",
    "sol=61e1eb28be4504d8 weight=4061124d8244ce3a lb=405f76d9565d2b13 "
    "iters=8 fail=0 rounds=98 words=135 central=134 comm=2335",
    "sol=7ab40e090f363a7d weight=4040a2e18ed7c939 lb=4040a2e18ed7c939 "
    "iters=2 fail=1 rounds=15 words=135 central=134 comm=651",
    "sol=0000000000000000 weight=0000000000000000 lb=0000000000000000 "
    "iters=4 fail=1 rounds=39 words=135 central=134 comm=547",
    "sol=9b75ea0ed71828dd weight=406225011a6e797a lb=40601424868c2c42 "
    "iters=7 fail=0 rounds=86 words=135 central=134 comm=2201",
};

const std::vector<std::string> kVertexCoverWant = {
    "sol=be70e5d0e7cdb891 weight=40c71eaf0e7697b5 lb=40ba68fbcb13230e "
    "iters=2 fail=0 rounds=16 words=2249 central=1947 comm=5390",
    "sol=a4a76af441575c28 weight=40c6503d7bb1ee00 lb=40b92f3d27a650bc "
    "iters=2 fail=0 rounds=16 words=2099 central=1797 comm=5303",
    "sol=0d181d3821114cf0 weight=40c84716e1a24a15 lb=40bba55a5cde1a94 "
    "iters=2 fail=0 rounds=16 words=2159 central=1857 comm=5385",
    "sol=6f95d925074b5fbc weight=40c7d2d07f057e54 lb=40baead8c8015b84 "
    "iters=6 fail=0 rounds=44 words=1735 central=198 comm=4259",
    "sol=e2f59d2fa6e60c29 weight=40c67970f8a71dfe lb=40b99db1a572ddb5 "
    "iters=6 fail=0 rounds=44 words=1734 central=258 comm=4257",
    "sol=3f231a77e6001e9d weight=40c877e46968288a lb=40bb9b6a7b79f9b4 "
    "iters=6 fail=0 rounds=44 words=1735 central=213 comm=4226",
    "sol=7278e46a126c3a20 weight=40c7a734488e7cf6 lb=40bae8473f63b089 "
    "iters=2 fail=0 rounds=16 words=3515 central=3213 comm=6444",
    "sol=1e1157b9882c3839 weight=40c6b7a8b860aa31 lb=40b9c864e01c6f5e "
    "iters=2 fail=0 rounds=16 words=3494 central=3192 comm=6435",
    "sol=04c4b88f3f5fcb0a weight=40c8eacc0897f2b5 lb=40bbee4b4d65e9bd "
    "iters=2 fail=0 rounds=16 words=3515 central=3213 comm=6503",
    "sol=2331170eedb1d1ca weight=40c85c13df32d7c5 lb=40bb671ca607c3dc "
    "iters=4 fail=0 rounds=30 words=2579 central=381 comm=4365",
    "sol=d7d4b7f3c001c9a6 weight=40c7bc42178259f2 lb=40ba4da8c9c1665b "
    "iters=4 fail=0 rounds=30 words=2610 central=390 comm=4534",
    "sol=78a32337cbe8c55c weight=40c833bfffe02ff4 lb=40bc1a938807d4d3 "
    "iters=4 fail=0 rounds=30 words=2584 central=321 comm=4267",
    "sol=eeb28af370c7e415 weight=40c8181b9a3ae7b3 lb=40bb324d3fae1eed "
    "iters=1 fail=0 rounds=9 words=5285 central=4983 comm=8154",
    "sol=ca29f51552fbfc34 weight=40c712e54633e437 lb=40b9f8578e798b55 "
    "iters=1 fail=0 rounds=9 words=5285 central=4983 comm=8212",
    "sol=ce243a91a17eaa96 weight=40c8944e91b11e61 lb=40bbfeb7f80f0506 "
    "iters=1 fail=0 rounds=9 words=5285 central=4983 comm=8149",
    "sol=7ca81f2df1e4e72c weight=40c84fb1a704c6d0 lb=40bb71b01d77477c "
    "iters=3 fail=0 rounds=23 words=5152 central=655 comm=4717",
    "sol=a6855e6670b21c84 weight=40c71388630d559c lb=40b9da327b92474a "
    "iters=3 fail=0 rounds=23 words=5179 central=740 comm=4621",
    "sol=d1c7b08722cb62b5 weight=40c850e34d11fed2 lb=40bbefa437bf4eb8 "
    "iters=3 fail=0 rounds=23 words=5136 central=680 comm=4566",
    "sol=33e06423d9c067e6 weight=40cab9fe62747a31 lb=40bc7288d2bf8920 "
    "iters=2 fail=0 rounds=16 words=2150 central=1848 comm=13268",
    "sol=d06d24bc1a47f6c2 weight=40cb0a8bfbdc1c48 lb=40bbce792ffa645f "
    "iters=2 fail=0 rounds=16 words=2117 central=1815 comm=13660",
    "sol=fdd089a33d1ceda9 weight=40cd2f08426e5647 lb=40beaee62d0866c4 "
    "iters=2 fail=0 rounds=16 words=2174 central=1872 comm=13762",
    "sol=8282cb2888100378 weight=40cb28cde67e3631 lb=40bc8c5fc5ad6434 "
    "iters=7 fail=0 rounds=51 words=1805 central=237 comm=11369",
    "sol=c2db5278e14ba2e9 weight=40ca628594b65dfe lb=40bbf36e9ececb05 "
    "iters=7 fail=0 rounds=51 words=1801 central=201 comm=11542",
    "sol=c836ee78474c3b29 weight=40cdaccb4a278efc lb=40bee4c96c978354 "
    "iters=8 fail=0 rounds=58 words=1779 central=213 comm=11722",
    "sol=ff4c122c4ee0097e weight=40cb98a0d561aa35 lb=40bc943fdebd3273 "
    "iters=2 fail=0 rounds=16 words=3548 central=3246 comm=14036",
    "sol=aaa5a57fdddedb24 weight=40ca8afa79021f8e lb=40bbc5514e77483f "
    "iters=2 fail=0 rounds=16 words=3407 central=3105 comm=13779",
    "sol=e179fd32dd8d509e weight=40cc9b90ed88e99c lb=40be1e2309fb87c4 "
    "iters=2 fail=0 rounds=16 words=3491 central=3189 comm=13790",
    "sol=c65baa2d32334217 weight=40ca8bbb8a3e5791 lb=40bbe330e6103dfd "
    "iters=5 fail=0 rounds=37 words=3178 central=390 comm=11436",
    "sol=8b1a3b040274d29b weight=40caa299d75c7e2a lb=40bbdf8982be2261 "
    "iters=6 fail=0 rounds=44 words=3200 central=357 comm=11844",
    "sol=9204a33d15ec8545 weight=40cd1747c0c8ce97 lb=40be6e5ae72f6fab "
    "iters=5 fail=0 rounds=37 words=3207 central=342 comm=11685",
    "sol=7f6cfc023c57a878 weight=40cb8388c1ba8408 lb=40bcaf4ec955101f "
    "iters=2 fail=0 rounds=16 words=6074 central=5772 comm=16088",
    "sol=634e3aaad88da122 weight=40ca8655f83a1c8f lb=40bbc9512db3ba03 "
    "iters=2 fail=0 rounds=16 words=5837 central=5535 comm=15870",
    "sol=be1f70c9fcbc48d2 weight=40cd398acc746c5a lb=40be697c516a8bc5 "
    "iters=2 fail=0 rounds=16 words=6017 central=5715 comm=16204",
    "sol=2b4d7226625bb49d weight=40cbb6befe2a5f9f lb=40bd014adcecd0c0 "
    "iters=4 fail=0 rounds=30 words=5341 central=761 comm=12142",
    "sol=bcff1b3192bacfe5 weight=40cac16486b58d66 lb=40bc05bb92f92ff4 "
    "iters=4 fail=0 rounds=30 words=5275 central=686 comm=12005",
    "sol=e87964bb14a2d4c1 weight=40cd66e4109a1b78 lb=40beae0295022e4b "
    "iters=4 fail=0 rounds=30 words=5274 central=666 comm=11988",
    "sol=05da9f73085f5287 weight=40e024891abaddf0 lb=40d20168c9ecfd09 "
    "iters=2 fail=0 rounds=16 words=5563 central=4761 comm=17534",
    "sol=7b9579506787bce8 weight=40e0b72c1925f9df lb=40d21b4ceab090d6 "
    "iters=2 fail=0 rounds=16 words=5569 central=4767 comm=17726",
    "sol=f638a99a6f6c8b05 weight=40e08cc53e5e7e6d lb=40d252ecc0e50add "
    "iters=2 fail=0 rounds=16 words=5683 central=4881 comm=17650",
    "sol=6a33e6bb4bd3a587 weight=40df8bdb78d73ad2 lb=40d1f74754e871d7 "
    "iters=7 fail=0 rounds=51 words=4608 central=552 comm=14193",
    "sol=28c2a000904b27f9 weight=40e0e2f1d5a1f190 lb=40d27c9e85195a41 "
    "iters=6 fail=0 rounds=44 words=4598 central=522 comm=14488",
    "sol=3b172dafa0a9328d weight=40e088daeacf8030 lb=40d24607388bc58b "
    "iters=7 fail=0 rounds=51 words=4605 central=528 comm=14412",
    "sol=47de8c75394d0274 weight=40e01b3cf6045f73 lb=40d1fa232ce2baa0 "
    "iters=2 fail=0 rounds=16 words=10105 central=9303 comm=21060",
    "sol=1383a5a593a391e6 weight=40e0a2ec64b85f01 lb=40d2332cb26d0ebd "
    "iters=2 fail=0 rounds=16 words=10063 central=9261 comm=21046",
    "sol=1c8feacbb9d3275f weight=40e07c0d37baae1f lb=40d24d5db153a145 "
    "iters=2 fail=0 rounds=16 words=10177 central=9375 comm=20996",
    "sol=f26820f9e965b3af weight=40e042a1b979cf43 lb=40d22c337e26b95d "
    "iters=4 fail=0 rounds=30 words=9150 central=999 comm=14837",
    "sol=23f4a06daf0d233a weight=40e06fb4c9a94ce5 lb=40d227004667ed4f "
    "iters=4 fail=0 rounds=30 words=9158 central=996 comm=15022",
    "sol=a22e160a40837cac weight=40e072867d339f61 lb=40d25667754471d5 "
    "iters=4 fail=0 rounds=30 words=9169 central=966 comm=14875",
    "sol=d00dc96a55ef3dc7 weight=40e06fb5dc07892d lb=40d2004313c98a8e "
    "iters=1 fail=0 rounds=9 words=18631 central=17829 comm=29268",
    "sol=5eff08ad19f15531 weight=40e08f11e69b93fa lb=40d2450232df14d5 "
    "iters=1 fail=0 rounds=9 words=18631 central=17829 comm=29231",
    "sol=82a540d226eeb2ba weight=40e09b0f236a3c11 lb=40d251e5bf9cbb49 "
    "iters=1 fail=0 rounds=9 words=18631 central=17829 comm=29233",
    "sol=940e5f43ac18a6b7 weight=40e051ea956acfc3 lb=40d203d78854f4ce "
    "iters=3 fail=0 rounds=23 words=18297 central=2801 comm=15721",
    "sol=bb3c09587121aa4b weight=40e0d1badd8de14e lb=40d258114587742d "
    "iters=3 fail=0 rounds=23 words=18313 central=2799 comm=15596",
    "sol=fecfe00dd0bc54b4 weight=40e08cccb7f7eb97 lb=40d2670166ac18f1 "
    "iters=3 fail=0 rounds=23 words=18270 central=2837 comm=15568",
    "sol=1de7615cbb3a0d3a weight=40e2eefc06e334a4 lb=40d380be5a0740c3 "
    "iters=3 fail=0 rounds=23 words=5737 central=4935 comm=54640",
    "sol=d7bb71e45aa382f3 weight=40e2ed9b57665cf1 lb=40d399f56fa3a7dc "
    "iters=3 fail=0 rounds=23 words=5668 central=4866 comm=54611",
    "sol=050d742e5881385c weight=40e2f16364409730 lb=40d381a45f68c6f6 "
    "iters=3 fail=0 rounds=23 words=5614 central=4812 comm=54252",
    "sol=909483672bc68240 weight=40e300b04b3c64e3 lb=40d39bf7a8149575 "
    "iters=8 fail=0 rounds=58 words=4778 central=522 comm=48431",
    "sol=cff3d4ba7c57c351 weight=40e302175ca702ab lb=40d3802245da229a "
    "iters=8 fail=0 rounds=58 words=4819 central=483 comm=48428",
    "sol=43553ae6f7b2dc05 weight=40e30c01cac43201 lb=40d3974931126152 "
    "iters=8 fail=0 rounds=58 words=4802 central=504 comm=48537",
    "sol=71b3e2444037ec0e weight=40e33397d82042ed lb=40d38cc02f5d09bb "
    "iters=2 fail=0 rounds=16 words=10330 central=9528 comm=56744",
    "sol=8b87d25c21ae837f weight=40e2e7f2c4e75aac lb=40d39532cc3aee21 "
    "iters=2 fail=0 rounds=16 words=10318 central=9516 comm=56488",
    "sol=a5221b9bf5cd334a weight=40e2ebcf8df32b4a lb=40d3841cd6817625 "
    "iters=2 fail=0 rounds=16 words=10333 central=9531 comm=57104",
    "sol=3d5ecec3c7dcbfd1 weight=40e2e318dd70bfe7 lb=40d390b86f749c7e "
    "iters=5 fail=0 rounds=37 words=9269 central=924 comm=48862",
    "sol=d30739286bd78899 weight=40e31fd2df19699e lb=40d38df9ba2dae79 "
    "iters=5 fail=0 rounds=37 words=9204 central=999 comm=49458",
    "sol=c754a1e049fcef16 weight=40e2cd9f56accd28 lb=40d379b0241482ba "
    "iters=5 fail=0 rounds=37 words=9197 central=957 comm=48700",
    "sol=a498ac78234a82d6 weight=40e2dded23a773af lb=40d3827c82d1b0c5 "
    "iters=2 fail=0 rounds=16 words=19342 central=18540 comm=63654",
    "sol=a1457333b3ca212b weight=40e2dba7c817ba8c lb=40d386653a00f244 "
    "iters=2 fail=0 rounds=16 words=19057 central=18255 comm=63660",
    "sol=394a7ab911b02e72 weight=40e2c025eb155cce lb=40d38bcfb08071d6 "
    "iters=2 fail=0 rounds=16 words=18796 central=17994 comm=63103",
    "sol=daaff377141d55ea weight=40e2ac5fc0a2c72d lb=40d386c541e13ed7 "
    "iters=4 fail=0 rounds=30 words=17225 central=2685 comm=50226",
    "sol=39a3a9cf4aabb6ab weight=40e2fb8a3e4b1a23 lb=40d38165206bb21d "
    "iters=4 fail=0 rounds=30 words=17193 central=2624 comm=50413",
    "sol=85677dd524821d2e weight=40e2fc6a7c8b8fb5 lb=40d394427f9152f1 "
    "iters=4 fail=0 rounds=30 words=17165 central=2523 comm=50237",
};

void expect_cover_pins(std::uint64_t shards) {
  const auto sc = set_cover_pins();
  const auto vc = vertex_cover_pins();
  ASSERT_EQ(sc.size(), kSetCoverWant.size());
  ASSERT_EQ(vc.size(), kVertexCoverWant.size());
  for (std::size_t i = 0; i < sc.size(); ++i) {
    const SetCoverPin& c = sc[i];
    EXPECT_EQ(run_set_cover_pin(c, shards), kSetCoverWant[i])
        << "f=" << c.f << " mu=" << c.mu << " boost=" << c.boost
        << " seed=" << c.seed << " sets=" << c.sets << " K=" << shards;
  }
  for (std::size_t i = 0; i < vc.size(); ++i) {
    const VertexCoverPin& c = vc[i];
    EXPECT_EQ(run_vertex_cover_pin(c, shards), kVertexCoverWant[i])
        << "n=" << c.n << " c=" << c.c << " mu=" << c.mu
        << " boost=" << c.boost << " seed=" << c.seed << " K=" << shards;
  }
}

TEST(RlrCoverPins, ResultsMatchTheirCapturedFingerprints) {
  expect_cover_pins(/*shards=*/1);
}

TEST(RlrCoverPins, ProcessShardsMatchTheCapturedFingerprints) {
  expect_cover_pins(/*shards=*/3);
}

// ------------------------------------------ Algorithm 3 (greedy MR) --

TEST(GreedySetCoverMr, CoversTinyInstance) {
  const SetSystem s(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}},
                    {1.0, 2.0, 1.0, 2.0});
  const auto res = greedy_set_cover_mr(s, 0.2, test_params());
  EXPECT_FALSE(res.outcome.failed);
  EXPECT_TRUE(setcover::is_cover(s, res.cover));
}

class GreedySetCoverMrSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(GreedySetCoverMrSweep, QualityWithinEpsGreedyBound) {
  const auto [universe, eps, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 17 + universe);
  const SetSystem s = setcover::many_sets(
      40, universe, 6, graph::WeightDist::kUniform, rng);
  const auto res = greedy_set_cover_mr(s, eps, test_params(seed));
  ASSERT_FALSE(res.outcome.failed);
  ASSERT_TRUE(setcover::is_cover(s, res.cover));
  const auto opt = setcover::exact_min_cover_weight(s);
  ASSERT_TRUE(opt.has_value());
  // (1+eps) * H_Delta guarantee, plus the eps*OPT preprocessing term of
  // Remark 4.7.
  const double bound =
      (1.0 + eps) * harmonic(s.max_set_size()) * (*opt) + eps * (*opt);
  EXPECT_LE(res.weight, bound + 1e-9);
  EXPECT_EQ(res.outcome.space_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedySetCoverMrSweep,
    ::testing::Combine(::testing::Values(12, 18, 24),
                       ::testing::Values(0.1, 0.5),
                       ::testing::Values(1, 2, 3)));

TEST(GreedySetCoverMr, LargeInstanceQualityVsSequentialGreedy) {
  Rng rng(11);
  const SetSystem s = setcover::many_sets(
      600, 300, 12, graph::WeightDist::kExponential, rng);
  const double eps = 0.2;
  const auto mr = greedy_set_cover_mr(s, eps, test_params(4));
  ASSERT_FALSE(mr.outcome.failed);
  ASSERT_TRUE(setcover::is_cover(s, mr.cover));
  const auto seq = seq::greedy_set_cover(s);
  // The MR version loses at most ~(1+eps) against exact greedy on top of
  // the preprocessing term; allow a small extra constant for sampling.
  EXPECT_LE(mr.weight, (1.0 + eps) * 1.5 * seq.weight + 1e-9);
}

TEST(GreedySetCoverMr, DeterministicForSeed) {
  Rng rng(12);
  const SetSystem s = setcover::many_sets(
      100, 80, 8, graph::WeightDist::kUniform, rng);
  const auto a = greedy_set_cover_mr(s, 0.3, test_params(9));
  const auto b = greedy_set_cover_mr(s, 0.3, test_params(9));
  EXPECT_EQ(a.cover, b.cover);
  EXPECT_EQ(a.outcome.rounds, b.outcome.rounds);
}

TEST(GreedySetCoverMr, PreprocessingTakesCheapSets) {
  // gamma = max_j min_{S contains j} w(S) = 1.0 (elements 1 and 2 are
  // only in unit-weight sets), so the near-free set {0} falls below the
  // gamma*eps/n threshold and Remark 4.7 takes it outright.
  SetSystem s(3, {{0}, {1}, {2}, {0}}, {1.0, 1.0, 1.0, 1e-12});
  const auto res = greedy_set_cover_mr(s, 0.5, test_params());
  EXPECT_GE(res.preprocessed_sets, 1u);
  EXPECT_TRUE(setcover::is_cover(s, res.cover));
}

TEST(GreedySetCoverMr, RejectsBadEpsilon) {
  const SetSystem s(1, {{0}}, {1.0});
  EXPECT_DEATH((void)greedy_set_cover_mr(s, 0.0, test_params()),
               "epsilon");
}

}  // namespace
}  // namespace mrlr::core
