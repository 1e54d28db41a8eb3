// Tests for the paper's MapReduce matching algorithms: Algorithm 4
// (randomized local ratio matching, Theorems 5.5/5.6 and Appendix C) and
// Algorithm 7 (epsilon-adjusted b-matching, Appendix D).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "mrlr/core/rlr_bmatching.hpp"
#include "mrlr/core/rlr_matching.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/validate.hpp"
#include "mrlr/seq/exact_matching.hpp"
#include "mrlr/seq/local_ratio_matching.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/mix64.hpp"

namespace mrlr::core {
namespace {

using graph::Graph;

MrParams test_params(std::uint64_t seed = 1, double mu = 0.25) {
  MrParams p;
  p.mu = mu;
  p.seed = seed;
  p.max_iterations = 2000;
  return p;
}

// ------------------------------------------------- Algorithm 4 (MWM) --

TEST(RlrMatching, TinyTriangle) {
  const Graph g(3, {{0, 1}, {1, 2}, {0, 2}}, {3.0, 1.0, 2.0});
  const auto res = rlr_matching(g, test_params());
  EXPECT_FALSE(res.outcome.failed);
  EXPECT_TRUE(graph::is_matching(g, res.matching));
  EXPECT_GE(res.weight, 1.5);  // OPT/2 = 1.5
}

class RlrMatchingSweep
    : public ::testing::TestWithParam<
          std::tuple<int, double, graph::WeightDist, int>> {};

TEST_P(RlrMatchingSweep, FeasibleAndSpaceClean) {
  const auto [n, c, dist, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7727u + n);
  Graph g = graph::gnm_density(n, c, rng);
  g = g.with_weights(graph::random_edge_weights(g, dist, rng));
  const auto res = rlr_matching(g, test_params(seed));
  ASSERT_FALSE(res.outcome.failed);
  EXPECT_TRUE(graph::is_matching(g, res.matching));
  EXPECT_EQ(res.outcome.space_violations, 0u);
  EXPECT_GT(res.outcome.rounds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RlrMatchingSweep,
    ::testing::Combine(::testing::Values(60, 200),
                       ::testing::Values(0.25, 0.45),
                       ::testing::Values(graph::WeightDist::kUniform,
                                         graph::WeightDist::kPolarized),
                       ::testing::Values(1, 2, 3)));

TEST(RlrMatching, TwoApproximationAgainstExact) {
  Rng rng(3);
  for (int t = 0; t < 8; ++t) {
    Graph g = graph::gnm(14, 40, rng);
    g = g.with_weights(
        graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
    const auto res = rlr_matching(g, test_params(t + 1));
    ASSERT_FALSE(res.outcome.failed);
    ASSERT_TRUE(graph::is_matching(g, res.matching));
    const double opt = seq::exact_max_matching_weight(g);
    EXPECT_GE(res.weight, opt / 2.0 - 1e-9);
    EXPECT_LE(res.weight, opt + 1e-9);
  }
}

TEST(RlrMatching, QualityVsSequentialLocalRatio) {
  Rng rng(4);
  Graph g = graph::gnm(300, 3000, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kExponential, rng));
  const auto mr = rlr_matching(g, test_params(5));
  ASSERT_FALSE(mr.outcome.failed);
  const auto seq_res = seq::local_ratio_matching(g);
  // Both carry the same 1/2 worst-case guarantee; empirically they land
  // in the same ballpark. Allow 30% slack either way.
  EXPECT_GE(mr.weight, 0.7 * seq_res.weight);
}

TEST(RlrMatching, DeterministicForSeed) {
  Rng rng(5);
  Graph g = graph::gnm(100, 800, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  const auto a = rlr_matching(g, test_params(7));
  const auto b = rlr_matching(g, test_params(7));
  EXPECT_EQ(a.matching, b.matching);
  EXPECT_EQ(a.outcome.rounds, b.outcome.rounds);
}

TEST(RlrMatching, MuZeroRegimeTerminatesInLogRounds) {
  // Appendix C: eta = n, expected 0.975 decay per iteration.
  Rng rng(6);
  Graph g = graph::gnm(120, 2000, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  const auto res = rlr_matching(g, test_params(1, /*mu=*/0.0));
  ASSERT_FALSE(res.outcome.failed);
  EXPECT_TRUE(graph::is_matching(g, res.matching));
  // 200*log(n) is the theorem's constant; anything near it is fine.
  EXPECT_LE(res.outcome.iterations, 300u);
}

TEST(RlrMatching, EmptyGraph) {
  const Graph g(5, {});
  const auto res = rlr_matching(g, test_params());
  EXPECT_TRUE(res.matching.empty());
  EXPECT_EQ(res.outcome.iterations, 0u);
}

TEST(RlrMatching, PolarizedWeightsPickHeavyEdges) {
  // A perfect matching of heavy edges exists; the 2-approximation must
  // recover at least half the heavy weight, far beyond any light-only
  // matching.
  std::vector<graph::Edge> edges;
  std::vector<double> w;
  const int pairs = 30;
  // Heavy disjoint pairs (2i, 2i+1), plus light clutter edges.
  for (int i = 0; i < pairs; ++i) {
    edges.push_back({static_cast<graph::VertexId>(2 * i),
                     static_cast<graph::VertexId>(2 * i + 1)});
    w.push_back(1000.0);
  }
  for (int i = 0; i + 2 < 2 * pairs; ++i) {
    edges.push_back({static_cast<graph::VertexId>(i),
                     static_cast<graph::VertexId>(i + 2)});
    w.push_back(1.0);
  }
  const Graph g(2 * pairs, std::move(edges), std::move(w));
  const auto res = rlr_matching(g, test_params(8));
  ASSERT_TRUE(graph::is_matching(g, res.matching));
  EXPECT_GE(res.weight, 1000.0 * pairs / 2.0);
}

// ------------------------------------- pinned results and traffic --

// One instance of the pinned sweep: a generator family at a seed. The
// dense families exceed 4*eta edges at both mu values, so their first
// iterations sample i.i.d. and exercise the RNG draw order; the sparse
// ones (path, cycle, star) run the ship-all endgame from the start.
struct PinCase {
  std::string family;
  std::uint64_t seed;
  double mu;
};

Graph pin_graph(const std::string& family, std::uint64_t seed) {
  Rng rng(seed * 1000003u + family.size());
  const graph::WeightDist dist[] = {graph::WeightDist::kUniform,
                                    graph::WeightDist::kExponential,
                                    graph::WeightDist::kIntegral};
  const auto weighted = [&](Graph g) {
    return g.with_weights(graph::random_edge_weights(g, dist[seed % 3], rng));
  };
  if (family == "gnm_density") {
    return weighted(graph::gnm_density(300, 0.6, rng));
  }
  if (family == "gnp") return weighted(graph::gnp(300, 0.1, rng));
  if (family == "chung_lu") {
    std::uint64_t shortfall = 0;
    graph::ChungLuOptions opts;
    opts.shortfall = &shortfall;
    return weighted(graph::chung_lu_power_law(300, 6000, 2.5, rng, opts));
  }
  if (family == "bipartite") {
    return weighted(graph::random_bipartite(150, 150, 6000, rng));
  }
  if (family == "circulant") return weighted(graph::circulant(300, 40));
  if (family == "planted_clique") {
    return weighted(graph::planted_clique(300, 4000, 30, rng));
  }
  if (family == "complete") return weighted(graph::complete(100));
  if (family == "path") return weighted(graph::path(300));
  if (family == "cycle") return weighted(graph::cycle(300));
  if (family == "star") return graph::star(400);  // unweighted: all ties
  // 400 vertices, edges only among the first 100: 300 isolated vertices.
  const Graph core = graph::gnm(100, 2000, rng);
  return Graph(400, core.edges(),
               graph::random_edge_weights(core, dist[seed % 3], rng));
}

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  for (const char* family :
       {"gnm_density", "gnp", "chung_lu", "bipartite", "circulant",
        "planted_clique", "complete", "path", "cycle", "star", "isolated"}) {
    for (const double mu : {0.1, 0.2, 0.0}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        cases.push_back({family, seed, mu});
      }
    }
  }
  return cases;
}

std::string pin_fingerprint(const RlrMatchingResult& r) {
  std::uint64_t h = mix64(r.matching.size());
  for (const graph::EdgeId e : r.matching) h = mix64(h ^ e);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "sol=%016llx weight=%016llx stack=%llu iters=%llu "
                "rounds=%llu words=%llu",
                static_cast<unsigned long long>(h),
                static_cast<unsigned long long>(pack_double(r.weight)),
                static_cast<unsigned long long>(r.stack_size),
                static_cast<unsigned long long>(r.outcome.iterations),
                static_cast<unsigned long long>(r.outcome.rounds),
                static_cast<unsigned long long>(r.outcome.max_machine_words));
  return buf;
}

RlrMatchingResult run_pin(const Graph& g, const PinCase& c,
                          std::uint64_t threads = 1,
                          std::uint64_t shards = 1) {
  MrParams p = test_params(c.seed, c.mu);
  p.num_threads = threads;
  p.num_shards = shards;
  return rlr_matching(g, p);
}

TEST(RlrMatchingPins, ResultsMatchTheirCapturedFingerprints) {
  // Captured before incidence liveness replaced per-edge-side liveness:
  // what Algorithm 4 computes (matching, weight, stack, iterations,
  // rounds, space per machine) must not depend on how the machines
  // track liveness.
  const std::vector<std::string> want = {
      "sol=9551b7b390f1628e weight=40b6048fd397602b "
      "stack=291 iters=2 rounds=16 words=4754",
      "sol=90373a2160c966ca weight=40fd785000000000 "
      "stack=268 iters=2 rounds=16 words=3815",
      "sol=5d6b801944977dee weight=40c7a0659a6aaaeb "
      "stack=279 iters=2 rounds=16 words=4634",
      "sol=66800bef493f0438 weight=40b5eebefb9cc0a8 "
      "stack=290 iters=2 rounds=16 words=6524",
      "sol=abbef6f9b9fe1770 weight=40fdfcd000000000 "
      "stack=236 iters=2 rounds=16 words=6248",
      "sol=35d351cc65bcffc8 weight=40c7bb719dd621d6 "
      "stack=246 iters=2 rounds=16 words=6284",
      "sol=5458ce2e0858bc0c weight=40b5f0704f05276c "
      "stack=345 iters=3 rounds=23 words=2447",
      "sol=77566f943f9c8c9a weight=40fcb9e000000000 "
      "stack=301 iters=2 rounds=16 words=7328",
      "sol=4f9d76046b658216 weight=40c687f14bb0a7c7 "
      "stack=295 iters=3 rounds=23 words=2405",
      "sol=776aff3d916b48ac weight=40b2b880f534c667 "
      "stack=290 iters=2 rounds=16 words=3971",
      "sol=058e19f1434491e1 weight=40fbc32000000000 "
      "stack=243 iters=2 rounds=16 words=3755",
      "sol=01a406be8cd70180 weight=40c6b8c122106417 "
      "stack=241 iters=2 rounds=16 words=3773",
      "sol=96c485eb2d486dd4 weight=40b2a56745652671 "
      "stack=257 iters=2 rounds=16 words=6359",
      "sol=49b557d48707176a weight=40fca13000000000 "
      "stack=209 iters=2 rounds=16 words=6164",
      "sol=22fbc912239198e8 weight=40c76afd7482373c "
      "stack=223 iters=2 rounds=16 words=6389",
      "sol=59db0ce164d0d20f weight=40b2ccc9edb8a9c5 "
      "stack=279 iters=2 rounds=16 words=3656",
      "sol=1aed5f3c426a6831 weight=40fc5b1000000000 "
      "stack=254 iters=2 rounds=16 words=3722",
      "sol=bcd268f6be4f4240 weight=40c68d21d411e978 "
      "stack=259 iters=2 rounds=16 words=4274",
      "sol=b45c1091cb032919 weight=40b1018956628a3b "
      "stack=253 iters=2 rounds=16 words=3950",
      "sol=d63814cef3335459 weight=40fbf2e000000000 "
      "stack=266 iters=2 rounds=16 words=3815",
      "sol=7c216f4ed4414f99 weight=40c67a23d0ce5c5f "
      "stack=260 iters=2 rounds=16 words=3713",
      "sol=f3078ed274d64997 weight=40b07e46debf55c3 "
      "stack=236 iters=2 rounds=16 words=6350",
      "sol=ab7cc226af27a21f weight=40fc7a4000000000 "
      "stack=233 iters=2 rounds=16 words=6083",
      "sol=dd78b58b08d46a74 weight=40c70d7c84d9778a "
      "stack=219 iters=2 rounds=16 words=6374",
      "sol=1026d4c95151532f weight=40b07500c06543e6 "
      "stack=264 iters=2 rounds=16 words=5000",
      "sol=fb5db8f8a418e323 weight=40fbdf5000000000 "
      "stack=277 iters=2 rounds=16 words=5066",
      "sol=63cd83519f630150 weight=40c660afce063204 "
      "stack=267 iters=2 rounds=16 words=4514",
      "sol=e080a4534d5936cc weight=40b45b77c70af4cd "
      "stack=277 iters=2 rounds=16 words=3956",
      "sol=448f40bfa452dfc9 weight=40fce7c000000000 "
      "stack=224 iters=2 rounds=16 words=3818",
      "sol=9248279782372373 weight=40c6cc5f04a198b2 "
      "stack=224 iters=2 rounds=16 words=3701",
      "sol=c08ebc7451a7a640 weight=40b43b1c2fd01c81 "
      "stack=246 iters=2 rounds=16 words=6362",
      "sol=691f6f9ed42937fa weight=40fd7a0000000000 "
      "stack=207 iters=2 rounds=16 words=6110",
      "sol=b59a16fe5d34db8f weight=40c722640e05b991 "
      "stack=204 iters=2 rounds=16 words=6347",
      "sol=d30811c4a599ad99 weight=40b3d189d7744c5a "
      "stack=292 iters=2 rounds=16 words=4604",
      "sol=bc080c097dc90cb7 weight=40fc7da000000000 "
      "stack=241 iters=2 rounds=16 words=5090",
      "sol=c1ec89c91888c1e0 weight=40c67a04c69e5426 "
      "stack=234 iters=2 rounds=16 words=5234",
      "sol=626c51f472567c67 weight=40b2fc704d802f21 "
      "stack=302 iters=2 rounds=16 words=3938",
      "sol=eba69dc6d809a47b weight=40fc572000000000 "
      "stack=266 iters=2 rounds=16 words=3833",
      "sol=7a43b39be5ffb1c2 weight=40c7005322dec863 "
      "stack=269 iters=2 rounds=16 words=3713",
      "sol=2df5f9cd90263681 weight=40b2fef795c52f4e "
      "stack=268 iters=2 rounds=16 words=6368",
      "sol=67f8402f4692f1c0 weight=40fd292000000000 "
      "stack=247 iters=2 rounds=16 words=6107",
      "sol=ac5f4044ff116485 weight=40c6e4cc31fa6971 "
      "stack=246 iters=2 rounds=16 words=6344",
      "sol=1fa6711b09242efd weight=40b3c9b0e39df3a8 "
      "stack=329 iters=2 rounds=16 words=6026",
      "sol=8497c4efebe1369a weight=40fbab1000000000 "
      "stack=286 iters=2 rounds=16 words=5072",
      "sol=9545a36ad2da68f2 weight=40c7175f36c1cc73 "
      "stack=292 iters=2 rounds=16 words=5474",
      "sol=90731f6baaffd445 weight=40b180bda14b6d58 "
      "stack=277 iters=2 rounds=16 words=3917",
      "sol=c2e017025274f876 weight=40fbbcb000000000 "
      "stack=254 iters=2 rounds=16 words=3761",
      "sol=b29c7328088d9e8f weight=40c5777ad32dc13f "
      "stack=248 iters=2 rounds=16 words=3782",
      "sol=eb103b439e475218 weight=40b1c8c3d405ee5e "
      "stack=262 iters=2 rounds=16 words=6347",
      "sol=68df605ce4805998 weight=40fc367000000000 "
      "stack=229 iters=2 rounds=16 words=6161",
      "sol=43639f92479142a5 weight=40c67d6bf7fc6390 "
      "stack=227 iters=2 rounds=16 words=6356",
      "sol=f8e54ce811e7457a weight=40b21fcb618a5fc2 "
      "stack=287 iters=2 rounds=16 words=3908",
      "sol=10e2f902c34f7c20 weight=40fbab0000000000 "
      "stack=260 iters=2 rounds=16 words=3542",
      "sol=985d8551c5f9f217 weight=40c648a92faa3124 "
      "stack=236 iters=2 rounds=16 words=3182",
      "sol=6d4dcf49a7cbfa89 weight=409efff05d4a26b2 "
      "stack=110 iters=2 rounds=16 words=2602",
      "sol=9569e93ba8976762 weight=40e3774000000000 "
      "stack=86 iters=2 rounds=16 words=1576",
      "sol=da18756ff0c05b6c weight=40ae9f265e2956dd "
      "stack=90 iters=2 rounds=16 words=2494",
      "sol=4b5514b2066042eb weight=409f44d1e3602d54 "
      "stack=110 iters=2 rounds=16 words=1735",
      "sol=2882f07be4af4351 weight=40e416e000000000 "
      "stack=79 iters=2 rounds=16 words=1681",
      "sol=3e33966f14baf59c weight=40aea5187fe53417 "
      "stack=85 iters=2 rounds=16 words=1669",
      "sol=dcc0adbdf1733936 weight=40a023fb755c9a40 "
      "stack=134 iters=3 rounds=23 words=835",
      "sol=dc28fff7808a5517 weight=40e3b50000000000 "
      "stack=98 iters=3 rounds=23 words=823",
      "sol=b4762310659ef407 weight=40af83b02f753f63 "
      "stack=99 iters=3 rounds=23 words=787",
      "sol=432b2dcb6205f06f weight=409ee3d2106b0513 "
      "stack=205 iters=1 rounds=9 words=2396",
      "sol=102ac3aa9713caed weight=40f629f000000000 "
      "stack=212 iters=1 rounds=9 words=2396",
      "sol=207b733e4a743f31 weight=40c12f5981605a38 "
      "stack=215 iters=1 rounds=9 words=2396",
      "sol=432b2dcb6205f06f weight=409ee3d2106b0513 "
      "stack=205 iters=1 rounds=9 words=2396",
      "sol=102ac3aa9713caed weight=40f629f000000000 "
      "stack=212 iters=1 rounds=9 words=2396",
      "sol=207b733e4a743f31 weight=40c12f5981605a38 "
      "stack=215 iters=1 rounds=9 words=2396",
      "sol=432b2dcb6205f06f weight=409ee3d2106b0513 "
      "stack=205 iters=1 rounds=9 words=2396",
      "sol=102ac3aa9713caed weight=40f629f000000000 "
      "stack=212 iters=1 rounds=9 words=2396",
      "sol=207b733e4a743f31 weight=40c12f5981605a38 "
      "stack=215 iters=1 rounds=9 words=2396",
      "sol=5d2defcb2d49bd3b weight=409ffeb5fb032c22 "
      "stack=197 iters=1 rounds=9 words=2402",
      "sol=e6e695d61470d2ab weight=40f5bce000000000 "
      "stack=214 iters=1 rounds=9 words=2402",
      "sol=937e31d9edc2e725 weight=40c1274b1e603aa8 "
      "stack=201 iters=1 rounds=9 words=2402",
      "sol=5d2defcb2d49bd3b weight=409ffeb5fb032c22 "
      "stack=197 iters=1 rounds=9 words=2402",
      "sol=e6e695d61470d2ab weight=40f5bce000000000 "
      "stack=214 iters=1 rounds=9 words=2402",
      "sol=937e31d9edc2e725 weight=40c1274b1e603aa8 "
      "stack=201 iters=1 rounds=9 words=2402",
      "sol=5d2defcb2d49bd3b weight=409ffeb5fb032c22 "
      "stack=197 iters=1 rounds=9 words=2402",
      "sol=e6e695d61470d2ab weight=40f5bce000000000 "
      "stack=214 iters=1 rounds=9 words=2402",
      "sol=937e31d9edc2e725 weight=40c1274b1e603aa8 "
      "stack=201 iters=1 rounds=9 words=2402",
      "sol=7ab40e090f363a7d weight=3ff0000000000000 "
      "stack=1 iters=1 rounds=9 words=3196",
      "sol=7ab40e090f363a7d weight=3ff0000000000000 "
      "stack=1 iters=1 rounds=9 words=3196",
      "sol=7ab40e090f363a7d weight=3ff0000000000000 "
      "stack=1 iters=1 rounds=9 words=3196",
      "sol=7ab40e090f363a7d weight=3ff0000000000000 "
      "stack=1 iters=1 rounds=9 words=3196",
      "sol=7ab40e090f363a7d weight=3ff0000000000000 "
      "stack=1 iters=1 rounds=9 words=3196",
      "sol=7ab40e090f363a7d weight=3ff0000000000000 "
      "stack=1 iters=1 rounds=9 words=3196",
      "sol=7ab40e090f363a7d weight=3ff0000000000000 "
      "stack=1 iters=1 rounds=9 words=3196",
      "sol=7ab40e090f363a7d weight=3ff0000000000000 "
      "stack=1 iters=1 rounds=9 words=3196",
      "sol=7ab40e090f363a7d weight=3ff0000000000000 "
      "stack=1 iters=1 rounds=9 words=3196",
      "sol=5ec95e1a9f1bb6fc weight=409b42196a9ce758 "
      "stack=61 iters=1 rounds=9 words=12802",
      "sol=117abc51f2c025a9 weight=40e61a8000000000 "
      "stack=55 iters=1 rounds=9 words=12802",
      "sol=1214dfc4fa4e8d5d weight=40b1a23f16b767f4 "
      "stack=60 iters=1 rounds=9 words=12802",
      "sol=5ec95e1a9f1bb6fc weight=409b42196a9ce758 "
      "stack=61 iters=1 rounds=9 words=12802",
      "sol=117abc51f2c025a9 weight=40e61a8000000000 "
      "stack=55 iters=1 rounds=9 words=12802",
      "sol=1214dfc4fa4e8d5d weight=40b1a23f16b767f4 "
      "stack=60 iters=1 rounds=9 words=12802",
      "sol=d96a8ab13c5b870c weight=4098fec10023edd1 "
      "stack=84 iters=2 rounds=16 words=3271",
      "sol=2517af6326d38600 weight=40e307e000000000 "
      "stack=72 iters=2 rounds=16 words=3166",
      "sol=1030175fbceaa6b8 weight=40b002baedf23c52 "
      "stack=75 iters=2 rounds=16 words=3277",
  };
  const std::vector<PinCase> cases = pin_cases();
  ASSERT_EQ(cases.size(), want.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PinCase& c = cases[i];
    const Graph g = pin_graph(c.family, c.seed);
    const RlrMatchingResult r = run_pin(g, c);
    ASSERT_FALSE(r.outcome.failed) << c.family;
    EXPECT_TRUE(graph::is_matching(g, r.matching)) << c.family;
    EXPECT_EQ(pin_fingerprint(r), want[i])
        << c.family << " mu=" << c.mu << " seed=" << c.seed;
  }
}

TEST(RlrMatchingPins, BackendsAgreeWithSerial) {
  for (const PinCase& c : pin_cases()) {
    if (c.seed != 1) continue;
    const Graph g = pin_graph(c.family, c.seed);
    const std::string serial = pin_fingerprint(run_pin(g, c));
    EXPECT_EQ(pin_fingerprint(run_pin(g, c, /*threads=*/4)), serial)
        << c.family;
    EXPECT_EQ(pin_fingerprint(run_pin(g, c, 1, /*shards=*/3)), serial)
        << c.family;
    EXPECT_EQ(pin_fingerprint(run_pin(g, c, 1, /*shards=*/4)), serial)
        << c.family;
  }
}

TEST(RlrMatchingPins, PhiAndNoticesTravelOnlyAlongLiveEdges) {
  // Per iteration i with |E_i| live edges and d_i deaths: forward-phi
  // ships one (edge, vertex slot, phi) triple per live incidence, 6|E_i|
  // words, and recompute-alive one notice word per endpoint of each
  // dead edge, 2 d_i words; |E_{i+1}| = |E_i| - d_i, and the loop ends
  // once every live edge died. A ship-all iteration (|E_i| < 4 eta)
  // also ships one (edge, weight) pair per live incidence: 4|E_i|
  // sample words, an independent count of the same |E_i|.
  for (const std::uint64_t shards : {1u, 3u}) {
    for (const PinCase& c : pin_cases()) {
      if (c.seed == 3) continue;
      const Graph g = pin_graph(c.family, c.seed);
      const RlrMatchingResult r = run_pin(g, c, 1, shards);
      ASSERT_FALSE(r.outcome.failed);
      std::vector<std::uint64_t> sample, forward, recompute;
      for (const mrc::RoundMetrics& rm : r.per_round) {
        if (rm.label == "sample") sample.push_back(rm.total_sent);
        if (rm.label == "forward-phi") forward.push_back(rm.total_sent);
        if (rm.label == "recompute-alive") recompute.push_back(rm.total_sent);
      }
      const std::string where = c.family + " mu=" + std::to_string(c.mu) +
                                " seed=" + std::to_string(c.seed) +
                                " shards=" + std::to_string(shards);
      ASSERT_EQ(forward.size(), r.outcome.iterations) << where;
      ASSERT_EQ(recompute.size(), forward.size()) << where;
      ASSERT_EQ(sample.size(), forward.size()) << where;
      const std::uint64_t eta = ipow_real(
          std::max<std::uint64_t>(g.num_vertices(), 2), 1.0 + c.mu);
      std::uint64_t live = 0;
      for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
        if (g.weight(e) > 0.0) ++live;
      }
      for (std::size_t i = 0; i < forward.size(); ++i) {
        EXPECT_EQ(forward[i], 6 * live) << where << " iteration " << i;
        ASSERT_EQ(recompute[i] % 2, 0u) << where << " iteration " << i;
        const std::uint64_t deaths = recompute[i] / 2;
        ASSERT_LE(deaths, live) << where << " iteration " << i;
        if (live < 4 * eta) {
          EXPECT_EQ(sample[i], 4 * live) << where << " iteration " << i;
        }
        live -= deaths;
      }
      EXPECT_EQ(live, 0u) << where;
    }
  }
}

// ------------------------------------------ owner-filled worker state --

// Hand-built graphs for the owner fill: isolated vertices (no incidence
// slots), zero-weight edges (their flags start dead), and an edge count
// that does not split evenly over the machines (mu = 0, so M is
// ceil(m / n)).
struct OwnerFillCase {
  std::string name;
  Graph g;
};

std::vector<OwnerFillCase> owner_fill_cases() {
  std::vector<OwnerFillCase> cases;
  const auto build = [](std::uint64_t n, std::uint64_t core,
                        std::uint64_t m, std::uint64_t zero_every,
                        std::uint64_t salt) {
    // The first m pairs of [0, core) in a salted order; vertex 2 and
    // every vertex from `core` on stay isolated.
    std::vector<std::pair<std::uint64_t, graph::Edge>> pairs;
    for (graph::VertexId u = 0; u < core; ++u) {
      for (graph::VertexId v = u + 1; v < core; ++v) {
        if (u == 2 || v == 2) continue;
        pairs.push_back({mix64(salt ^ (std::uint64_t{u} << 32 | v)), {u, v}});
      }
    }
    std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    std::vector<graph::Edge> edges;
    std::vector<double> weights;
    for (std::uint64_t e = 0; e < m; ++e) {
      edges.push_back(pairs[e].second);
      // Ties and zeros: small integer weights, every zero_every-th 0.
      weights.push_back(e % zero_every == 0
                            ? 0.0
                            : static_cast<double>(pairs[e].first % 7 + 1));
    }
    return Graph(n, std::move(edges), std::move(weights));
  };
  cases.push_back({"sampled", build(30, 24, 151, 5, 11)});     // M = 6
  cases.push_back({"mostly-zero", build(16, 14, 67, 2, 29)});  // M = 5
  cases.push_back({"one-short", build(20, 18, 99, 3, 47)});    // M = 5
  return cases;
}

std::string owner_fill_fingerprint(const RlrMatchingResult& r) {
  std::string out = pin_fingerprint(r);
  out += " failed=" + std::to_string(r.outcome.failed) +
         " comm=" + std::to_string(r.outcome.total_communication);
  for (const mrc::RoundMetrics& rm : r.per_round) {
    out += " " + rm.label + ":" + std::to_string(rm.total_sent) + "/" +
           std::to_string(rm.max_resident);
  }
  return out;
}

TEST(RlrMatchingOwnerSlots, HandBuiltGraphsAgreeAcrossBackends) {
  // Each machine fills its own slots in iteration 0's count round, so
  // the cases stop after 0 and 1 iterations too, and every backend
  // must see the same state: serial, 4 threads, 2 to 4 shards.
  for (const OwnerFillCase& c : owner_fill_cases()) {
    const std::uint64_t n = c.g.num_vertices();
    const std::uint64_t m = c.g.num_edges();
    const std::uint64_t machines = ceil_div(m, n);
    ASSERT_GE(machines, 5u) << c.name;
    ASSERT_NE(m % machines, 0u) << c.name;
    for (const std::uint64_t max_iterations : {0u, 1u, 2000u}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        MrParams p = test_params(seed, /*mu=*/0.0);
        p.max_iterations = max_iterations;
        const RlrMatchingResult serial = rlr_matching(c.g, p);
        EXPECT_TRUE(graph::is_matching(c.g, serial.matching));
        if (max_iterations == 0) {
          EXPECT_EQ(serial.outcome.rounds, 0u);
        } else {
          // The filled state is the right one, not just the same one:
          // iteration 0 forwards phi along every positive-weight edge,
          // one 3-word triple from each endpoint.
          std::uint64_t positive = 0;
          for (graph::EdgeId e = 0; e < m; ++e) {
            if (c.g.weight(e) > 0.0) ++positive;
          }
          const auto forward = std::find_if(
              serial.per_round.begin(), serial.per_round.end(),
              [](const mrc::RoundMetrics& rm) {
                return rm.label == "forward-phi";
              });
          ASSERT_NE(forward, serial.per_round.end()) << c.name;
          EXPECT_EQ(forward->total_sent, 6 * positive) << c.name;
        }
        const std::string want = owner_fill_fingerprint(serial);
        const std::string where = c.name + " max_iterations=" +
                                  std::to_string(max_iterations) +
                                  " seed=" + std::to_string(seed);
        for (const auto& [threads, shards] :
             {std::pair{4ull, 1ull}, {1ull, 2ull}, {1ull, 3ull},
              {1ull, 4ull}}) {
          p.num_threads = threads;
          p.num_shards = shards;
          EXPECT_EQ(owner_fill_fingerprint(rlr_matching(c.g, p)), want)
              << where << " threads=" << threads << " shards=" << shards;
        }
      }
    }
  }
}

// ----------------------------------------- Algorithm 7 (b-matching) --

TEST(SeqBMatchingLocalRatio, FeasibleAndApproximate) {
  Rng rng(7);
  for (int t = 0; t < 8; ++t) {
    Graph g = graph::gnm(8, 14, rng);
    g = g.with_weights(
        graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
    std::vector<std::uint32_t> b(8);
    for (auto& x : b) x = 1 + static_cast<std::uint32_t>(rng.uniform(3));
    const double eps = 0.1;
    const auto res = seq_b_matching_local_ratio(g, b, eps);
    ASSERT_TRUE(graph::is_b_matching(g, res.matching, b));
    if (g.num_edges() <= 22) {
      const double opt = seq::exact_max_b_matching_weight(g, b);
      const double bmax = *std::max_element(b.begin(), b.end());
      const double ratio = 3.0 - 2.0 / std::max(2.0, bmax) + 2.0 * eps;
      EXPECT_GE(res.weight, opt / ratio - 1e-9);
    }
  }
}

TEST(SeqBMatchingLocalRatio, BEqualsOneMatchesPlainLocalRatio) {
  // With b = 1 the guarantee degrades to the plain matching bound.
  Rng rng(8);
  Graph g = graph::gnm(12, 20, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  std::vector<std::uint32_t> b(12, 1);
  const auto res = seq_b_matching_local_ratio(g, b, 0.05);
  ASSERT_TRUE(graph::is_matching(g, res.matching));
  const double opt = seq::exact_max_matching_weight(g);
  EXPECT_GE(res.weight, opt / (2.0 + 0.1) - 1e-9);
}

class RlrBMatchingSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(RlrBMatchingSweep, FeasibleAndSpaceClean) {
  const auto [n, b_cap, eps, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 50021u + n);
  Graph g = graph::gnm_density(n, 0.4, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  std::vector<std::uint32_t> b(n, static_cast<std::uint32_t>(b_cap));
  const auto res = rlr_b_matching(g, b, eps, test_params(seed));
  ASSERT_FALSE(res.outcome.failed);
  EXPECT_TRUE(graph::is_b_matching(g, res.matching, b));
  EXPECT_EQ(res.outcome.space_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RlrBMatchingSweep,
    ::testing::Combine(::testing::Values(50, 150),
                       ::testing::Values(2, 3, 5),
                       ::testing::Values(0.1, 0.5),
                       ::testing::Values(1, 2)));

TEST(RlrBMatching, ApproximationAgainstExact) {
  Rng rng(9);
  for (int t = 0; t < 6; ++t) {
    Graph g = graph::gnm(10, 18, rng);
    g = g.with_weights(
        graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
    std::vector<std::uint32_t> b(10, 2);
    const double eps = 0.1;
    const auto res = rlr_b_matching(g, b, eps, test_params(t + 1));
    ASSERT_FALSE(res.outcome.failed);
    ASSERT_TRUE(graph::is_b_matching(g, res.matching, b));
    const double opt = seq::exact_max_b_matching_weight(g, b);
    const double ratio = 3.0 - 2.0 / 2.0 + 2.0 * eps;  // 2 + 2eps for b=2
    EXPECT_GE(res.weight, opt / ratio - 1e-9);
  }
}

TEST(RlrBMatching, HigherCapacityNeverHurts) {
  Rng rng(10);
  Graph g = graph::gnm(60, 500, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  std::vector<std::uint32_t> b1(60, 1), b3(60, 3);
  const auto r1 = rlr_b_matching(g, b1, 0.2, test_params(2));
  const auto r3 = rlr_b_matching(g, b3, 0.2, test_params(2));
  // More capacity admits strictly more edges; weight should not shrink
  // much (allow small sampling noise).
  EXPECT_GE(r3.weight, r1.weight * 0.95);
}

TEST(RlrBMatching, DeterministicForSeed) {
  Rng rng(11);
  Graph g = graph::gnm(80, 600, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  std::vector<std::uint32_t> b(80, 2);
  const auto a1 = rlr_b_matching(g, b, 0.2, test_params(3));
  const auto a2 = rlr_b_matching(g, b, 0.2, test_params(3));
  EXPECT_EQ(a1.matching, a2.matching);
}

// One instance of the pinned b-matching sweep: a pin_graph family and
// seed, capacities b(v) drawn from [1, b_cap], and the sampling boost.
// A boost of 0.1 draws a tenth of Algorithm 7's per-vertex sample, so
// some cases need a third iteration.
struct BPinCase {
  std::string family;
  std::uint64_t seed;
  double mu;
  std::uint32_t b_cap;
  double boost;
};

std::vector<BPinCase> b_pin_cases() {
  std::vector<BPinCase> cases;
  for (const char* family :
       {"gnm_density", "chung_lu", "planted_clique", "complete", "path",
        "isolated"}) {
    for (const double mu : {0.0, 0.1, 0.2}) {
      for (const std::uint32_t b_cap : {1u, 2u, 3u}) {
        for (const double boost : {1.0, 0.1}) {
          cases.push_back({family, b_cap, mu, b_cap, boost});
        }
      }
    }
  }
  return cases;
}

std::vector<std::uint32_t> b_pin_capacities(const Graph& g,
                                            const BPinCase& c) {
  std::vector<std::uint32_t> b(g.num_vertices());
  for (graph::VertexId v = 0; v < b.size(); ++v) {
    b[v] = 1 + static_cast<std::uint32_t>(mix64(v ^ (c.seed << 40)) %
                                          c.b_cap);
  }
  return b;
}

RlrBMatchingResult run_b_pin(const Graph& g, const BPinCase& c,
                             std::uint64_t shards = 1) {
  MrParams p = test_params(c.seed, c.mu);
  p.sample_boost = c.boost;
  p.num_shards = shards;
  return rlr_b_matching(g, b_pin_capacities(g, c), /*eps=*/0.1, p);
}

TEST(RlrBMatchingPins, ResultsMatchTheirCapturedFingerprints) {
  // Captured while Algorithm 7 kept its own per-edge liveness arrays:
  // what it computes must not depend on how the machines track
  // liveness, serially or on 3 worker shards. Since its count round
  // charges the machines' footprint, as Algorithm 4's does, words= of
  // the path and isolated cases reads one more than at capture.
  const std::vector<std::string> want = {
      "sol=a13c5fb23ed027c4 weight=40b64b1af5309d89 "
      "stack=286 iters=2 rounds=16 words=2782",
      "sol=209481c9ed6db4d6 weight=40b568d56ad3788e "
      "stack=380 iters=3 rounds=23 words=1896",
      "sol=56ac14c88b7a39b8 weight=410506c800000000 "
      "stack=341 iters=2 rounds=16 words=2994",
      "sol=91f1f9202d2f6b9b weight=41050cb000000000 "
      "stack=390 iters=2 rounds=16 words=9092",
      "sol=01d16cbecf43df78 weight=40d6662bd49e3a1e "
      "stack=458 iters=2 rounds=16 words=3820",
      "sol=eab9f7ce583b00d2 weight=40d6dc2ff661bfea "
      "stack=495 iters=2 rounds=16 words=12258",
      "sol=e257ec7a1e8a2ba4 weight=40b50ef985fbe08a "
      "stack=276 iters=2 rounds=16 words=3602",
      "sol=8e8e2de84c9de750 weight=40b73a02d2ff40fe "
      "stack=312 iters=2 rounds=16 words=7899",
      "sol=56643137006a3552 weight=4104b58000000000 "
      "stack=325 iters=2 rounds=16 words=5082",
      "sol=2f221e4df6971a35 weight=4105506000000000 "
      "stack=401 iters=2 rounds=16 words=11327",
      "sol=193a296c2a70e91a weight=40d72f85e21848a6 "
      "stack=446 iters=2 rounds=16 words=6622",
      "sol=c56f98e4b9d927a3 weight=40d6952d9abc031f "
      "stack=497 iters=2 rounds=16 words=10410",
      "sol=c83ac0a824ec8ca7 weight=40b47ffc2fa1a292 "
      "stack=232 iters=2 rounds=16 words=5586",
      "sol=c5bb353be4042eb2 weight=40b745754c924c35 "
      "stack=301 iters=2 rounds=16 words=8222",
      "sol=b11fcfd880e498a0 weight=4105319000000000 "
      "stack=330 iters=2 rounds=16 words=7474",
      "sol=7d0a1d96e7570626 weight=4105109000000000 "
      "stack=383 iters=2 rounds=16 words=7657",
      "sol=77fc79842867558a weight=40d8e20e9c93e84a "
      "stack=488 iters=1 rounds=9 words=37370",
      "sol=77fc79842867558a weight=40d8e20e9c93e84a "
      "stack=488 iters=1 rounds=9 words=37370",
      "sol=34e196f21dcb8334 weight=40b05b6ec4b29c3b "
      "stack=270 iters=2 rounds=16 words=2402",
      "sol=1fde5456b2affe4e weight=40b13fe446f8ebad "
      "stack=289 iters=2 rounds=16 words=4725",
      "sol=38df53bdebee63b8 weight=4103b5a800000000 "
      "stack=309 iters=2 rounds=16 words=2994",
      "sol=2300655510c25d0f weight=4103eb8000000000 "
      "stack=363 iters=2 rounds=16 words=5134",
      "sol=f511985783d3a806 weight=40d4f32cef12643e "
      "stack=421 iters=2 rounds=16 words=3820",
      "sol=8fb3debb082951e6 weight=40d5db810d710ab1 "
      "stack=468 iters=2 rounds=16 words=6815",
      "sol=c0fe993531f5e9e5 weight=40b0bbedd3a923fd "
      "stack=235 iters=2 rounds=16 words=3609",
      "sol=c3f20182ce769f10 weight=40b13e4b01d27e8a "
      "stack=286 iters=2 rounds=16 words=5040",
      "sol=d74f003fc3622e73 weight=4103e4a800000000 "
      "stack=313 iters=2 rounds=16 words=5082",
      "sol=ecf6d3e8b72cd21d weight=41040a8000000000 "
      "stack=367 iters=2 rounds=16 words=5347",
      "sol=a464178c474827b4 weight=40d653e91d07c86f "
      "stack=412 iters=1 rounds=9 words=24602",
      "sol=a464178c474827b4 weight=40d653e91d07c86f "
      "stack=412 iters=1 rounds=9 words=24602",
      "sol=7d63c0197baf5957 weight=40b07758dcc97a10 "
      "stack=236 iters=2 rounds=16 words=5577",
      "sol=a090a201652d7d05 weight=40b12ac865659632 "
      "stack=275 iters=2 rounds=16 words=5577",
      "sol=915843ffb99c5a35 weight=41052e0000000000 "
      "stack=302 iters=1 rounds=9 words=24602",
      "sol=915843ffb99c5a35 weight=41052e0000000000 "
      "stack=302 iters=1 rounds=9 words=24602",
      "sol=a464178c474827b4 weight=40d653e91d07c86f "
      "stack=412 iters=1 rounds=9 words=24602",
      "sol=a464178c474827b4 weight=40d653e91d07c86f "
      "stack=412 iters=1 rounds=9 words=24602",
      "sol=31919feb022b4a9c weight=40b1932609efbc31 "
      "stack=273 iters=2 rounds=16 words=2402",
      "sol=26a6411f6c3f7f57 weight=40b1cd4b27faf7ab "
      "stack=306 iters=2 rounds=16 words=3830",
      "sol=c12bfc2ee66f3930 weight=4102f7e800000000 "
      "stack=307 iters=2 rounds=16 words=2994",
      "sol=c2481d2c06d4c66f weight=4104478000000000 "
      "stack=355 iters=2 rounds=16 words=4685",
      "sol=eebcdc773ace0561 weight=40d549f59383acb4 "
      "stack=400 iters=2 rounds=16 words=3820",
      "sol=3e0b6fd6b2fa0200 weight=40d5a1d4931a0f95 "
      "stack=433 iters=2 rounds=16 words=5682",
      "sol=37d5e2408d653051 weight=40b15d0b4d90c8b7 "
      "stack=234 iters=2 rounds=16 words=3602",
      "sol=620d1bb89e01ac8a weight=40b1d31e5ef34a4c "
      "stack=295 iters=2 rounds=16 words=3586",
      "sol=dee7dbcfe5f12e26 weight=4105cc0800000000 "
      "stack=315 iters=1 rounds=9 words=18162",
      "sol=dee7dbcfe5f12e26 weight=4105cc0800000000 "
      "stack=315 iters=1 rounds=9 words=18162",
      "sol=c6f4f214b5dd0ce5 weight=40d70d1e0c2c3db7 "
      "stack=417 iters=1 rounds=9 words=18194",
      "sol=c6f4f214b5dd0ce5 weight=40d70d1e0c2c3db7 "
      "stack=417 iters=1 rounds=9 words=18194",
      "sol=ed4b7df920557d06 weight=40b32d4a540a958b "
      "stack=175 iters=1 rounds=9 words=18194",
      "sol=ed4b7df920557d06 weight=40b32d4a540a958b "
      "stack=175 iters=1 rounds=9 words=18194",
      "sol=dee7dbcfe5f12e26 weight=4105cc0800000000 "
      "stack=315 iters=1 rounds=9 words=18162",
      "sol=dee7dbcfe5f12e26 weight=4105cc0800000000 "
      "stack=315 iters=1 rounds=9 words=18162",
      "sol=c6f4f214b5dd0ce5 weight=40d70d1e0c2c3db7 "
      "stack=417 iters=1 rounds=9 words=18194",
      "sol=c6f4f214b5dd0ce5 weight=40d70d1e0c2c3db7 "
      "stack=417 iters=1 rounds=9 words=18194",
      "sol=9027cdc3d9c91a66 weight=409ed36e3e4b9562 "
      "stack=97 iters=2 rounds=16 words=1165",
      "sol=397c2a855cd0a49f weight=409e4be98cdf3fc0 "
      "stack=143 iters=3 rounds=23 words=616",
      "sol=cecba853924e3279 weight=40eadba000000000 "
      "stack=116 iters=2 rounds=16 words=1320",
      "sol=8b2598c8412f4f19 weight=40eb6fc000000000 "
      "stack=134 iters=3 rounds=23 words=988",
      "sol=da076c4874b52eaa weight=40bc93f8095362e2 "
      "stack=153 iters=2 rounds=16 words=1230",
      "sol=2a1cd34e746329e0 weight=40bd34c50a545284 "
      "stack=175 iters=3 rounds=23 words=1699",
      "sol=7769bce3e3699ee4 weight=409daddb65aafcac "
      "stack=92 iters=2 rounds=16 words=1202",
      "sol=7d87001aee7cbf59 weight=409f2c7839f5d684 "
      "stack=133 iters=3 rounds=23 words=1188",
      "sol=688f5b385d1454c1 weight=40ebdf8000000000 "
      "stack=115 iters=2 rounds=16 words=1672",
      "sol=c057c7bb1222b068 weight=40ed682000000000 "
      "stack=124 iters=2 rounds=16 words=5797",
      "sol=383e5f67c4f9cbeb weight=40be2805012d4289 "
      "stack=153 iters=2 rounds=16 words=2122",
      "sol=4e40c7be8e62c760 weight=40bd6b24d7d729a7 "
      "stack=166 iters=2 rounds=16 words=5023",
      "sol=2710d541136f9fb5 weight=409e3564e42647d8 "
      "stack=88 iters=2 rounds=16 words=1802",
      "sol=b67bf5c06187af29 weight=40a0067e2ed84d45 "
      "stack=104 iters=2 rounds=16 words=4468",
      "sol=74ab008e57fbd53b weight=40ec97a000000000 "
      "stack=118 iters=2 rounds=16 words=2460",
      "sol=0d77365500772ac9 weight=40ebe58000000000 "
      "stack=134 iters=2 rounds=16 words=4316",
      "sol=2f0edf8fdceff30f weight=40be1bf651bcde66 "
      "stack=157 iters=2 rounds=16 words=3090",
      "sol=8f36b5464acf264f weight=40bd007567e80d13 "
      "stack=167 iters=2 rounds=16 words=3480",
      "sol=4c7f159d32ab4e3a weight=409ee167e1a5406b "
      "stack=200 iters=1 rounds=9 words=2095",
      "sol=4c7f159d32ab4e3a weight=409ee167e1a5406b "
      "stack=200 iters=1 rounds=9 words=2095",
      "sol=8a4dc0c8f760947c weight=40fb266000000000 "
      "stack=223 iters=1 rounds=9 words=2095",
      "sol=8a4dc0c8f760947c weight=40fb266000000000 "
      "stack=223 iters=1 rounds=9 words=2095",
      "sol=c4554f1842ca4cf5 weight=40c698a7a661a94d "
      "stack=240 iters=1 rounds=9 words=2095",
      "sol=c4554f1842ca4cf5 weight=40c698a7a661a94d "
      "stack=240 iters=1 rounds=9 words=2095",
      "sol=4c7f159d32ab4e3a weight=409ee167e1a5406b "
      "stack=200 iters=1 rounds=9 words=2095",
      "sol=4c7f159d32ab4e3a weight=409ee167e1a5406b "
      "stack=200 iters=1 rounds=9 words=2095",
      "sol=8a4dc0c8f760947c weight=40fb266000000000 "
      "stack=223 iters=1 rounds=9 words=2095",
      "sol=8a4dc0c8f760947c weight=40fb266000000000 "
      "stack=223 iters=1 rounds=9 words=2095",
      "sol=c4554f1842ca4cf5 weight=40c698a7a661a94d "
      "stack=240 iters=1 rounds=9 words=2095",
      "sol=c4554f1842ca4cf5 weight=40c698a7a661a94d "
      "stack=240 iters=1 rounds=9 words=2095",
      "sol=4c7f159d32ab4e3a weight=409ee167e1a5406b "
      "stack=200 iters=1 rounds=9 words=2095",
      "sol=4c7f159d32ab4e3a weight=409ee167e1a5406b "
      "stack=200 iters=1 rounds=9 words=2095",
      "sol=8a4dc0c8f760947c weight=40fb266000000000 "
      "stack=223 iters=1 rounds=9 words=2095",
      "sol=8a4dc0c8f760947c weight=40fb266000000000 "
      "stack=223 iters=1 rounds=9 words=2095",
      "sol=c4554f1842ca4cf5 weight=40c698a7a661a94d "
      "stack=240 iters=1 rounds=9 words=2095",
      "sol=c4554f1842ca4cf5 weight=40c698a7a661a94d "
      "stack=240 iters=1 rounds=9 words=2095",
      "sol=800cfc0a0dbbd83c weight=40981be410961ae4 "
      "stack=90 iters=2 rounds=16 words=2516",
      "sol=8b5ce4e8664d6cdb weight=409965e0e8f48101 "
      "stack=96 iters=2 rounds=16 words=2516",
      "sol=49c7be78e15023f6 weight=40ecf16000000000 "
      "stack=100 iters=1 rounds=9 words=8502",
      "sol=49c7be78e15023f6 weight=40ecf16000000000 "
      "stack=100 iters=1 rounds=9 words=8502",
      "sol=1d465a319a4d2b88 weight=40bf1a4aa6dc6262 "
      "stack=148 iters=1 rounds=9 words=8502",
      "sol=1d465a319a4d2b88 weight=40bf1a4aa6dc6262 "
      "stack=148 iters=1 rounds=9 words=8502",
      "sol=c33ba45ff8179e87 weight=409b3c7dfb52ec04 "
      "stack=56 iters=1 rounds=9 words=8502",
      "sol=c33ba45ff8179e87 weight=409b3c7dfb52ec04 "
      "stack=56 iters=1 rounds=9 words=8502",
      "sol=49c7be78e15023f6 weight=40ecf16000000000 "
      "stack=100 iters=1 rounds=9 words=8502",
      "sol=49c7be78e15023f6 weight=40ecf16000000000 "
      "stack=100 iters=1 rounds=9 words=8502",
      "sol=1d465a319a4d2b88 weight=40bf1a4aa6dc6262 "
      "stack=148 iters=1 rounds=9 words=8502",
      "sol=1d465a319a4d2b88 weight=40bf1a4aa6dc6262 "
      "stack=148 iters=1 rounds=9 words=8502",
      "sol=c33ba45ff8179e87 weight=409b3c7dfb52ec04 "
      "stack=56 iters=1 rounds=9 words=8502",
      "sol=c33ba45ff8179e87 weight=409b3c7dfb52ec04 "
      "stack=56 iters=1 rounds=9 words=8502",
      "sol=49c7be78e15023f6 weight=40ecf16000000000 "
      "stack=100 iters=1 rounds=9 words=8502",
      "sol=49c7be78e15023f6 weight=40ecf16000000000 "
      "stack=100 iters=1 rounds=9 words=8502",
      "sol=1d465a319a4d2b88 weight=40bf1a4aa6dc6262 "
      "stack=148 iters=1 rounds=9 words=8502",
      "sol=1d465a319a4d2b88 weight=40bf1a4aa6dc6262 "
      "stack=148 iters=1 rounds=9 words=8502",
  };
  const std::vector<BPinCase> cases = b_pin_cases();
  ASSERT_EQ(cases.size(), want.size());
  std::uint64_t max_iterations = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BPinCase& c = cases[i];
    const Graph g = pin_graph(c.family, c.seed);
    for (const std::uint64_t shards : {1u, 3u}) {
      const RlrBMatchingResult r = run_b_pin(g, c, shards);
      ASSERT_FALSE(r.outcome.failed) << c.family;
      EXPECT_TRUE(graph::is_b_matching(g, r.matching, b_pin_capacities(g, c)))
          << c.family;
      EXPECT_EQ(pin_fingerprint(r), want[i])
          << c.family << " mu=" << c.mu << " b_cap=" << c.b_cap
          << " boost=" << c.boost << " shards=" << shards;
      max_iterations = std::max(max_iterations, r.outcome.iterations);
    }
  }
  EXPECT_GE(max_iterations, 3u);
}

TEST(RlrBMatchingPins, PhiAndNoticesTravelOnlyAlongLiveEdges) {
  // Algorithm 7 runs Algorithm 4's rounds, so its traffic obeys the
  // same counts: per iteration i with |E_i| live edges and d_i deaths,
  // forward-phi ships 6|E_i| words and recompute-alive 2 d_i, and the
  // loop ends once every live edge died. send-phi ships a (v, phi)
  // pair per vertex plus one notice word per edge stacked in the
  // iteration, so the notices add up to the stack.
  for (const std::uint64_t shards : {1u, 3u}) {
    for (const BPinCase& c : b_pin_cases()) {
      const Graph g = pin_graph(c.family, c.seed);
      const RlrBMatchingResult r = run_b_pin(g, c, shards);
      ASSERT_FALSE(r.outcome.failed);
      std::vector<std::uint64_t> send, forward, recompute;
      for (const mrc::RoundMetrics& rm : r.per_round) {
        if (rm.label == "send-phi") send.push_back(rm.total_sent);
        if (rm.label == "forward-phi") forward.push_back(rm.total_sent);
        if (rm.label == "recompute-alive") recompute.push_back(rm.total_sent);
      }
      const std::string where = c.family + " mu=" + std::to_string(c.mu) +
                                " b_cap=" + std::to_string(c.b_cap) +
                                " boost=" + std::to_string(c.boost) +
                                " shards=" + std::to_string(shards);
      ASSERT_EQ(forward.size(), r.outcome.iterations) << where;
      ASSERT_EQ(recompute.size(), forward.size()) << where;
      ASSERT_EQ(send.size(), forward.size()) << where;
      std::uint64_t live = 0;
      for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
        if (g.weight(e) > 0.0) ++live;
      }
      std::uint64_t stacked = 0;
      for (std::size_t i = 0; i < forward.size(); ++i) {
        EXPECT_EQ(forward[i], 6 * live) << where << " iteration " << i;
        ASSERT_EQ(recompute[i] % 2, 0u) << where << " iteration " << i;
        const std::uint64_t deaths = recompute[i] / 2;
        ASSERT_LE(deaths, live) << where << " iteration " << i;
        ASSERT_GE(send[i], 2 * g.num_vertices()) << where;
        stacked += send[i] - 2 * g.num_vertices();
        live -= deaths;
      }
      EXPECT_EQ(live, 0u) << where;
      EXPECT_EQ(stacked, r.stack_size) << where;
    }
  }
}

TEST(RlrBMatching, RejectsBadInputs) {
  const Graph g(2, {{0, 1}});
  EXPECT_DEATH((void)rlr_b_matching(g, {1, 1}, 0.0, test_params()),
               "epsilon");
  EXPECT_DEATH((void)rlr_b_matching(g, {1}, 0.1, test_params()),
               "mismatch");
}

}  // namespace
}  // namespace mrlr::core
