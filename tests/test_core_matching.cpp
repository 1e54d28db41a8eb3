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

TEST(RlrBMatching, RejectsBadInputs) {
  const Graph g(2, {{0, 1}});
  EXPECT_DEATH((void)rlr_b_matching(g, {1, 1}, 0.0, test_params()),
               "epsilon");
  EXPECT_DEATH((void)rlr_b_matching(g, {1}, 0.1, test_params()),
               "mismatch");
}

}  // namespace
}  // namespace mrlr::core
