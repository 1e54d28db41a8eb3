// The jobs layer as an API: the JobResult struct and its wire form
// (round-trip + malformed-payload taxonomy), the registry-backed
// algorithm vocabulary, the legacy fingerprint strings pinned against
// pre-JobResult goldens, and the CLI renderer pinned against captured
// `mrlr_cli run` stdout — so the run_job redesign can never silently
// change what any backend, daemon, or human sees.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mrlr/core/params.hpp"
#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/stats.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"
#include "mrlr/jobs/report.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr {
namespace {

jobs::JobResult sample_result() {
  jobs::JobResult r;
  r.algorithm = "matching";
  r.solution_hash = 0x88ED824E0971557Bull;
  r.solution_size = 143;
  r.valid = true;
  r.outcome.iterations = 2;
  r.outcome.rounds = 16;
  r.outcome.max_machine_words = 6314;
  r.outcome.max_central_inbox = 5196;
  r.outcome.total_communication = 78026;
  r.stats.push_back(
      {"weight", core::pack_double(12042.6), jobs::JobStat::Kind::kPackedDouble});
  r.stats.push_back({"stack", 115, jobs::JobStat::Kind::kCount});
  return r;
}

void expect_bad_payload(std::vector<std::byte> bytes, const char* what) {
  try {
    (void)jobs::decode_job_result(bytes);
    FAIL() << what << ": malformed result decoded";
  } catch (const exec::TransportError& e) {
    EXPECT_EQ(e.kind, exec::TransportError::Kind::kBadPayload) << what;
  }
}

TEST(JobResult, EncodeDecodeRoundTrip) {
  const jobs::JobResult r = sample_result();
  const jobs::JobResult back =
      jobs::decode_job_result(jobs::encode_job_result(r));
  EXPECT_EQ(back, r);
  EXPECT_EQ(jobs::fingerprint(back), jobs::fingerprint(r));
  EXPECT_EQ(jobs::determinism_hash(back), jobs::determinism_hash(r));

  // Accessors see both stat kinds.
  EXPECT_DOUBLE_EQ(back.stat_double("weight"), 12042.6);
  EXPECT_EQ(back.stat_count("stack"), 115u);
  EXPECT_EQ(back.stat("absent"), nullptr);
  EXPECT_EQ(back.stat_count("absent", 7), 7u);
}

TEST(JobResult, MalformedPayloadTaxonomy) {
  const std::vector<std::byte> good =
      jobs::encode_job_result(sample_result());

  {  // wrong version
    std::vector<std::byte> bad = good;
    bad[0] = std::byte{99};
    expect_bad_payload(bad, "version");
  }
  {  // truncations at every prefix length
    for (const std::size_t cut : {std::size_t{0}, std::size_t{7},
                                  std::size_t{20}, good.size() - 1}) {
      expect_bad_payload({good.begin(), good.begin() + cut}, "truncated");
    }
  }
  {  // trailing bytes after a complete result
    std::vector<std::byte> bad = good;
    bad.push_back(std::byte{0});
    expect_bad_payload(bad, "trailing");
  }
  {  // non-boolean validity flag
    jobs::JobResult r = sample_result();
    std::vector<std::byte> bytes = jobs::encode_job_result(r);
    // flag lane: version(8) + len(8)+"matching"(8) + hash(8) + size(8)
    bytes[8 + 16 + 8 + 8] = std::byte{2};
    expect_bad_payload(bytes, "flag");
  }
  {  // unknown stat kind / empty stat name, re-encoded from a struct
    jobs::JobResult r = sample_result();
    r.stats[0].name.clear();
    expect_bad_payload(jobs::encode_job_result(r), "empty stat name");

    r = sample_result();
    r.stats[0].name.assign(5000, 'x');  // over the 1 KiB cap
    expect_bad_payload(jobs::encode_job_result(r), "oversize stat name");

    r = sample_result();
    r.stats[0].kind = static_cast<jobs::JobStat::Kind>(9);
    expect_bad_payload(jobs::encode_job_result(r), "stat kind");
  }
  {  // empty algorithm
    jobs::JobResult r = sample_result();
    r.algorithm.clear();
    expect_bad_payload(jobs::encode_job_result(r), "empty algorithm");
  }
}

TEST(JobsRegistry, VocabularyIsSingleSourceOfTruth) {
  const std::vector<jobs::AlgorithmInfo>& algos = jobs::known_algorithms();
  ASSERT_EQ(algos.size(), 15u);

  const std::vector<std::string> expected = {
      "matching",        "filtering-matching", "filtering-weighted",
      "coreset-matching", "b-matching",        "vertex-cover",
      "set-cover-f",     "set-cover-greedy",   "mis",
      "mis-simple",      "luby-mis",           "clique",
      "colour-vertex",   "luby-colouring",     "colour-edge"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(algos[i].name, expected[i]) << i;
    // find/known agree with the enumeration.
    const jobs::AlgorithmInfo* found = jobs::find_algorithm(expected[i]);
    ASSERT_NE(found, nullptr) << expected[i];
    EXPECT_EQ(found->name, expected[i]);
    EXPECT_TRUE(jobs::known_algorithm(expected[i]));
  }
  EXPECT_FALSE(jobs::known_algorithm("simplex"));
  EXPECT_EQ(jobs::find_algorithm("simplex"), nullptr);

  // Instance-kind and weightedness drive CLI instance construction.
  using Kind = jobs::JobSpec::InstanceKind;
  EXPECT_EQ(jobs::find_algorithm("matching")->instance, Kind::kGraph);
  EXPECT_TRUE(jobs::find_algorithm("matching")->weighted);
  EXPECT_FALSE(jobs::find_algorithm("mis")->weighted);
  EXPECT_EQ(jobs::find_algorithm("set-cover-f")->instance,
            Kind::kSetSystem);
  EXPECT_EQ(jobs::find_algorithm("set-cover-greedy")->instance,
            Kind::kSetSystem);
}

// ------------------------------------------------ fingerprint pins --

/// The exact spec construction of test_tcp_exec's all_driver_specs
/// (n=150, c=0.5 instances, mu=0.2, seed=7) — the goldens below were
/// captured from run_job when it still returned the fingerprint string
/// directly, so these pins prove the JobResult refactor changed no
/// result bits for any of the 15 drivers.
std::vector<jobs::JobSpec> golden_specs() {
  core::MrParams params;
  params.mu = 0.2;
  params.seed = 7;

  Rng wrng(1 ^ 0xABCDEFull);
  graph::Graph gw = graph::gnm_density(150, 0.5, wrng);
  gw = gw.with_weights(
      graph::random_edge_weights(gw, graph::WeightDist::kUniform, wrng));
  Rng urng(2 ^ 0xABCDEFull);
  const graph::Graph gu = graph::gnm_density(150, 0.5, urng);
  Rng sets_rng(0x5E7C07ull);
  const setcover::SetSystem sys = setcover::many_sets(
      220, 40, 10, graph::WeightDist::kUniform, sets_rng);

  std::vector<jobs::JobSpec> specs;
  for (const char* a :
       {"matching", "filtering-matching", "filtering-weighted",
        "coreset-matching"}) {
    specs.push_back(jobs::graph_job(a, gw, params));
  }
  {
    jobs::JobSpec s = jobs::graph_job("b-matching", gw, params);
    s.extras["b"] = {2};
    s.extras["eps"] = {core::pack_double(0.25)};
    specs.push_back(std::move(s));
  }
  {
    jobs::JobSpec s = jobs::graph_job("vertex-cover", gu, params);
    Rng wr(99);
    auto& w = s.extras["w"];
    for (std::size_t v = 0; v < gu.num_vertices(); ++v) {
      w.push_back(core::pack_double(
          1.0 + static_cast<double>(wr() % 1000) / 250.0));
    }
    specs.push_back(std::move(s));
  }
  specs.push_back(jobs::set_system_job("set-cover-f", sys, params));
  {
    jobs::JobSpec s = jobs::set_system_job("set-cover-greedy", sys, params);
    s.extras["eps"] = {core::pack_double(0.3)};
    specs.push_back(std::move(s));
  }
  for (const char* a : {"mis", "mis-simple", "luby-mis", "clique",
                        "colour-vertex", "luby-colouring", "colour-edge"}) {
    specs.push_back(jobs::graph_job(a, gu, params));
  }
  return specs;
}

TEST(JobsRunJob, FingerprintsMatchPreRefactorGoldens) {
  const std::vector<std::string> goldens = {
      "matching sol=88ed824e0971557b weight=40b69dc99f53af1d stack=115 "
      "failed=0 iters=2 rounds=16 words=2846 central=2208 comm=17537 "
      "violations=0",
      "filtering-matching sol=a4aad4baabf281c2 weight=40aa6eed2e67b0e9 "
      "failed=0 iters=2 rounds=14 words=1266 central=1266 comm=2421 "
      "violations=0",
      "filtering-weighted sol=78c8335a59860742 weight=40b4c08b19462c54 "
      "failed=0 iters=3 rounds=31 words=1224 central=1224 comm=2302 "
      "violations=0",
      "coreset-matching sol=4f45dd863abcaab3 weight=40b749491bee6d2f "
      "coreset=314 failed=0 iters=1 rounds=2 words=1128 central=628 "
      "comm=628 violations=0",
      "b-matching sol=eb7533cce14873c8 weight=40c6846694ba976c stack=167 "
      "failed=0 iters=1 rounds=9 words=7650 central=7498 comm=22671 "
      "violations=0",
      "vertex-cover sol=877019e692449859 weight=407ac0624dd2f1a9 "
      "lb=406cc851eb851eba failed=0 iters=2 rounds=16 words=2645 "
      "central=2493 comm=6102 violations=0",
      "set-cover-f sol=724874ba4866890e weight=4014c4c46884c3a8 "
      "lb=4014c4c46884c3a9 failed=0 iters=1 rounds=7 words=1520 "
      "central=1298 comm=1300 violations=0",
      "set-cover-greedy sol=1a4920d5a08d47a6 weight=4014c4c46884c3a8 "
      "drops=1 resamples=0 pre=0 failed=0 iters=3 rounds=26 words=986 "
      "central=738 comm=4064 violations=0",
      "mis sol=bc29f82e3923e49d phases=2 central=4 failed=0 iters=2 "
      "rounds=28 words=826 central=414 comm=1631 violations=0",
      "mis-simple sol=7542f4d0936d3e36 phases=7 central=8 failed=0 "
      "iters=9 rounds=50 words=826 central=473 comm=1946 violations=0",
      "luby-mis sol=fb7ef1fdf4bd3992 phases=4 failed=0 iters=4 rounds=24 "
      "words=3124 central=2247 comm=11986 violations=0",
      "clique sol=561ca4a0697a3e38 central=2 failed=0 iters=9 rounds=36 "
      "words=1532 central=1498 comm=16519 violations=0",
      "colour-vertex sol=7c76bf73c677c2d5 colours=16 groups=2 "
      "split_failed=0 failed=0 iters=0 rounds=3 words=996 central=980 "
      "comm=2270 violations=0",
      "luby-colouring sol=42236a1061cc522b colours=38 phases=3 failed=0 "
      "iters=3 rounds=18 words=3124 central=2247 comm=14184 violations=0",
      "colour-edge sol=9d96158cd4626a5f colours=48 groups=2 "
      "split_failed=0 failed=0 iters=0 rounds=3 words=3678 central=3678 "
      "comm=9189 violations=0",
  };

  const std::vector<jobs::JobSpec> specs = golden_specs();
  ASSERT_EQ(specs.size(), goldens.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const jobs::JobResult r = jobs::run_job(specs[i]);
    EXPECT_EQ(jobs::fingerprint(r), goldens[i]) << specs[i].algorithm;
    EXPECT_TRUE(r.valid) << specs[i].algorithm;
    // The wire round-trip preserves the fingerprint bit for bit.
    EXPECT_EQ(jobs::fingerprint(
                  jobs::decode_job_result(jobs::encode_job_result(r))),
              goldens[i]);
  }
}

// ----------------------------------------------------- render pins --

TEST(JobsReport, RenderMatchesCapturedCliOutput) {
  // The instances `mrlr_cli <algo> --n 300 --c 0.5 --mu 0.2 --seed 3`
  // builds, and the stdout it printed before run() was rerouted through
  // run_job + the renderer. Each entry pins one render branch.
  core::MrParams params;
  params.mu = 0.2;
  params.c = 0.5;
  params.seed = 3;

  Rng grng(3 ^ 0xFEEDFACEull);
  graph::Graph gw = graph::gnm_density(300, 0.5, grng);
  gw = gw.with_weights(
      graph::random_edge_weights(gw, graph::WeightDist::kUniform, grng));
  Rng urng(3 ^ 0xFEEDFACEull);
  const graph::Graph gu = graph::gnm_density(300, 0.5, urng);
  Rng fs_rng(3 ^ 0xFEEDFACEull);
  const setcover::SetSystem sys_f = setcover::bounded_frequency(
      300, 8 * 300, 3, graph::WeightDist::kUniform, fs_rng);
  Rng ms_rng(3 ^ 0xFEEDFACEull);
  const setcover::SetSystem sys_many = setcover::many_sets(
      300, 300 / 8 + 2, 12, graph::WeightDist::kUniform, ms_rng);

  const auto st = graph::compute_stats(gw);
  EXPECT_EQ(jobs::render_instance_header(st.n, st.m, st.density_exponent),
            "instance: n=300 m=5196 c=0.499995");

  struct Pin {
    jobs::JobSpec spec;
    jobs::RenderInfo info;
    std::string solution_line;
    std::string cost_line;
  };
  std::vector<Pin> pins;

  const jobs::RenderInfo plain;
  jobs::RenderInfo delta;
  delta.max_degree = gu.max_degree();

  pins.push_back({jobs::graph_job("matching", gw, params), plain,
                  "matching: 143 edges, weight 12042.6, valid=1",
                  "cost: rounds=16 iterations=2 max_words/machine=6314 "
                  "central_inbox=5196 total_comm=47234 violations=0"});
  pins.push_back({jobs::graph_job("filtering-matching", gw, params), plain,
                  "matching: 145 edges, weight 7047.73, maximal=1",
                  "cost: rounds=14 iterations=2 max_words/machine=2832 "
                  "central_inbox=2832 total_comm=5518 violations=0"});
  pins.push_back({jobs::graph_job("filtering-weighted", gw, params), plain,
                  "matching: 147 edges, weight 10996.3, valid=1",
                  "cost: rounds=41 iterations=5 max_words/machine=2922 "
                  "central_inbox=2922 total_comm=5445 violations=0"});
  pins.push_back(
      {jobs::graph_job("coreset-matching", gw, params), plain,
       "matching: 133 edges, weight 12420.6, coreset union 774 edges, "
       "valid=1",
       "cost: rounds=2 iterations=1 max_words/machine=2856 "
       "central_inbox=1548 total_comm=1548 violations=0"});
  {
    jobs::JobSpec s = jobs::graph_job("b-matching", gw, params);
    s.extras["b"] = {2};
    s.extras["eps"] = {core::pack_double(0.2)};
    jobs::RenderInfo info;
    info.b = 2;
    info.eps = 0.2;
    pins.push_back(
        {std::move(s), info,
         "b-matching (b=2, eps=0.2): 270 edges, weight 24740.3, valid=1",
         "cost: rounds=9 iterations=1 max_words/machine=21386 "
         "central_inbox=21084 total_comm=63665 violations=0"});
  }
  {
    jobs::JobSpec s = jobs::graph_job("vertex-cover", gu, params);
    Rng wr(3 ^ 0xC0FFEEull);
    const auto w = graph::random_vertex_weights(
        gu.num_vertices(), graph::WeightDist::kUniform, wr);
    auto& packed = s.extras["w"];
    for (const double v : w) packed.push_back(core::pack_double(v));
    pins.push_back(
        {std::move(s), plain,
         "vertex cover: 284 vertices, weight 13843.2 (certified OPT >= "
         "7290.84), valid=1",
         "cost: rounds=16 iterations=2 max_words/machine=6017 "
         "central_inbox=5715 total_comm=16057 violations=0"});
  }
  {
    jobs::RenderInfo info;
    info.max_frequency = sys_f.max_frequency();
    pins.push_back(
        {jobs::set_system_job("set-cover-f", sys_f, params), info,
         "set cover (f=3): 293 sets, weight 15018.9 (certified OPT >= "
         "10218.3), valid=1",
         "cost: rounds=14 iterations=2 max_words/machine=7920 "
         "central_inbox=7618 total_comm=8240 violations=0"});
  }
  {
    jobs::JobSpec s = jobs::set_system_job("set-cover-greedy", sys_many,
                                           params);
    s.extras["eps"] = {core::pack_double(0.2)};
    jobs::RenderInfo info;
    info.eps = 0.2;
    pins.push_back(
        {std::move(s), info,
         "set cover (greedy, eps=0.2): 4 sets, weight 5.74644, valid=1",
         "cost: rounds=53 iterations=12 max_words/machine=1189 "
         "central_inbox=1148 total_comm=16345 violations=0"});
  }
  pins.push_back({jobs::graph_job("mis", gu, params), plain,
                  "MIS (Alg 6): 24 vertices, maximal=1",
                  "cost: rounds=32 iterations=2 max_words/machine=1886 "
                  "central_inbox=726 total_comm=3397 violations=0"});
  pins.push_back({jobs::graph_job("mis-simple", gu, params), plain,
                  "MIS (Alg 2): 27 vertices, maximal=1",
                  "cost: rounds=45 iterations=9 max_words/machine=1886 "
                  "central_inbox=768 total_comm=4400 violations=0"});
  pins.push_back({jobs::graph_job("luby-mis", gu, params), plain,
                  "MIS (Luby): 32 vertices, maximal=1",
                  "cost: rounds=30 iterations=5 max_words/machine=7244 "
                  "central_inbox=5121 total_comm=38946 violations=0"});
  pins.push_back({jobs::graph_job("clique", gu, params), plain,
                  "clique: 3 vertices, maximal=1",
                  "cost: rounds=44 iterations=9 max_words/machine=3572 "
                  "central_inbox=3414 total_comm=67115 violations=0"});
  pins.push_back(
      {jobs::graph_job("colour-vertex", gu, params), delta,
       "vertex colouring: 19 colours (Delta=53), proper=1",
       "cost: rounds=3 iterations=0 max_words/machine=2831 "
       "central_inbox=2593 total_comm=6028 violations=0"});
  pins.push_back(
      {jobs::graph_job("luby-colouring", gu, params), delta,
       "vertex colouring (Luby): 54 colours (Delta=53), proper=1",
       "cost: rounds=18 iterations=3 max_words/machine=7244 "
       "central_inbox=5121 total_comm=39192 violations=0"});
  pins.push_back(
      {jobs::graph_job("colour-edge", gu, params), delta,
       "edge colouring: 59 colours (Delta=53), proper=1",
       "cost: rounds=3 iterations=0 max_words/machine=10396 "
       "central_inbox=10396 total_comm=25984 violations=0"});

  ASSERT_EQ(pins.size(), 15u);
  for (const Pin& pin : pins) {
    const jobs::JobResult r = jobs::run_job(pin.spec);
    EXPECT_EQ(jobs::render_solution_line(r, pin.info), pin.solution_line)
        << pin.spec.algorithm;
    EXPECT_EQ(jobs::render_cost_line(r.outcome), pin.cost_line)
        << pin.spec.algorithm;
  }

  // The matching family prints the instance header; nothing else does.
  EXPECT_TRUE(jobs::prints_instance_header("matching"));
  EXPECT_TRUE(jobs::prints_instance_header("coreset-matching"));
  EXPECT_FALSE(jobs::prints_instance_header("mis"));
  EXPECT_FALSE(jobs::prints_instance_header("vertex-cover"));
}

}  // namespace
}  // namespace mrlr
