// Built-in scenario definitions: the port of the old standalone bench
// binaries (bench_f1_* x8, bench_rounds_scaling, bench_space_scaling,
// bench_quality) onto the declarative registry, plus the engine-level
// shuffle / io / thread-scaling scenarios backing the thin wrapper
// binaries.
//
// Every scenario pins its instance seed, so all non-timing fields
// (rounds, space, quality, determinism hash) are exactly reproducible
// and diffable against bench/baseline.json. Groups:
//   paper-f1     — Figure 1 rows: solution quality vs a sequential
//                  reference plus the round/space cost columns;
//   rounds-vs-mu — round-scaling curves (Thm 2.3/5.5 bound, Alg 2 vs 6,
//                  the mu = 0 log-n regime);
//   space-vs-c   — space tracking n^{1+mu} (not m) and the broadcast
//                  tree ablation;
//   shuffle      — flat-arena vs legacy message path throughput;
//   io           — text vs .mgb ingestion throughput;
//   threads      — executor backend scaling (determinism across 1/2/8);
//   smoke        — the fast subset CI diffs against the baseline.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>
#include <vector>

#include "mrlr/bench/instances.hpp"
#include "mrlr/bench/registry.hpp"

#include "mrlr/baselines/coreset_matching.hpp"
#include "mrlr/baselines/filtering_matching.hpp"
#include "mrlr/baselines/luby_colouring_mr.hpp"
#include "mrlr/baselines/luby_mr.hpp"
#include "mrlr/baselines/sample_prune_setcover.hpp"
#include "mrlr/core/colouring.hpp"
#include "mrlr/core/greedy_setcover_mr.hpp"
#include "mrlr/core/hungry_clique.hpp"
#include "mrlr/core/hungry_mis.hpp"
#include "mrlr/core/rlr_bmatching.hpp"
#include "mrlr/core/rlr_matching.hpp"
#include "mrlr/core/rlr_setcover.hpp"
#include "mrlr/graph/io.hpp"
#include "mrlr/graph/validate.hpp"
#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/seq/clique.hpp"
#include "mrlr/seq/colouring.hpp"
#include "mrlr/seq/greedy_matching.hpp"
#include "mrlr/seq/greedy_setcover.hpp"
#include "mrlr/seq/local_ratio_matching.hpp"
#include "mrlr/seq/local_ratio_setcover.hpp"
#include "mrlr/seq/mis.hpp"
#include "mrlr/exec/worker_launcher.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/serve/client.hpp"
#include "mrlr/serve/protocol.hpp"
#include "mrlr/serve/spawn.hpp"
#include "mrlr/seq/misra_gries.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/setcover/validate.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/stats.hpp"

namespace mrlr::bench {
namespace {

using graph::WeightDist;

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }
};

std::string f2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Rate denominators: the schema rejects non-finite metrics, so a
/// wall time that quantizes to zero must not turn into an inf rate.
double per_second(double count, double seconds) {
  return count / std::max(seconds, 1e-12);
}

void fill_outcome(BenchResult& r, const core::MrOutcome& o) {
  r.rounds = o.rounds;
  r.iterations = o.iterations;
  r.max_machine_words = o.max_machine_words;
  r.max_central_inbox = o.max_central_inbox;
  r.shuffle_words = o.total_communication;
  r.failed = r.failed || o.failed || o.space_violations > 0;
}

/// scenario_params plus the session's backend request. Every driver
/// honors MrParams::num_shards (all are process-clean); under
/// --backend process the scenario runs K persistent worker shards and
/// must still reproduce the baseline bit-for-bit.
core::MrParams exec_params(double mu, std::uint64_t seed,
                           const RunContext& ctx) {
  core::MrParams p =
      scenario_params(mu, seed, ctx.process_backend ? 1 : ctx.threads);
  if (ctx.process_backend) p.num_shards = std::max<std::uint64_t>(2, ctx.shards);
  return p;
}

/// The thread count a scenario using exec_params actually runs at —
/// recorded in the result so the emitted metadata never misreports the
/// configuration under --backend process (which pins one thread).
std::uint64_t exec_threads(const RunContext& ctx) {
  return ctx.process_backend ? 1 : ctx.threads;
}

// ------------------------------------------------------ paper-f1 ----

// Figure 1 row: max weight matching (Theorem 5.6; mu = 0 is the
// Appendix C regime). Baseline: sequential local ratio (same ratio-2
// guarantee), as in the old bench_f1_matching.
void add_f1_matching(Registry& r) {
  struct Cfg {
    std::uint64_t n;
    double c, mu;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{1000, 0.4, 0.2, {"paper-f1", "smoke"}},
           Cfg{1000, 0.4, 0.0, {"paper-f1"}},
           Cfg{4000, 0.5, 0.25, {"paper-f1"}},
       }) {
    r.add({"f1/matching/n" + std::to_string(cfg.n) + "-c" + f2(cfg.c) +
               "-mu" + f2(cfg.mu),
           cfg.groups,
           "rlr matching (Alg 4 / App C) vs sequential local ratio",
           [cfg](const RunContext& ctx) {
             BenchResult res;
             res.algo = cfg.mu == 0.0 ? "rlr-mwm-mu0" : "rlr-mwm";
             res.family = "gnm-density";
             res.n = cfg.n;
             res.c = cfg.c;
             res.mu = cfg.mu;
             res.threads = exec_threads(ctx);
             const graph::Graph g = weighted_gnm(
                 cfg.n, cfg.c, WeightDist::kUniform, cfg.n + 17);
             res.m = g.num_edges();
             const auto sq = seq::local_ratio_matching(g);
             Timer t;
             const auto out =
                 core::rlr_matching(g, exec_params(cfg.mu, 1, ctx));
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             res.quality_vs_baseline =
                 sq.weight > 0 ? out.weight / sq.weight : 0.0;
             res.failed = res.failed || !graph::is_matching(g, out.matching);
             HashAcc h;
             h.mix_range(out.matching);
             h.mix(out.weight);
             res.determinism_hash = h.value();
             res.extra["stack_size"] =
                 static_cast<double>(out.stack_size);
             return res;
           }});
  }
}

// Figure 1 row: weighted vertex cover (Theorem 2.4, f = 2). Quality is
// certified against the local ratio lower bound; the sequential local
// ratio on the equivalent set system is the quality baseline.
void add_f1_vertex_cover(Registry& r) {
  struct Cfg {
    std::uint64_t n;
    double c, mu;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{1000, 0.4, 0.2, {"paper-f1", "smoke"}},
           Cfg{4000, 0.5, 0.25, {"paper-f1"}},
       }) {
    r.add({"f1/vertex-cover/n" + std::to_string(cfg.n) + "-c" + f2(cfg.c) +
               "-mu" + f2(cfg.mu),
           cfg.groups,
           "rlr vertex cover (Thm 2.4) vs sequential local ratio",
           [cfg](const RunContext& ctx) {
             BenchResult res;
             res.algo = "rlr-vc";
             res.family = "gnm-density";
             res.n = cfg.n;
             res.c = cfg.c;
             res.mu = cfg.mu;
             res.threads = ctx.threads;
             Rng rng(7 * cfg.n + 41);
             const graph::Graph g = graph::gnm_density(cfg.n, cfg.c, rng);
             res.m = g.num_edges();
             const auto w = graph::random_vertex_weights(
                 cfg.n, WeightDist::kUniform, rng);
             const auto sys =
                 setcover::SetSystem::vertex_cover_instance(g, w);
             const auto sq = seq::local_ratio_set_cover(sys);
             Timer t;
             const auto out = core::rlr_vertex_cover(
                 g, w, scenario_params(cfg.mu, 1, ctx.threads));
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             res.quality_vs_baseline =
                 sq.weight > 0 ? out.weight / sq.weight : 0.0;
             res.failed =
                 res.failed || !graph::is_vertex_cover(g, out.cover);
             HashAcc h;
             h.mix_range(out.cover);
             h.mix(out.weight);
             res.determinism_hash = h.value();
             res.extra["ratio_vs_lower_bound"] =
                 out.lower_bound > 0 ? out.weight / out.lower_bound : 0.0;
             return res;
           }});
  }
}

// Figure 1 row: weighted set cover with bounded frequency f
// (Theorem 2.4 general-f: ratio f, O((c/mu)^2) rounds).
void add_f1_setcover_f(Registry& r) {
  struct Cfg {
    std::uint64_t sets, universe, f;
    double mu;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{400, 4000, 3, 0.25, {"paper-f1", "smoke"}},
           Cfg{1000, 10000, 5, 0.25, {"paper-f1"}},
       }) {
    r.add({"f1/set-cover-f/s" + std::to_string(cfg.sets) + "-u" +
               std::to_string(cfg.universe) + "-f" + std::to_string(cfg.f) +
               "-mu" + f2(cfg.mu),
           cfg.groups,
           "rlr set cover (Alg 1) vs sequential local ratio",
           [cfg](const RunContext& ctx) {
             BenchResult res;
             res.algo = "rlr-sc";
             res.family = "bounded-frequency-f" + std::to_string(cfg.f);
             res.n = cfg.sets;
             res.m = cfg.universe;
             res.mu = cfg.mu;
             res.threads = ctx.threads;
             Rng rng(cfg.sets + cfg.universe + cfg.f);
             const auto sys = setcover::bounded_frequency(
                 cfg.sets, cfg.universe, cfg.f, WeightDist::kUniform, rng);
             const auto sq = seq::local_ratio_set_cover(sys);
             Timer t;
             const auto out = core::rlr_set_cover(
                 sys, scenario_params(cfg.mu, 1, ctx.threads));
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             res.quality_vs_baseline =
                 sq.weight > 0 ? out.weight / sq.weight : 0.0;
             res.failed =
                 res.failed || !setcover::is_cover(sys, out.cover);
             HashAcc h;
             h.mix_range(out.cover);
             h.mix(out.weight);
             res.determinism_hash = h.value();
             res.extra["ratio_vs_lower_bound"] =
                 out.lower_bound > 0 ? out.weight / out.lower_bound : 0.0;
             return res;
           }});
  }
}

// Figure 1 row: weighted set cover via hungry greedy (Theorem 4.6,
// the m << n regime). Baseline: exact sequential greedy.
void add_f1_setcover_greedy(Registry& r) {
  struct Cfg {
    std::uint64_t sets, universe;
    double eps, mu;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{400, 200, 0.2, 0.4, {"paper-f1", "smoke"}},
           Cfg{1200, 400, 0.1, 0.4, {"paper-f1"}},
       }) {
    r.add({"f1/set-cover-greedy/s" + std::to_string(cfg.sets) + "-u" +
               std::to_string(cfg.universe) + "-eps" + f2(cfg.eps),
           cfg.groups,
           "greedy set cover MR (Alg 3) vs exact sequential greedy",
           [cfg](const RunContext& ctx) {
             BenchResult res;
             res.algo = "greedy-sc-mr";
             res.family = "many-sets";
             res.n = cfg.sets;
             res.m = cfg.universe;
             res.mu = cfg.mu;
             res.threads = ctx.threads;
             Rng rng(cfg.sets + cfg.universe);
             const auto sys = setcover::many_sets(
                 cfg.sets, cfg.universe, 12, WeightDist::kUniform, rng);
             const auto sq = seq::greedy_set_cover(sys);
             Timer t;
             const auto out = core::greedy_set_cover_mr(
                 sys, cfg.eps, scenario_params(cfg.mu, 1, ctx.threads));
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             res.quality_vs_baseline =
                 sq.weight > 0 ? out.weight / sq.weight : 0.0;
             res.failed =
                 res.failed || !setcover::is_cover(sys, out.cover);
             HashAcc h;
             h.mix_range(out.cover);
             h.mix(out.weight);
             res.determinism_hash = h.value();
             res.extra["level_drops"] =
                 static_cast<double>(out.level_drops);
             res.extra["eps"] = cfg.eps;
             return res;
           }});
  }
}

// Figure 1 row: max weight b-matching (Theorem D.3). Baseline:
// weight-sorted sequential greedy b-matching.
void add_f1_bmatching(Registry& r) {
  struct Cfg {
    std::uint64_t n;
    std::uint32_t b;
    double eps;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{800, 2, 0.1, {"paper-f1", "smoke"}},
           Cfg{2000, 3, 0.5, {"paper-f1"}},
       }) {
    r.add({"f1/b-matching/n" + std::to_string(cfg.n) + "-b" +
               std::to_string(cfg.b) + "-eps" + f2(cfg.eps),
           cfg.groups,
           "rlr b-matching (Alg 7) vs sequential sorted greedy",
           [cfg](const RunContext& ctx) {
             BenchResult res;
             res.algo = "rlr-bm";
             res.family = "gnm-density";
             res.n = cfg.n;
             res.c = 0.45;
             res.mu = 0.25;
             res.threads = ctx.threads;
             const graph::Graph g = weighted_gnm(
                 cfg.n, 0.45, WeightDist::kUniform, cfg.n + cfg.b);
             res.m = g.num_edges();
             const std::vector<std::uint32_t> b(cfg.n, cfg.b);
             const auto greedy = seq::greedy_b_matching(g, b);
             Timer t;
             const auto out = core::rlr_b_matching(
                 g, b, cfg.eps, scenario_params(0.25, 1, ctx.threads));
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             res.quality_vs_baseline =
                 greedy.weight > 0 ? out.weight / greedy.weight : 0.0;
             res.failed =
                 res.failed || !graph::is_b_matching(g, out.matching, b);
             HashAcc h;
             h.mix_range(out.matching);
             h.mix(out.weight);
             res.determinism_hash = h.value();
             res.extra["eps"] = cfg.eps;
             res.extra["ratio_bound"] =
                 3.0 - 2.0 / std::max(2.0, double(cfg.b)) + 2.0 * cfg.eps;
             return res;
           }});
  }
}

// Figure 1 rows: MIS via hungry greedy, Alg 2 (O(1/mu^2)) and Alg 6
// (O(c/mu)), plus the Luby-MR PRAM baseline. Quality baseline:
// sequential Luby MIS size (same maximality guarantee).
void add_f1_mis(Registry& r) {
  struct Cfg {
    const char* variant;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{"simple", {"paper-f1", "smoke"}},
           Cfg{"improved", {"paper-f1", "smoke"}},
           Cfg{"luby", {"paper-f1"}},
       }) {
    const std::string variant = cfg.variant;
    r.add({"f1/mis-" + variant + "/n1000-c0.40-mu0.25",
           cfg.groups,
           "maximal independent set (" + variant + ") vs sequential Luby",
           [variant](const RunContext& ctx) {
             const std::uint64_t n = 1000;
             const double c = 0.4, mu = 0.25;
             BenchResult res;
             res.algo = "mis-" + variant;
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             res.mu = mu;
             res.threads = ctx.threads;
             Rng rng(n + 40);
             const graph::Graph g = graph::gnm_density(n, c, rng);
             res.m = g.num_edges();
             Rng seq_rng(99);
             const auto sq = seq::luby_mis(g, seq_rng);
             Timer t;
             std::vector<graph::VertexId> mis;
             if (variant == "simple") {
               auto out = core::hungry_mis_simple(
                   g, scenario_params(mu, 1, ctx.threads));
               res.wall_seconds = t.elapsed();
               fill_outcome(res, out.outcome);
               mis = std::move(out.independent_set);
             } else if (variant == "improved") {
               auto out = core::hungry_mis_improved(
                   g, scenario_params(mu, 1, ctx.threads));
               res.wall_seconds = t.elapsed();
               fill_outcome(res, out.outcome);
               mis = std::move(out.independent_set);
             } else {
               auto out = baselines::luby_mis_mr(
                   g, scenario_params(mu, 2, ctx.threads));
               res.wall_seconds = t.elapsed();
               fill_outcome(res, out.outcome);
               mis = std::move(out.independent_set);
             }
             res.quality = static_cast<double>(mis.size());
             res.quality_vs_baseline =
                 sq.independent_set.empty()
                     ? 0.0
                     : res.quality /
                           static_cast<double>(sq.independent_set.size());
             res.failed = res.failed ||
                          !graph::is_maximal_independent_set(g, mis);
             HashAcc h;
             h.mix_range(mis);
             res.determinism_hash = h.value();
             return res;
           }});
  }
}

// Figure 1 row: maximal clique (Corollary B.1) via the complement
// relabelling scheme. Baseline: sequential greedy clique size.
void add_f1_clique(Registry& r) {
  struct Cfg {
    std::uint64_t n;
    double c, mu;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{500, 0.4, 0.3, {"paper-f1", "smoke"}},
           Cfg{1500, 0.5, 0.25, {"paper-f1"}},
       }) {
    r.add({"f1/clique/n" + std::to_string(cfg.n) + "-c" + f2(cfg.c) +
               "-mu" + f2(cfg.mu),
           cfg.groups,
           "hungry clique (App B) vs sequential greedy clique",
           [cfg](const RunContext& ctx) {
             BenchResult res;
             res.algo = "hungry-clique";
             res.family = "planted-clique";
             res.n = cfg.n;
             res.c = cfg.c;
             res.mu = cfg.mu;
             res.threads = ctx.threads;
             Rng rng(cfg.n * 3 + 5);
             const graph::Graph g = graph::planted_clique(
                 cfg.n, ipow_real(cfg.n, 1.0 + cfg.c), cfg.n / 20, rng);
             res.m = g.num_edges();
             const auto sq = seq::greedy_clique(g);
             Timer t;
             const auto out = core::hungry_clique(
                 g, scenario_params(cfg.mu, 1, ctx.threads));
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = static_cast<double>(out.clique.size());
             res.quality_vs_baseline =
                 sq.empty() ? 0.0
                            : res.quality / static_cast<double>(sq.size());
             res.failed =
                 res.failed || !graph::is_maximal_clique(g, out.clique);
             HashAcc h;
             h.mix_range(out.clique);
             res.determinism_hash = h.value();
             return res;
           }});
  }
}

// Figure 1 rows: (1+o(1))*Delta vertex / edge colouring (Thm 6.4/6.6).
// Baselines: greedy (Delta+1) for vertices, Misra-Gries (Delta+1) for
// edges — colour-count ratios, lower is better.
void add_f1_colouring(Registry& r) {
  struct Cfg {
    const char* kind;
    std::uint64_t n;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{"vertex", 1000, {"paper-f1", "smoke"}},
           Cfg{"edge", 1000, {"paper-f1"}},
           Cfg{"vertex", 4000, {"paper-f1"}},
       }) {
    const std::string kind = cfg.kind;
    const std::uint64_t n = cfg.n;
    r.add({"f1/colour-" + kind + "/n" + std::to_string(n) +
               "-c0.40-mu0.20",
           cfg.groups,
           "mr " + kind + " colouring (Thm 6.4/6.6) vs Delta+1 baseline",
           [kind, n](const RunContext& ctx) {
             const double c = 0.4, mu = 0.2;
             BenchResult res;
             res.algo = "mr-colour-" + kind;
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             res.mu = mu;
             res.threads = ctx.threads;
             Rng rng(n + 12);
             const graph::Graph g = graph::gnm_density(n, c, rng);
             res.m = g.num_edges();
             Timer t;
             const auto out =
                 kind == "vertex"
                     ? core::mr_vertex_colouring(
                           g, scenario_params(mu, 1, ctx.threads))
                     : core::mr_edge_colouring(
                           g, scenario_params(mu, 1, ctx.threads));
             res.wall_seconds = t.elapsed();
             res.failed = out.failed;
             fill_outcome(res, out.outcome);
             const std::uint64_t base_colours =
                 kind == "vertex"
                     ? graph::num_colours(seq::greedy_colouring(g))
                     : graph::num_colours(
                           seq::misra_gries_edge_colouring(g));
             res.quality = static_cast<double>(out.colours_used);
             res.quality_vs_baseline =
                 base_colours > 0
                     ? res.quality / static_cast<double>(base_colours)
                     : 0.0;
             const bool proper =
                 kind == "vertex"
                     ? graph::is_proper_vertex_colouring(g, out.colour)
                     : graph::is_proper_edge_colouring(g, out.colour);
             res.failed = res.failed || !proper;
             HashAcc h;
             h.mix_range(out.colour);
             h.mix(out.colours_used);
             res.determinism_hash = h.value();
             res.extra["colours_over_delta"] =
                 g.max_degree() > 0
                     ? res.quality / static_cast<double>(g.max_degree())
                     : 0.0;
             res.extra["groups"] = static_cast<double>(out.groups);
             return res;
           }});
  }
}

// -------------------------------------------------- rounds-vs-mu ----

// FIG-R1: sampling iterations against the ceil(c/mu)+1 bound.
void add_rounds_scaling(Registry& r) {
  struct Cfg {
    double mu;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{0.05, {"rounds-vs-mu"}},
           Cfg{0.10, {"rounds-vs-mu"}},
           Cfg{0.20, {"rounds-vs-mu", "smoke"}},
       }) {
    r.add({"rounds/matching-cmu/mu" + f2(cfg.mu),
           cfg.groups,
           "rlr matching iterations vs the ceil(c/mu)+1 bound (Thm 5.5)",
           [cfg](const RunContext& ctx) {
             const std::uint64_t n = 2000;
             const double c = 0.4;
             BenchResult res;
             res.algo = "rlr-mwm";
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             res.mu = cfg.mu;
             res.threads = exec_threads(ctx);
             const graph::Graph g =
                 weighted_gnm(n, c, WeightDist::kUniform, 31);
             res.m = g.num_edges();
             Timer t;
             const auto out =
                 core::rlr_matching(g, exec_params(cfg.mu, 1, ctx));
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             const double bound = std::ceil(c / cfg.mu) + 1.0;
             res.extra["iteration_bound"] = bound;
             res.extra["within_bound"] =
                 static_cast<double>(out.outcome.iterations) <= bound ? 1.0
                                                                      : 0.0;
             HashAcc h;
             h.mix_range(out.matching);
             h.mix(out.outcome.iterations);
             res.determinism_hash = h.value();
             return res;
           }});
  }

  r.add({"rounds/matching-mu0/n2000",
         {"rounds-vs-mu"},
         "mu = 0 matching: iterations ~ log n with O(n) space (App C)",
         [](const RunContext& ctx) {
           const std::uint64_t n = 2000;
           BenchResult res;
           res.algo = "rlr-mwm-mu0";
           res.family = "gnm-density";
           res.n = n;
           res.c = 0.45;
           res.mu = 0.0;
           res.threads = exec_threads(ctx);
           const graph::Graph g =
               weighted_gnm(n, 0.45, WeightDist::kUniform, 77);
           res.m = g.num_edges();
           Timer t;
           const auto out =
               core::rlr_matching(g, exec_params(0.0, 1, ctx));
           res.wall_seconds = t.elapsed();
           fill_outcome(res, out.outcome);
           res.quality = out.weight;
           res.extra["iters_per_log2_n"] =
               static_cast<double>(out.outcome.iterations) /
               std::log2(static_cast<double>(n));
           HashAcc h;
           h.mix_range(out.matching);
           h.mix(out.outcome.iterations);
           res.determinism_hash = h.value();
           return res;
         }});

  // FIG-R2: Alg 2 sweeps grow ~1/mu^2 while Alg 6 grows ~c/mu.
  for (const char* variant : {"simple", "improved"}) {
    for (const double mu : {0.1, 0.3}) {
      const std::string v = variant;
      r.add({"rounds/mis-" + v + "/mu" + f2(mu),
             {"rounds-vs-mu"},
             "hungry MIS sweep count (Alg 2 ~1/mu^2 vs Alg 6 ~c/mu)",
             [v, mu](const RunContext& ctx) {
               const std::uint64_t n = 2000;
               const double c = 0.4;
               BenchResult res;
               res.algo = "mis-" + v;
               res.family = "gnm-density";
               res.n = n;
               res.c = c;
               res.mu = mu;
               res.threads = ctx.threads;
               Rng rng(n + 40);
               const graph::Graph g = graph::gnm_density(n, c, rng);
               res.m = g.num_edges();
               Timer t;
               const auto out =
                   v == "simple"
                       ? core::hungry_mis_simple(
                             g, scenario_params(mu, 1, ctx.threads))
                       : core::hungry_mis_improved(
                             g, scenario_params(mu, 1, ctx.threads));
               res.wall_seconds = t.elapsed();
               fill_outcome(res, out.outcome);
               res.quality =
                   static_cast<double>(out.independent_set.size());
               res.failed = res.failed ||
                            !graph::is_maximal_independent_set(
                                g, out.independent_set);
               HashAcc h;
               h.mix_range(out.independent_set);
               h.mix(out.outcome.iterations);
               res.determinism_hash = h.value();
               return res;
             }});
    }
  }
}

// --------------------------------------------------- space-vs-c ----

// FIG-S1: max words per machine tracks n^{1+mu}, not the input m.
void add_space_scaling(Registry& r) {
  struct Cfg {
    const char* algo;
    double c;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{"matching", 0.3, {"space-vs-c"}},
           Cfg{"matching", 0.5, {"space-vs-c", "smoke"}},
           Cfg{"vertex-cover", 0.3, {"space-vs-c"}},
           Cfg{"vertex-cover", 0.5, {"space-vs-c"}},
       }) {
    const std::string algo = cfg.algo;
    const double c = cfg.c;
    r.add({"space/" + algo + "/c" + f2(c),
           cfg.groups,
           "max machine words vs n^{1+mu} while input is n^{1+c}",
           [algo, c](const RunContext& ctx) {
             const std::uint64_t n = 2000;
             const double mu = 0.2;
             BenchResult res;
             res.algo = "rlr-" + algo;
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             res.mu = mu;
             // Only the matching branch honors the process backend.
             res.threads =
                 algo == "matching" ? exec_threads(ctx) : ctx.threads;
             const std::uint64_t eta = ipow_real(n, 1.0 + mu);
             Timer t;
             if (algo == "matching") {
               const graph::Graph g =
                   weighted_gnm(n, c, WeightDist::kUniform, 13);
               res.m = g.num_edges();
               const auto out =
                   core::rlr_matching(g, exec_params(mu, 1, ctx));
               res.wall_seconds = t.elapsed();
               fill_outcome(res, out.outcome);
               res.quality = out.weight;
               HashAcc h;
               h.mix_range(out.matching);
               h.mix(out.weight);
               res.determinism_hash = h.value();
             } else {
               Rng rng(n + 21);
               const graph::Graph g = graph::gnm_density(n, c, rng);
               res.m = g.num_edges();
               const auto w = graph::random_vertex_weights(
                   n, WeightDist::kUniform, rng);
               const auto out = core::rlr_vertex_cover(
                   g, w, scenario_params(mu, 1, ctx.threads));
               res.wall_seconds = t.elapsed();
               fill_outcome(res, out.outcome);
               res.quality = out.weight;
               HashAcc h;
               h.mix_range(out.cover);
               h.mix(out.weight);
               res.determinism_hash = h.value();
             }
             res.extra["eta"] = static_cast<double>(eta);
             res.extra["space_over_eta"] =
                 static_cast<double>(res.max_machine_words) /
                 static_cast<double>(eta);
             return res;
           }});
  }

  // FIG-S2: fanout-tree broadcast vs the flat-broadcast outbox blowup.
  struct BCfg {
    std::uint64_t machines, fanout;
    std::vector<std::string> groups;
  };
  for (const BCfg& cfg : {
           BCfg{64, 2, {"space-vs-c"}},
           BCfg{64, 8, {"space-vs-c", "smoke"}},
           BCfg{256, 8, {"space-vs-c"}},
       }) {
    r.add({"space/broadcast-tree/m" + std::to_string(cfg.machines) + "-f" +
               std::to_string(cfg.fanout),
           cfg.groups,
           "broadcast tree max outbox = fanout * payload regardless of M",
           [cfg](const RunContext&) {
             const std::uint64_t payload = 1000;
             BenchResult res;
             res.algo = "broadcast-tree";
             res.family = "engine";
             res.n = cfg.machines;
             res.m = payload;
             res.threads = 1;
             mrc::Topology topo;
             topo.num_machines = cfg.machines;
             topo.words_per_machine = 32 * payload;
             topo.fanout = cfg.fanout;
             topo.enforce = false;
             Timer t;
             mrc::Engine engine(topo);
             const std::vector<mrc::Word> data(payload, 1);
             const auto rounds =
                 mrc::broadcast_from_central(engine, data, "bench");
             res.wall_seconds = t.elapsed();
             res.rounds = engine.metrics().rounds();
             res.max_machine_words = engine.metrics().max_machine_words();
             res.max_central_inbox = engine.metrics().max_central_inbox();
             res.shuffle_words = engine.metrics().total_communication();
             std::uint64_t max_out = 0;
             for (const auto& rm : engine.metrics().per_round()) {
               max_out = std::max(max_out, rm.max_outbox);
             }
             res.quality = static_cast<double>(max_out);
             res.extra["tree_rounds"] = static_cast<double>(rounds);
             res.extra["fanout"] = static_cast<double>(cfg.fanout);
             res.extra["flat_outbox"] =
                 static_cast<double>(payload * (cfg.machines - 1));
             HashAcc h;
             h.mix(rounds);
             h.mix(max_out);
             h.mix(res.shuffle_words);
             res.determinism_hash = h.value();
             return res;
           }});
  }
}

// ------------------------------------------------------- shuffle ----

enum class ShufflePath { kLegacy, kArena };
enum class ShufflePattern { kTiny, kBatched };

struct ShuffleStats {
  double seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t checksum = 0;
  std::uint64_t total_sent = 0;
};

/// The PR 2 shuffle workload: tiny per-incidence messages (per-message
/// overhead) and one batched message per vertex (per-word throughput),
/// on rlr_matching's machine layout. Receivers consume every word, so
/// both encode and decode sides are timed.
ShuffleStats run_shuffle(const graph::Graph& g, std::uint64_t machines,
                         ShufflePattern pattern, ShufflePath path,
                         std::uint64_t rounds) {
  mrc::Topology topo;
  topo.num_machines = machines;
  topo.words_per_machine = 1ull << 40;  // throughput bench: never violates
  topo.fanout = 2;
  mrc::Engine engine(topo);
  const std::uint64_t n = g.num_vertices();
  ShuffleStats s;
  std::vector<std::uint64_t> sums(machines, 0);

  const auto drain = [&](mrc::MachineContext& ctx) {
    if (path == ShufflePath::kArena) {
      for (const mrc::MessageView msg : ctx.messages()) {
        for (const mrc::Word w : msg.payload) sums[ctx.id()] += w;
      }
    } else {
      for (const mrc::Message& msg : ctx.inbox()) {
        for (const mrc::Word w : msg.payload) sums[ctx.id()] += w;
      }
    }
  };

  Timer t;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.run_round("shuffle", [&](mrc::MachineContext& ctx) {
      drain(ctx);
      for (graph::VertexId v = static_cast<graph::VertexId>(ctx.id());
           v < n; v = static_cast<graph::VertexId>(v + machines)) {
        if (pattern == ShufflePattern::kTiny) {
          for (const graph::Incidence& inc : g.neighbours(v)) {
            const mrc::MachineId to = core::owner_of(inc.edge, machines);
            if (path == ShufflePath::kArena) {
              ctx.send(to,
                       {inc.edge, core::pack_double(g.weight(inc.edge))});
            } else {
              std::vector<mrc::Word> payload;
              payload.push_back(inc.edge);
              payload.push_back(core::pack_double(g.weight(inc.edge)));
              ctx.send(to, std::move(payload));
            }
          }
        } else if (g.degree(v) > 0) {
          if (path == ShufflePath::kArena) {
            mrc::MessageWriter msg = ctx.begin_message(mrc::kCentral);
            for (const graph::Incidence& inc : g.neighbours(v)) {
              msg.push(inc.edge);
              msg.push(core::pack_double(g.weight(inc.edge)));
            }
          } else {
            std::vector<mrc::Word> payload;
            for (const graph::Incidence& inc : g.neighbours(v)) {
              payload.push_back(inc.edge);
              payload.push_back(core::pack_double(g.weight(inc.edge)));
            }
            ctx.send(mrc::kCentral, std::move(payload));
          }
        }
      }
    });
  }
  engine.run_round("drain", drain);
  s.seconds = t.elapsed();

  for (const std::uint64_t x : sums) s.checksum += x;
  for (const auto& rm : engine.metrics().per_round()) {
    s.total_sent += rm.total_sent;
  }
  const std::uint64_t twice_m = 2 * g.num_edges();
  if (pattern == ShufflePattern::kTiny) {
    s.messages = rounds * twice_m;
    s.words = rounds * 2 * twice_m;
  } else {
    std::uint64_t senders = 0;
    for (graph::VertexId v = 0; v < n; ++v) {
      senders += g.degree(v) > 0 ? 1 : 0;
    }
    s.messages = rounds * senders;
    s.words = rounds * 2 * twice_m;
  }
  return s;
}

void add_shuffle(Registry& r) {
  for (const char* pattern : {"tiny", "batched"}) {
    for (const char* path : {"legacy", "arena"}) {
      const std::string pat = pattern, pth = path;
      r.add({"shuffle/" + pat + "-" + pth,
             {"shuffle", "smoke"},
             "message shuffle throughput (" + pat + " pattern, " + pth +
                 " path)",
             [pat, pth](const RunContext& ctx) {
               const std::uint64_t n = ctx.scale_n(1200);
               const double c = 0.5;
               BenchResult res;
               res.algo = "shuffle-" + pth;
               res.family = "shuffle-" + pat;
               res.n = n;
               res.c = c;
               res.mu = 0.15;
               res.threads = 1;
               const graph::Graph g =
                   weighted_gnm(n, c, WeightDist::kUniform, n + 1);
               res.m = g.num_edges();
               const std::uint64_t eta = ipow_real(n, 1.15, 1);
               const std::uint64_t machines = std::max<std::uint64_t>(
                   2, ceil_div(std::max<std::uint64_t>(g.num_edges(), 1),
                               eta));
               const std::uint64_t rounds = 4;
               const ShuffleStats s = run_shuffle(
                   g, machines,
                   pat == "tiny" ? ShufflePattern::kTiny
                                 : ShufflePattern::kBatched,
                   pth == "legacy" ? ShufflePath::kLegacy
                                   : ShufflePath::kArena,
                   rounds);
               res.wall_seconds = s.seconds;
               res.rounds = rounds + 1;  // + final drain round
               res.shuffle_words = s.total_sent;
               res.extra["messages"] = static_cast<double>(s.messages);
               res.extra["msgs_per_sec"] =
                   per_second(static_cast<double>(s.messages), s.seconds);
               res.extra["words_per_sec"] =
                   per_second(static_cast<double>(s.words), s.seconds);
               res.extra["machines"] = static_cast<double>(machines);
               HashAcc h;
               h.mix(s.checksum);
               h.mix(s.total_sent);
               res.determinism_hash = h.value();
               return res;
             }});
    }
  }
}

// ------------------------------------------------------------ io ----

/// Timed best-of-`reps` of f (first run included: the instance files
/// are freshly written, so there is no cold-cache asymmetry worth a
/// discard rep at these sizes).
template <typename F>
double time_best_of(int reps, F&& f) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    f();
    best = std::min(best, t.elapsed());
  }
  return best;
}

std::uint64_t hash_graph_data(const graph::GraphData& d) {
  HashAcc h;
  h.mix(d.n);
  h.mix(static_cast<std::uint64_t>(d.weighted ? 1 : 0));
  for (const graph::Edge& e : d.edges) {
    h.mix(static_cast<std::uint64_t>(e.u));
    h.mix(static_cast<std::uint64_t>(e.v));
  }
  for (const double w : d.weights) h.mix(w);
  return h.value();
}

std::uint64_t hash_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HashAcc h;
  char buf[1 << 16];
  std::uint64_t total = 0;
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h.mix(static_cast<std::uint64_t>(
          static_cast<unsigned char>(buf[i])));
    }
    total += static_cast<std::uint64_t>(in.gcount());
  }
  h.mix(total);
  return h.value();
}

void add_io(Registry& r) {
  for (const char* format : {"text", "mgb"}) {
    for (const char* op : {"write", "parse", "load"}) {
      const std::string fmt = format, operation = op;
      r.add({"io/" + fmt + "-" + operation,
             {"io", "smoke"},
             "graph " + operation + " throughput, " + fmt + " format",
             [fmt, operation](const RunContext& ctx) {
               namespace fs = std::filesystem;
               const std::uint64_t n = ctx.scale_n(60000);
               const std::uint64_t m = 4 * n;
               BenchResult res;
               res.algo = "graph-io-" + operation;
               res.family = "gnm-weighted";
               res.n = n;
               res.m = m;
               res.format = fmt;
               res.threads = 1;
               Rng rng(42);
               graph::Graph g = graph::gnm(n, m, rng);
               g = g.with_weights(graph::random_edge_weights(
                   g, WeightDist::kUniform, rng));
               const std::string path =
                   (fs::temp_directory_path() /
                    ("mrlr_bench_io_" + fmt + "_" + operation +
                     (fmt == "mgb" ? ".mgb" : ".txt")))
                       .string();
               constexpr int kReps = 2;
               if (operation == "write") {
                 res.wall_seconds = time_best_of(
                     kReps, [&] { graph::write_graph_file(g, path); });
                 res.determinism_hash = hash_file_bytes(path);
               } else {
                 graph::write_graph_file(g, path);
                 if (operation == "parse") {
                   graph::GraphData d;
                   res.wall_seconds = time_best_of(kReps, [&] {
                     d = graph::read_graph_file_data(path);
                   });
                   res.failed = !(d.n == g.num_vertices() &&
                                  d.edges == g.edges() &&
                                  d.weighted == g.weighted() &&
                                  d.weights == g.weights());
                   res.determinism_hash = hash_graph_data(d);
                 } else {
                   std::optional<graph::Graph> back;
                   res.wall_seconds = time_best_of(kReps, [&] {
                     back.emplace(graph::read_graph_file(path));
                   });
                   res.failed =
                       !(back->num_vertices() == g.num_vertices() &&
                         back->edges() == g.edges() &&
                         back->weighted() == g.weighted() &&
                         back->weights() == g.weights());
                   graph::GraphData d;
                   d.n = back->num_vertices();
                   d.weighted = back->weighted();
                   d.edges = back->edges();
                   d.weights = back->weights();
                   res.determinism_hash = hash_graph_data(d);
                 }
               }
               res.extra["edges_per_sec"] = per_second(
                   static_cast<double>(m), res.wall_seconds);
               std::error_code ec;
               fs::remove(path, ec);
               return res;
             }});
    }
  }
}

// ------------------------------------------------------- threads ----

// Executor-backend scaling: the same simulation at a pinned thread
// count. Every field except wall_seconds must be identical across the
// t1/t2/t8 scenarios — that is the PR 1 determinism contract, and the
// baseline diff enforces it hash-by-hash.
void add_threads(Registry& r) {
  struct Cfg {
    std::uint64_t threads;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{1, {"threads", "smoke"}},
           Cfg{2, {"threads", "smoke"}},
           Cfg{8, {"threads"}},
       }) {
    r.add({"exec/threads/t" + std::to_string(cfg.threads),
           cfg.groups,
           "rlr matching on the " +
               std::string(cfg.threads == 1 ? "serial" : "thread-pool") +
               " backend (results must match t1 exactly)",
           [cfg](const RunContext& ctx) {
             const std::uint64_t n = ctx.scale_n(3000);
             const double c = 0.5, mu = 0.1;
             BenchResult res;
             res.algo = "rlr-mwm";
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             res.mu = mu;
             res.threads = cfg.threads;
             const graph::Graph g =
                 weighted_gnm(n, c, WeightDist::kUniform, n + 3);
             res.m = g.num_edges();
             Timer t;
             const auto out = core::rlr_matching(
                 g, scenario_params(mu, 1, cfg.threads));
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             res.failed =
                 res.failed || !graph::is_matching(g, out.matching);
             HashAcc h;
             h.mix_range(out.matching);
             h.mix(out.weight);
             // Deliberately exclude threads from the hash: equal hashes
             // across t1/t2/t8 certify backend determinism.
             res.determinism_hash = h.value();
             return res;
           }});
  }
}

// ------------------------------------------------------- process ----

// Process-sharded backend determinism: the exact exec/threads workload
// run with K persistent worker shard processes (spawned once per job).
// Every non-timing field —
// in particular the determinism hash — must equal exec/threads/t1,
// which is the cross-PROCESS extension of the PR 1 contract: the shard
// transport and coordinator merge must not perturb a single bit.
void add_process(Registry& r) {
  struct Cfg {
    std::uint64_t shards;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{1, {"process"}},
           Cfg{2, {"process", "smoke"}},
           Cfg{4, {"process", "smoke"}},
       }) {
    r.add({"exec/process/k" + std::to_string(cfg.shards),
           cfg.groups,
           "rlr matching on the process-shard backend, " +
               std::to_string(cfg.shards) +
               " persistent worker shards (results must match "
               "exec/threads/t1 exactly)",
           [cfg](const RunContext& ctx) {
             const std::uint64_t n = ctx.scale_n(3000);
             const double c = 0.5, mu = 0.1;
             BenchResult res;
             res.algo = "rlr-mwm";
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             res.mu = mu;
             res.threads = 1;
             const graph::Graph g =
                 weighted_gnm(n, c, WeightDist::kUniform, n + 3);
             res.m = g.num_edges();
             core::MrParams params = scenario_params(mu, 1, 1);
             params.num_shards = cfg.shards;
             Timer t;
             const auto out = core::rlr_matching(g, params);
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             res.failed =
                 res.failed || !graph::is_matching(g, out.matching);
             HashAcc h;
             h.mix_range(out.matching);
             h.mix(out.weight);
             // Shards excluded from the hash, like threads: equal
             // hashes across t1/k1/k2/k4 certify backend determinism.
             res.determinism_hash = h.value();
             res.extra["shards"] = static_cast<double>(cfg.shards);
             return res;
           }});
  }
}

// --------------------------------------------------------- tcp ----

// True multi-host determinism: the exact exec/threads workload run
// against forked loopback TCP workers that start from nothing — each
// job ships the full instance + params over the wire and the workers
// rebuild the driver from the spec. Equal hashes across
// t1/k1/k2/k4/tcp-k2/tcp-k4 certify that neither the transport nor the
// wire bootstrap perturbs a single bit.
void add_tcp(Registry& r) {
  struct Cfg {
    std::uint64_t shards;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{2, {"process", "smoke"}},
           Cfg{4, {"process", "smoke"}},
       }) {
    r.add({"exec/tcp/k" + std::to_string(cfg.shards),
           cfg.groups,
           "rlr matching over " + std::to_string(cfg.shards - 1) +
               " loopback TCP workers bootstrapped from the shipped "
               "job spec (results must match exec/threads/t1 exactly)",
           [cfg](const RunContext& ctx) {
             const std::uint64_t n = ctx.scale_n(3000);
             const double c = 0.5, mu = 0.1;
             BenchResult res;
             res.algo = "rlr-mwm";
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             res.mu = mu;
             res.threads = 1;
             const graph::Graph g =
                 weighted_gnm(n, c, WeightDist::kUniform, n + 3);
             res.m = g.num_edges();
             core::MrParams params = scenario_params(mu, 1, 1);
             params.num_shards = cfg.shards;
             // Fleet setup (fork + bind) stays outside the timer; the
             // measured run includes connect, handshake, bootstrap
             // shipping, and the rounds themselves.
             jobs::ScopedTcpLoopback fleet(
                 static_cast<unsigned>(cfg.shards - 1));
             exec::ProcessBackendConfig pbc;
             pbc.workers = fleet.endpoints();
             pbc.job_spec = jobs::encode_job_spec(
                 jobs::graph_job("matching", g, params));
             exec::ScopedProcessBackendConfig guard(std::move(pbc));
             Timer t;
             const auto out = core::rlr_matching(g, params);
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             res.failed =
                 res.failed || !graph::is_matching(g, out.matching);
             HashAcc h;
             h.mix_range(out.matching);
             h.mix(out.weight);
             res.determinism_hash = h.value();
             res.extra["shards"] = static_cast<double>(cfg.shards);
             return res;
           }});
  }
}

// ---------------------------------------------------- composed ----

// --threads x --shards composition: the exact exec/threads workload run
// with K process shards, each executing its machine range on a
// shard-local pool of T threads (K x T concurrent callbacks). Hashes
// must equal exec/threads/t1 — the composition must not perturb a
// single bit, whether the shards are forked or bootstrapped over TCP.
void add_composed(Registry& r) {
  struct Cfg {
    std::uint64_t shards;
    std::uint64_t threads;
    bool tcp;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{2, 4, false, {"process", "smoke"}},
           Cfg{4, 2, false, {"process"}},
           Cfg{2, 4, true, {"process", "smoke"}},
       }) {
    const std::string name = std::string(cfg.tcp ? "exec/tcp/k"
                                                 : "exec/process/k") +
                             std::to_string(cfg.shards) + "xt" +
                             std::to_string(cfg.threads);
    r.add({name,
           cfg.groups,
           "rlr matching on " + std::to_string(cfg.shards) +
               (cfg.tcp ? " TCP worker shards x " : " process shards x ") +
               std::to_string(cfg.threads) +
               " shard-local threads (results must match exec/threads/t1 "
               "exactly)",
           [cfg](const RunContext& ctx) {
             const std::uint64_t n = ctx.scale_n(3000);
             const double c = 0.5, mu = 0.1;
             BenchResult res;
             res.algo = "rlr-mwm";
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             res.mu = mu;
             res.threads = cfg.threads;
             const graph::Graph g =
                 weighted_gnm(n, c, WeightDist::kUniform, n + 3);
             res.m = g.num_edges();
             core::MrParams params = scenario_params(mu, 1, cfg.threads);
             params.num_shards = cfg.shards;
             std::optional<jobs::ScopedTcpLoopback> fleet;
             std::optional<exec::ScopedProcessBackendConfig> guard;
             if (cfg.tcp) {
               fleet.emplace(static_cast<unsigned>(cfg.shards - 1));
               exec::ProcessBackendConfig pbc;
               pbc.workers = fleet->endpoints();
               pbc.job_spec = jobs::encode_job_spec(
                   jobs::graph_job("matching", g, params));
               guard.emplace(std::move(pbc));
             }
             Timer t;
             const auto out = core::rlr_matching(g, params);
             res.wall_seconds = t.elapsed();
             fill_outcome(res, out.outcome);
             res.quality = out.weight;
             res.failed =
                 res.failed || !graph::is_matching(g, out.matching);
             HashAcc h;
             h.mix_range(out.matching);
             h.mix(out.weight);
             // Shards and threads are both excluded from the hash:
             // equal hashes across t1 and every kKxtT certify that the
             // composition is invisible in the output.
             res.determinism_hash = h.value();
             res.extra["shards"] = static_cast<double>(cfg.shards);
             return res;
           }});
  }
}

// Per-driver process smoke: every ported driver runs the identical
// pinned instance twice — serial, then on K=4 persistent worker
// shards — and the scenario fails on any fingerprint mismatch. The
// fingerprint mixes the full result vector, the exact weight, and the
// engine cost metrics, so the check is the in-registry version of the
// test_exec byte-identity suite and runs in the smoke CI job on every
// push. The reported hash is the serial one (shards never perturb it;
// that is the point).
void add_process_drivers(Registry& r) {
  // Runs one driver at the given shard count; returns the fingerprint
  // and fills the result's cost/quality fields from that run.
  using DriverFn =
      std::function<std::uint64_t(std::uint64_t shards, BenchResult& res)>;
  struct Cfg {
    std::string name;  // exec/process/<name>
    std::string algo;
    DriverFn run;
  };

  const auto graph_instance = [] {
    return weighted_gnm(900, 0.5, WeightDist::kUniform, 911);
  };
  const auto cover_instance = [] {
    Rng rng(4242);
    return setcover::many_sets(400, 52, 12, WeightDist::kUniform, rng);
  };
  const auto mix_outcome = [](HashAcc& h, const core::MrOutcome& o) {
    h.mix(o.rounds);
    h.mix(o.iterations);
    h.mix(o.max_machine_words);
    h.mix(o.max_central_inbox);
    h.mix(o.total_communication);
    h.mix(static_cast<std::uint64_t>(o.failed));
  };
  const auto params_k = [](double mu, std::uint64_t seed,
                           std::uint64_t shards) {
    core::MrParams p = scenario_params(mu, seed, 1);
    p.num_shards = shards;
    return p;
  };

  const std::vector<Cfg> cfgs = {
      {"setcover-f", "rlr-setcover-f",
       [=](std::uint64_t shards, BenchResult& res) {
         const auto sys = cover_instance();
         res.n = sys.num_sets();
         res.m = sys.total_incidences();
         const auto out =
             core::rlr_set_cover(sys, params_k(0.3, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = out.weight;
         res.failed =
             res.failed || !setcover::is_cover(sys, out.cover);
         HashAcc h;
         h.mix_range(out.cover);
         h.mix(out.weight);
         h.mix(out.lower_bound);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"setcover-greedy", "hungry-greedy-setcover",
       [=](std::uint64_t shards, BenchResult& res) {
         const auto sys = cover_instance();
         res.n = sys.num_sets();
         res.m = sys.total_incidences();
         const auto out = core::greedy_set_cover_mr(
             sys, /*eps=*/0.3, params_k(0.3, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = out.weight;
         res.failed =
             res.failed || !setcover::is_cover(sys, out.cover);
         HashAcc h;
         h.mix_range(out.cover);
         h.mix(out.weight);
         h.mix(out.preprocessed_sets);
         h.mix(out.sampling_failures);
         h.mix(out.level_drops);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"sample-prune-setcover", "sample-prune-setcover",
       [=](std::uint64_t shards, BenchResult& res) {
         const auto sys = cover_instance();
         res.n = sys.num_sets();
         res.m = sys.total_incidences();
         const auto out = baselines::sample_prune_set_cover(
             sys, /*eps=*/0.3, params_k(0.3, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = out.weight;
         res.failed =
             res.failed || !setcover::is_cover(sys, out.cover);
         HashAcc h;
         h.mix_range(out.cover);
         h.mix(out.weight);
         h.mix(out.level_drops);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"bmatching", "rlr-bmatching",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         std::vector<std::uint32_t> b(g.num_vertices());
         for (std::size_t v = 0; v < b.size(); ++v) {
           b[v] = 1 + static_cast<std::uint32_t>(v % 3);
         }
         const auto out = core::rlr_b_matching(
             g, b, /*eps=*/0.25, params_k(0.25, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = out.weight;
         res.failed =
             res.failed || !graph::is_b_matching(g, out.matching, b);
         HashAcc h;
         h.mix_range(out.matching);
         h.mix(out.weight);
         h.mix(out.stack_size);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"mis", "hungry-mis-improved",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out =
             core::hungry_mis_improved(g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = static_cast<double>(out.independent_set.size());
         res.failed = res.failed ||
                      !graph::is_independent_set(g, out.independent_set);
         HashAcc h;
         h.mix_range(out.independent_set);
         h.mix(out.phases);
         h.mix(out.central_adds);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"mis-simple", "hungry-mis-simple",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out =
             core::hungry_mis_simple(g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = static_cast<double>(out.independent_set.size());
         res.failed = res.failed ||
                      !graph::is_independent_set(g, out.independent_set);
         HashAcc h;
         h.mix_range(out.independent_set);
         h.mix(out.phases);
         h.mix(out.central_adds);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"luby-mis", "luby-mis",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out =
             baselines::luby_mis_mr(g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = static_cast<double>(out.independent_set.size());
         res.failed = res.failed ||
                      !graph::is_independent_set(g, out.independent_set);
         HashAcc h;
         h.mix_range(out.independent_set);
         h.mix(out.phases);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"clique", "hungry-clique",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out =
             core::hungry_clique(g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = static_cast<double>(out.clique.size());
         res.failed = res.failed || !graph::is_clique(g, out.clique);
         HashAcc h;
         h.mix_range(out.clique);
         h.mix(out.central_adds);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"colour-vertex", "mr-vertex-colouring",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out =
             core::mr_vertex_colouring(g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = static_cast<double>(out.colours_used);
         HashAcc h;
         h.mix_range(out.colour);
         h.mix(out.colours_used);
         h.mix(out.groups);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"colour-edge", "mr-edge-colouring",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out =
             core::mr_edge_colouring(g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = static_cast<double>(out.colours_used);
         HashAcc h;
         h.mix_range(out.colour);
         h.mix(out.colours_used);
         h.mix(out.groups);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"luby-colouring", "luby-colouring",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out =
             baselines::luby_colouring_mr(g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = static_cast<double>(out.colours_used);
         HashAcc h;
         h.mix_range(out.colour);
         h.mix(out.colours_used);
         h.mix(out.phases);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"coreset-matching", "coreset-matching",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out =
             baselines::coreset_matching(g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = out.weight;
         res.failed =
             res.failed || !graph::is_matching(g, out.matching);
         HashAcc h;
         h.mix_range(out.matching);
         h.mix(out.weight);
         h.mix(out.coreset_union_size);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"filtering-matching", "filtering-matching",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out =
             baselines::filtering_matching(g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = static_cast<double>(out.matching.size());
         res.failed =
             res.failed || !graph::is_matching(g, out.matching);
         HashAcc h;
         h.mix_range(out.matching);
         h.mix(out.weight);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
      {"filtering-weighted", "filtering-weighted-matching",
       [=](std::uint64_t shards, BenchResult& res) {
         const graph::Graph g = graph_instance();
         res.n = g.num_vertices();
         res.m = g.num_edges();
         const auto out = baselines::filtering_weighted_matching(
             g, params_k(0.15, 1, shards));
         fill_outcome(res, out.outcome);
         res.quality = out.weight;
         res.failed =
             res.failed || !graph::is_matching(g, out.matching);
         HashAcc h;
         h.mix_range(out.matching);
         h.mix(out.weight);
         mix_outcome(h, out.outcome);
         return h.value();
       }},
  };

  for (const Cfg& cfg : cfgs) {
    r.add({"exec/process/" + cfg.name,
           {"process", "smoke"},
           cfg.algo + " serial vs 4 persistent worker shards "
                      "(self-checking: fails on any fingerprint drift)",
           [cfg](const RunContext&) {
             BenchResult res;
             res.algo = cfg.algo;
             res.family = "gnm-density";
             res.threads = 1;
             Timer t;
             const std::uint64_t serial_hash = cfg.run(1, res);
             BenchResult sharded;
             const std::uint64_t shard_hash = cfg.run(4, sharded);
             res.wall_seconds = t.elapsed();
             res.failed =
                 res.failed || sharded.failed || serial_hash != shard_hash;
             res.determinism_hash = serial_hash;
             res.extra["shards"] = 4.0;
             return res;
           }});
  }
}

// --------------------------------------------------------- large ----

// Nightly-scale instances (10^6+ edges): not part of smoke — the
// nightly-large workflow runs `bench --group all` on a schedule and
// feeds the results into the trajectory tracker. Seeds are pinned like
// every other scenario, so the nightly curves are comparable across
// commits.
void add_large(Registry& r) {
  r.add({"large/matching/n40000-c0.32",
         {"large"},
         "rlr matching, ~1.2M-edge weighted gnm (nightly scale)",
         [](const RunContext& ctx) {
           const std::uint64_t n = ctx.scale_n(40000);
           // mu = 0.1 keeps 4*eta well below m, so the nightly curve
           // tracks the real multi-iteration sampling path, not the
           // ship-all endgame.
           const double c = 0.32, mu = 0.1;
           BenchResult res;
           res.algo = "rlr-mwm";
           res.family = "gnm-density";
           res.n = n;
           res.c = c;
           res.mu = mu;
           res.threads = exec_threads(ctx);
           const graph::Graph g =
               weighted_gnm(n, c, WeightDist::kUniform, n + 17);
           res.m = g.num_edges();
           const auto sq = seq::local_ratio_matching(g);
           Timer t;
           const auto out = core::rlr_matching(g, exec_params(mu, 1, ctx));
           res.wall_seconds = t.elapsed();
           fill_outcome(res, out.outcome);
           res.quality = out.weight;
           res.quality_vs_baseline =
               sq.weight > 0 ? out.weight / sq.weight : 0.0;
           res.failed = res.failed || !graph::is_matching(g, out.matching);
           HashAcc h;
           h.mix_range(out.matching);
           h.mix(out.weight);
           res.determinism_hash = h.value();
           return res;
         }});

  r.add({"large/mis-improved/n40000-c0.32",
         {"large"},
         "hungry MIS (Alg 6), ~1.2M-edge gnm (nightly scale)",
         [](const RunContext& ctx) {
           const std::uint64_t n = ctx.scale_n(40000);
           const double c = 0.32, mu = 0.25;
           BenchResult res;
           res.algo = "mis-improved";
           res.family = "gnm-density";
           res.n = n;
           res.c = c;
           res.mu = mu;
           res.threads = ctx.threads;
           Rng rng(n + 40);
           const graph::Graph g = graph::gnm_density(n, c, rng);
           res.m = g.num_edges();
           Timer t;
           const auto out = core::hungry_mis_improved(
               g, scenario_params(mu, 1, ctx.threads));
           res.wall_seconds = t.elapsed();
           fill_outcome(res, out.outcome);
           res.quality = static_cast<double>(out.independent_set.size());
           res.failed =
               res.failed ||
               !graph::is_maximal_independent_set(g, out.independent_set);
           HashAcc h;
           h.mix_range(out.independent_set);
           res.determinism_hash = h.value();
           return res;
         }});

  r.add({"large/colour-vertex/n40000-c0.32",
         {"large"},
         "mr vertex colouring, ~1.2M-edge gnm (nightly scale)",
         [](const RunContext& ctx) {
           const std::uint64_t n = ctx.scale_n(40000);
           const double c = 0.32, mu = 0.2;
           BenchResult res;
           res.algo = "mr-colour-vertex";
           res.family = "gnm-density";
           res.n = n;
           res.c = c;
           res.mu = mu;
           res.threads = ctx.threads;
           Rng rng(n + 12);
           const graph::Graph g = graph::gnm_density(n, c, rng);
           res.m = g.num_edges();
           Timer t;
           const auto out = core::mr_vertex_colouring(
               g, scenario_params(mu, 1, ctx.threads));
           res.wall_seconds = t.elapsed();
           res.failed = out.failed;
           fill_outcome(res, out.outcome);
           res.quality = static_cast<double>(out.colours_used);
           res.failed =
               res.failed ||
               !graph::is_proper_vertex_colouring(g, out.colour);
           HashAcc h;
           h.mix_range(out.colour);
           h.mix(out.colours_used);
           res.determinism_hash = h.value();
           res.extra["colours_over_delta"] =
               g.max_degree() > 0
                   ? res.quality / static_cast<double>(g.max_degree())
                   : 0.0;
           return res;
         }});

  r.add({"large/setcover-greedy/k4",
         {"large"},
         "hungry greedy set cover, ~1M-incidence system on 4 persistent "
         "worker shards (nightly-scale process backend)",
         [](const RunContext& ctx) {
           const std::uint64_t sets = ctx.scale_n(100000);
           const std::uint64_t universe = std::max<std::uint64_t>(
               2, sets / 8);
           BenchResult res;
           res.algo = "hungry-greedy-setcover";
           res.family = "many-sets";
           res.n = sets;
           res.mu = 0.3;
           res.threads = 1;
           Rng rng(sets + 9);
           const auto sys = setcover::many_sets(
               sets, universe, 20, WeightDist::kUniform, rng);
           res.m = sys.total_incidences();
           core::MrParams params = scenario_params(0.3, 1, 1);
           params.num_shards = 4;
           Timer t;
           const auto out =
               core::greedy_set_cover_mr(sys, /*eps=*/0.3, params);
           res.wall_seconds = t.elapsed();
           fill_outcome(res, out.outcome);
           res.quality = out.weight;
           res.failed =
               res.failed || !setcover::is_cover(sys, out.cover);
           HashAcc h;
           h.mix_range(out.cover);
           h.mix(out.weight);
           res.determinism_hash = h.value();
           res.extra["shards"] = 4.0;
           return res;
         }});

  r.add({"large/io/mgb-load-m2e6",
         {"large"},
         "binary .mgb end-to-end load, 2M weighted edges (nightly scale)",
         [](const RunContext& ctx) {
           namespace fs = std::filesystem;
           const std::uint64_t n = ctx.scale_n(500000);
           const std::uint64_t m = 4 * n;
           BenchResult res;
           res.algo = "graph-io-load";
           res.family = "gnm-weighted";
           res.n = n;
           res.m = m;
           res.format = "mgb";
           res.threads = 1;
           Rng rng(42);
           graph::Graph g = graph::gnm(n, m, rng);
           g = g.with_weights(
               graph::random_edge_weights(g, WeightDist::kUniform, rng));
           const std::string path =
               (fs::temp_directory_path() / "mrlr_bench_large_io.mgb")
                   .string();
           graph::write_graph_file(g, path);
           std::optional<graph::Graph> back;
           Timer t;
           back.emplace(graph::read_graph_file(path));
           res.wall_seconds = t.elapsed();
           res.failed = !(back->num_vertices() == g.num_vertices() &&
                          back->edges() == g.edges() &&
                          back->weights() == g.weights());
           graph::GraphData d;
           d.n = back->num_vertices();
           d.weighted = back->weighted();
           d.edges = back->edges();
           d.weights = back->weights();
           res.determinism_hash = hash_graph_data(d);
           res.extra["edges_per_sec"] =
               per_second(static_cast<double>(m), res.wall_seconds);
           std::error_code ec;
           fs::remove(path, ec);
           return res;
         }});

  r.add({"large/shuffle/tiny-arena-m1e6",
         {"large"},
         "arena shuffle throughput, ~1M-edge instance (nightly scale)",
         [](const RunContext& ctx) {
           const std::uint64_t n = ctx.scale_n(10000);
           const double c = 0.5;
           BenchResult res;
           res.algo = "shuffle-arena";
           res.family = "shuffle-tiny";
           res.n = n;
           res.c = c;
           res.mu = 0.15;
           res.threads = 1;
           const graph::Graph g =
               weighted_gnm(n, c, WeightDist::kUniform, n + 1);
           res.m = g.num_edges();
           const std::uint64_t eta = ipow_real(n, 1.15, 1);
           const std::uint64_t machines = std::max<std::uint64_t>(
               2,
               ceil_div(std::max<std::uint64_t>(g.num_edges(), 1), eta));
           const std::uint64_t rounds = 2;
           const ShuffleStats s =
               run_shuffle(g, machines, ShufflePattern::kTiny,
                           ShufflePath::kArena, rounds);
           res.wall_seconds = s.seconds;
           res.rounds = rounds + 1;
           res.shuffle_words = s.total_sent;
           res.extra["messages"] = static_cast<double>(s.messages);
           res.extra["msgs_per_sec"] =
               per_second(static_cast<double>(s.messages), s.seconds);
           res.extra["machines"] = static_cast<double>(machines);
           HashAcc h;
           h.mix(s.checksum);
           h.mix(s.total_sent);
           res.determinism_hash = h.value();
           return res;
         }});
}

}  // namespace

// ------------------------------------------------------- serve ----

// Service-mode throughput and correctness: a ServeDaemon forked on an
// ephemeral loopback port executes 8 pinned jobs submitted by C
// concurrent clients through the full submit -> admission -> fork ->
// result pipeline. Standalone run_job fingerprints are computed untimed
// first, and the scenario fails if any daemon-returned result deviates
// by a byte or the daemon does not exit 0. The determinism hash mixes
// only the standalone fingerprints, so serve/jobs/c1 and serve/jobs/c4
// must report the identical hash — admission and concurrency must be
// invisible in the answers. jobs_per_sec and the latency percentiles
// (submit-to-result p50/p99, queue-wait and run p50) are informational
// (extra, never diffed).
void add_serve(Registry& r) {
  struct Cfg {
    std::uint64_t clients;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{1, {"serve", "smoke"}},
           Cfg{4, {"serve", "smoke"}},
       }) {
    r.add({"serve/jobs/c" + std::to_string(cfg.clients),
           cfg.groups,
           "8 pinned jobs (weighted matching + MIS) through mrlr_serve "
           "admission and fork-per-job execution on loopback, " +
               std::to_string(cfg.clients) +
               " concurrent client(s); every result must be "
               "byte-identical to standalone run_job",
           [cfg](const RunContext& ctx) {
             const std::uint64_t n = ctx.scale_n(400);
             const double c = 0.5, mu = 0.2;
             BenchResult res;
             res.algo = "serve-jobs";
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             res.mu = mu;
             res.threads = cfg.clients;

             // 8 pinned jobs: 4 weighted matchings, 4 MIS runs.
             std::vector<jobs::JobSpec> specs;
             for (std::uint64_t s = 1; s <= 4; ++s) {
               const graph::Graph gw =
                   weighted_gnm(n, c, WeightDist::kUniform, n + s);
               specs.push_back(jobs::graph_job("matching", gw,
                                               scenario_params(mu, s)));
               Rng rng(n + 16 + s);
               const graph::Graph gu = graph::gnm_density(n, c, rng);
               specs.push_back(
                   jobs::graph_job("mis", gu, scenario_params(mu, s)));
             }

             // Untimed reference answers; the hash and quality come
             // from these, never from the daemon's copies.
             std::vector<std::string> standalone;
             HashAcc h;
             double quality = 0.0;
             for (const jobs::JobSpec& s : specs) {
               const jobs::JobResult ref = jobs::run_job(s);
               quality += static_cast<double>(ref.solution_size);
               standalone.push_back(jobs::fingerprint(ref));
               h.mix(standalone.back());
             }

             serve::ServeOptions opts;
             opts.max_running = std::max<std::uint64_t>(cfg.clients, 1);
             // Forked before any client thread exists.
             serve::SpawnedDaemon daemon(opts);

             std::atomic<bool> mismatch{false};
             // Per client, in seconds: submit-to-result latency and the
             // daemon's queue-wait / run split of it.
             std::vector<std::vector<double>> latency(cfg.clients),
                 queue_wait(cfg.clients), run(cfg.clients);
             Timer t;
             std::vector<std::thread> clients;
             for (std::uint64_t ci = 0; ci < cfg.clients; ++ci) {
               clients.emplace_back([&, ci] {
                 try {
                   serve::ServeClient client(daemon.endpoint());
                   for (std::size_t j = ci; j < specs.size();
                        j += cfg.clients) {
                     const Timer job;
                     if (!client.submit(specs[j]).accepted) {
                       mismatch = true;
                       return;
                     }
                     const serve::ResultReply reply =
                         client.wait_result();
                     latency[ci].push_back(job.elapsed());
                     queue_wait[ci].push_back(
                         static_cast<double>(reply.queue_wait_ns) / 1e9);
                     run[ci].push_back(static_cast<double>(reply.run_ns) /
                                       1e9);
                     if (!reply.ok ||
                         jobs::fingerprint(
                             serve::ServeClient::decode_result(reply)) !=
                             standalone[j]) {
                       mismatch = true;
                       return;
                     }
                   }
                 } catch (const std::exception&) {
                   mismatch = true;
                 }
               });
             }
             for (std::thread& th : clients) th.join();
             res.wall_seconds = t.elapsed();

             res.failed = !daemon.shutdown() || mismatch.load();
             res.quality = quality;
             res.determinism_hash = h.value();
             res.extra["clients"] = static_cast<double>(cfg.clients);
             res.extra["jobs"] = static_cast<double>(specs.size());
             if (res.wall_seconds > 0.0) {
               res.extra["jobs_per_sec"] =
                   static_cast<double>(specs.size()) / res.wall_seconds;
             }
             const auto ms = [](const std::vector<std::vector<double>>& v,
                                double q) {
               std::vector<double> all;
               for (const std::vector<double>& c : v) {
                 all.insert(all.end(), c.begin(), c.end());
               }
               return all.empty() ? 0.0 : 1e3 * mrlr::percentile(all, q);
             };
             res.extra["latency_ms_p50"] = ms(latency, 0.5);
             res.extra["latency_ms_p99"] = ms(latency, 0.99);
             res.extra["queue_wait_ms_p50"] = ms(queue_wait, 0.5);
             res.extra["run_ms_p50"] = ms(run, 0.5);
             return res;
           }});
  }
}

void register_builtin_scenarios(Registry& r) {
  add_f1_matching(r);
  add_f1_vertex_cover(r);
  add_f1_setcover_f(r);
  add_f1_setcover_greedy(r);
  add_f1_bmatching(r);
  add_f1_mis(r);
  add_f1_clique(r);
  add_f1_colouring(r);
  add_rounds_scaling(r);
  add_space_scaling(r);
  add_shuffle(r);
  add_io(r);
  add_threads(r);
  add_process(r);
  add_tcp(r);
  add_composed(r);
  add_process_drivers(r);
  add_serve(r);
  add_large(r);
}

}  // namespace mrlr::bench
