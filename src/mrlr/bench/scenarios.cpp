// Built-in scenario definitions for `mrlr_cli bench`, the one bench
// harness.
//
// Every scenario pins its instance seed, so all non-timing fields
// (rounds, space, quality, determinism hash) are exactly reproducible
// and diffable against bench/baseline.json. A scenario whose subject is
// a jobs-registry algorithm builds a jobs::JobSpec on its pinned
// instance and runs it through run_job_row, which applies the session
// backend and takes the row's cost columns, quality, validity and
// determinism hash (jobs::determinism_hash) from the JobResult. Only
// the rows whose subject is not a registry driver (shuffle, io, the
// broadcast tree, the streaming and sample-and-prune comparisons, the
// serve daemon) measure and hash by hand. Groups:
//   paper-f1     — Figure 1 rows: solution quality vs a sequential
//                  reference plus the round/space cost columns;
//   rounds-vs-mu — round-scaling curves (Thm 2.3/5.5 bound, Alg 2 vs 6,
//                  the mu = 0 log-n regime);
//   space-vs-c   — space tracking n^{1+mu} (not m) and the broadcast
//                  tree ablation;
//   shuffle      — flat-arena message shuffle throughput;
//   io           — text vs .mgb ingestion throughput;
//   threads      — executor backend scaling (determinism across 1/2/8);
//   process      — fork and TCP shard backends, plus one serial-vs-K=4
//                  scenario per jobs-registry algorithm;
//   serve        — the job daemon under 1 and 4 concurrent clients;
//   compare      — FIG-CMP1-5: RLR vs the baselines and the technique's
//                  ablations (not in smoke, not in the baseline);
//   large        — nightly-scale instances;
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

#include "mrlr/baselines/sample_prune_setcover.hpp"
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
#include "mrlr/exec/executor.hpp"
#include "mrlr/exec/worker_launcher.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/serve/client.hpp"
#include "mrlr/serve/protocol.hpp"
#include "mrlr/serve/spawn.hpp"
#include "mrlr/seq/misra_gries.hpp"
#include "mrlr/seq/streaming_matching.hpp"
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

/// `value` relative to a reference value; 0 when the reference is not
/// positive (the schema's "n/a").
double ratio(double value, double reference) {
  return reference > 0 ? value / reference : 0.0;
}

void fill_outcome(BenchResult& r, const core::MrOutcome& o) {
  r.rounds = o.rounds;
  r.iterations = o.iterations;
  r.max_machine_words = o.max_machine_words;
  r.max_central_inbox = o.max_central_inbox;
  r.shuffle_words = o.total_communication;
  r.failed = r.failed || o.failed || o.space_violations > 0;
}

/// Applies the backend `ctx` selects to `p`: ctx.threads threads (per
/// shard under the process backend) and, under the process backend,
/// ctx.shards persistent worker shards. The point that runs is recorded
/// in `res` (the resolved thread count, so 0 reads as the pool size it
/// makes, and extra["shards"]), so the run manifest reports it.
/// Every driver is process-clean, so no result column may depend on it.
void use_backend(core::MrParams& p, const RunContext& ctx,
                 BenchResult& res) {
  p.num_threads = ctx.threads;
  res.threads = exec::resolve_num_threads(ctx.threads);
  if (ctx.process_backend) {
    p.num_shards = ctx.shards;
    res.extra["shards"] = static_cast<double>(ctx.shards);
  }
}

/// The solution value a JobResult reports: the weight for weighted
/// problems, the colour count for colourings, else the solution size.
double job_quality(const jobs::JobResult& r) {
  if (r.stat("weight") != nullptr) return r.stat_double("weight");
  if (r.stat("colours") != nullptr) {
    return static_cast<double>(r.stat_count("colours"));
  }
  return static_cast<double>(r.solution_size);
}

/// The one way a scenario runs a registry driver: `spec` at the backend
/// `ctx` selects, timed around jobs::run_job (instance decode, driver
/// and validator). The row takes its cost columns from the outcome, its
/// quality from job_quality, its hash from jobs::determinism_hash, and
/// fails on an invalid solution, a failed outcome or a space violation.
/// The row's mu is the spec's. Returns the result, whose stats (stack,
/// drops, lb, groups, ...) feed the row's own extras.
jobs::JobResult run_job_row(jobs::JobSpec spec, const RunContext& ctx,
                            BenchResult& res) {
  res.mu = spec.params.mu;
  use_backend(spec.params, ctx, res);
  const Timer t;
  jobs::JobResult out = jobs::run_job(spec);
  res.wall_seconds = t.elapsed();
  fill_outcome(res, out.outcome);
  res.quality = job_quality(out);
  res.failed = res.failed || !out.valid;
  res.determinism_hash = jobs::determinism_hash(out);
  return out;
}

// ------------------------------------------------------ paper-f1 ----

// Figure 1 rows: max weight matching (Theorem 5.6; mu = 0 is the
// Appendix C regime), and the same family at nightly scale. Baseline:
// sequential local ratio (same ratio-2 guarantee).
void add_f1_matching(Registry& r) {
  struct Cfg {
    std::string name;
    std::uint64_t n;
    double c, mu;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{"f1/matching/n1000-c0.40-mu0.20", 1000, 0.4, 0.2,
               {"paper-f1", "smoke"}},
           Cfg{"f1/matching/n1000-c0.40-mu0.00", 1000, 0.4, 0.0,
               {"paper-f1"}},
           Cfg{"f1/matching/n4000-c0.50-mu0.25", 4000, 0.5, 0.25,
               {"paper-f1"}},
           // ~1.2M edges. mu = 0.1 keeps 4*eta well below m, so the
           // nightly curve tracks the real multi-iteration sampling
           // path, not the ship-all endgame.
           Cfg{"large/matching/n40000-c0.32", 40000, 0.32, 0.1, {"large"}},
       }) {
    r.add({cfg.name,
           cfg.groups,
           "rlr matching (Alg 4 / App C) vs sequential local ratio",
           [cfg](const RunContext& ctx) {
             BenchResult res;
             res.algo = cfg.mu == 0.0 ? "rlr-mwm-mu0" : "rlr-mwm";
             res.family = "gnm-density";
             res.n = cfg.n;
             res.c = cfg.c;
             const graph::Graph g = weighted_gnm(
                 cfg.n, cfg.c, WeightDist::kUniform, cfg.n + 17);
             res.m = g.num_edges();
             const jobs::JobResult out = run_job_row(
                 jobs::graph_job("matching", g, scenario_params(cfg.mu, 1)),
                 ctx, res);
             res.quality_vs_baseline =
                 ratio(res.quality, seq::local_ratio_matching(g).weight);
             res.extra["stack_size"] =
                 static_cast<double>(out.stat_count("stack"));
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
             Rng rng(7 * cfg.n + 41);
             const graph::Graph g = graph::gnm_density(cfg.n, cfg.c, rng);
             res.m = g.num_edges();
             const auto w = graph::random_vertex_weights(
                 cfg.n, WeightDist::kUniform, rng);
             jobs::JobSpec spec =
                 jobs::graph_job("vertex-cover", g, scenario_params(cfg.mu, 1));
             jobs::set_vertex_weights(spec, w);
             const jobs::JobResult out =
                 run_job_row(std::move(spec), ctx, res);
             res.quality_vs_baseline = ratio(
                 res.quality,
                 seq::local_ratio_set_cover(
                     setcover::SetSystem::vertex_cover_instance(g, w))
                     .weight);
             res.extra["ratio_vs_lower_bound"] =
                 ratio(res.quality, out.stat_double("lb"));
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
             Rng rng(cfg.sets + cfg.universe + cfg.f);
             const auto sys = setcover::bounded_frequency(
                 cfg.sets, cfg.universe, cfg.f, WeightDist::kUniform, rng);
             const jobs::JobResult out = run_job_row(
                 jobs::set_system_job("set-cover-f", sys,
                                      scenario_params(cfg.mu, 1)),
                 ctx, res);
             res.quality_vs_baseline =
                 ratio(res.quality, seq::local_ratio_set_cover(sys).weight);
             res.extra["ratio_vs_lower_bound"] =
                 ratio(res.quality, out.stat_double("lb"));
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
             Rng rng(cfg.sets + cfg.universe);
             const auto sys = setcover::many_sets(
                 cfg.sets, cfg.universe, 12, WeightDist::kUniform, rng);
             jobs::JobSpec spec = jobs::set_system_job(
                 "set-cover-greedy", sys, scenario_params(cfg.mu, 1));
             jobs::add_driver_extras(spec, {.eps = cfg.eps}, 0);
             const jobs::JobResult out =
                 run_job_row(std::move(spec), ctx, res);
             res.quality_vs_baseline =
                 ratio(res.quality, seq::greedy_set_cover(sys).weight);
             res.extra["level_drops"] =
                 static_cast<double>(out.stat_count("drops"));
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
             const graph::Graph g = weighted_gnm(
                 cfg.n, 0.45, WeightDist::kUniform, cfg.n + cfg.b);
             res.m = g.num_edges();
             jobs::JobSpec spec =
                 jobs::graph_job("b-matching", g, scenario_params(0.25, 1));
             jobs::add_driver_extras(spec, {.b = cfg.b, .eps = cfg.eps},
                                     cfg.n);
             run_job_row(std::move(spec), ctx, res);
             const std::vector<std::uint32_t> b(cfg.n, cfg.b);
             res.quality_vs_baseline =
                 ratio(res.quality, seq::greedy_b_matching(g, b).weight);
             res.extra["eps"] = cfg.eps;
             res.extra["ratio_bound"] =
                 3.0 - 2.0 / std::max(2.0, double(cfg.b)) + 2.0 * cfg.eps;
             return res;
           }});
  }
}

// Maximal independent set via hungry greedy, Alg 2 (O(1/mu^2)) and
// Alg 6 (O(c/mu)), plus the Luby-MR PRAM baseline. The Figure 1 rows
// compare the size with sequential Luby MIS (same maximality
// guarantee); the FIG-R2 rows show Alg 2 sweeps growing ~1/mu^2 while
// Alg 6 grows ~c/mu; the last row is nightly scale (~1.2M edges).
void add_mis(Registry& r) {
  struct Cfg {
    std::string name;
    std::vector<std::string> groups;
    std::string description;
    std::string algorithm;  ///< jobs-registry name
    std::uint64_t n;
    double c, mu;
    bool vs_luby;
  };
  const std::string f1 = "maximal independent set vs sequential Luby";
  const std::string r2 = "hungry MIS sweep count (Alg 2 ~1/mu^2 vs Alg 6 ~c/mu)";
  for (const Cfg& cfg : {
           Cfg{"f1/mis-simple/n1000-c0.40-mu0.25", {"paper-f1", "smoke"},
               f1, "mis-simple", 1000, 0.4, 0.25, true},
           Cfg{"f1/mis-improved/n1000-c0.40-mu0.25", {"paper-f1", "smoke"},
               f1, "mis", 1000, 0.4, 0.25, true},
           Cfg{"f1/mis-luby/n1000-c0.40-mu0.25", {"paper-f1"}, f1,
               "luby-mis", 1000, 0.4, 0.25, true},
           Cfg{"rounds/mis-simple/mu0.10", {"rounds-vs-mu"}, r2, "mis-simple",
               2000, 0.4, 0.1, false},
           Cfg{"rounds/mis-simple/mu0.30", {"rounds-vs-mu"}, r2, "mis-simple",
               2000, 0.4, 0.3, false},
           Cfg{"rounds/mis-improved/mu0.10", {"rounds-vs-mu"}, r2, "mis",
               2000, 0.4, 0.1, false},
           Cfg{"rounds/mis-improved/mu0.30", {"rounds-vs-mu"}, r2, "mis",
               2000, 0.4, 0.3, false},
           Cfg{"large/mis-improved/n40000-c0.32", {"large"},
               "hungry MIS (Alg 6), nightly scale", "mis", 40000, 0.32, 0.25,
               false},
       }) {
    r.add({cfg.name, cfg.groups, cfg.description,
           [cfg](const RunContext& ctx) {
             BenchResult res;
             // The row's label: mis-simple, mis-improved or mis-luby.
             res.algo = cfg.algorithm == "mis"        ? "mis-improved"
                        : cfg.algorithm == "luby-mis" ? "mis-luby"
                                                      : cfg.algorithm;
             res.family = "gnm-density";
             res.n = cfg.n;
             res.c = cfg.c;
             Rng rng(cfg.n + 40);
             const graph::Graph g = graph::gnm_density(cfg.n, cfg.c, rng);
             res.m = g.num_edges();
             const std::uint64_t seed = cfg.algorithm == "luby-mis" ? 2 : 1;
             run_job_row(
                 jobs::graph_job(cfg.algorithm, g, scenario_params(cfg.mu, seed)),
                 ctx, res);
             if (cfg.vs_luby) {
               Rng seq_rng(99);
               res.quality_vs_baseline =
                   ratio(res.quality,
                         static_cast<double>(
                             seq::luby_mis(g, seq_rng).independent_set.size()));
             }
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
             Rng rng(cfg.n * 3 + 5);
             const graph::Graph g = graph::planted_clique(
                 cfg.n, ipow_real(cfg.n, 1.0 + cfg.c), cfg.n / 20, rng);
             res.m = g.num_edges();
             run_job_row(jobs::graph_job("clique", g, scenario_params(cfg.mu, 1)),
                         ctx, res);
             res.quality_vs_baseline = ratio(
                 res.quality, static_cast<double>(seq::greedy_clique(g).size()));
             return res;
           }});
  }
}

// Figure 1 rows: (1+o(1))*Delta vertex / edge colouring (Thm 6.4/6.6).
// Baselines: greedy (Delta+1) for vertices, Misra-Gries (Delta+1) for
// edges — colour-count ratios, lower is better. The nightly-scale row
// (~1.2M edges) reports no baseline.
void add_f1_colouring(Registry& r) {
  struct Cfg {
    std::string name;
    std::string kind;
    std::uint64_t n;
    double c;
    bool vs_delta_plus_1;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{"f1/colour-vertex/n1000-c0.40-mu0.20", "vertex", 1000, 0.4,
               true, {"paper-f1", "smoke"}},
           Cfg{"f1/colour-edge/n1000-c0.40-mu0.20", "edge", 1000, 0.4, true,
               {"paper-f1"}},
           Cfg{"f1/colour-vertex/n4000-c0.40-mu0.20", "vertex", 4000, 0.4,
               true, {"paper-f1"}},
           Cfg{"large/colour-vertex/n40000-c0.32", "vertex", 40000, 0.32,
               false, {"large"}},
       }) {
    r.add({cfg.name,
           cfg.groups,
           "mr " + cfg.kind + " colouring (Thm 6.4/6.6) vs Delta+1 baseline",
           [cfg](const RunContext& ctx) {
             BenchResult res;
             res.algo = "mr-colour-" + cfg.kind;
             res.family = "gnm-density";
             res.n = cfg.n;
             res.c = cfg.c;
             Rng rng(cfg.n + 12);
             const graph::Graph g = graph::gnm_density(cfg.n, cfg.c, rng);
             res.m = g.num_edges();
             const jobs::JobResult out = run_job_row(
                 jobs::graph_job("colour-" + cfg.kind, g, scenario_params(0.2, 1)),
                 ctx, res);
             res.extra["colours_over_delta"] =
                 ratio(res.quality, static_cast<double>(g.max_degree()));
             if (!cfg.vs_delta_plus_1) return res;
             const std::uint64_t base_colours =
                 cfg.kind == "vertex"
                     ? graph::num_colours(seq::greedy_colouring(g))
                     : graph::num_colours(
                           seq::misra_gries_edge_colouring(g));
             res.quality_vs_baseline =
                 ratio(res.quality, static_cast<double>(base_colours));
             res.extra["groups"] =
                 static_cast<double>(out.stat_count("groups"));
             return res;
           }});
  }
}

// -------------------------------------------------- rounds-vs-mu ----

// FIG-R1: sampling iterations against the ceil(c/mu)+1 bound (a row
// that needs more iterations than the bound fails), and the mu = 0
// regime, where iterations grow ~log n with O(n) space (App C).
void add_rounds_scaling(Registry& r) {
  struct Cfg {
    std::string name;
    double c, mu;
    std::uint64_t instance_seed;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{"rounds/matching-cmu/mu0.05", 0.4, 0.05, 31, {"rounds-vs-mu"}},
           Cfg{"rounds/matching-cmu/mu0.10", 0.4, 0.10, 31, {"rounds-vs-mu"}},
           Cfg{"rounds/matching-cmu/mu0.20", 0.4, 0.20, 31,
               {"rounds-vs-mu", "smoke"}},
           Cfg{"rounds/matching-mu0/n2000", 0.45, 0.0, 77, {"rounds-vs-mu"}},
       }) {
    r.add({cfg.name,
           cfg.groups,
           cfg.mu > 0 ? "rlr matching iterations vs the ceil(c/mu)+1 bound "
                        "(Thm 5.5)"
                      : "mu = 0 matching: iterations ~ log n with O(n) "
                        "space (App C)",
           [cfg](const RunContext& ctx) {
             const std::uint64_t n = 2000;
             BenchResult res;
             res.algo = cfg.mu > 0 ? "rlr-mwm" : "rlr-mwm-mu0";
             res.family = "gnm-density";
             res.n = n;
             res.c = cfg.c;
             const graph::Graph g = weighted_gnm(n, cfg.c, WeightDist::kUniform,
                                                 cfg.instance_seed);
             res.m = g.num_edges();
             run_job_row(
                 jobs::graph_job("matching", g, scenario_params(cfg.mu, 1)),
                 ctx, res);
             const double iterations = static_cast<double>(res.iterations);
             if (cfg.mu == 0.0) {
               res.extra["iters_per_log2_n"] =
                   iterations / std::log2(static_cast<double>(n));
               return res;
             }
             const double bound = std::ceil(cfg.c / cfg.mu) + 1.0;
             res.failed = res.failed || iterations > bound;
             res.extra["iteration_bound"] = bound;
             res.extra["within_bound"] = iterations <= bound ? 1.0 : 0.0;
             return res;
           }});
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
             jobs::JobSpec spec;
             if (algo == "matching") {
               const graph::Graph g =
                   weighted_gnm(n, c, WeightDist::kUniform, 13);
               res.m = g.num_edges();
               spec = jobs::graph_job(algo, g, scenario_params(mu, 1));
             } else {
               Rng rng(n + 21);
               const graph::Graph g = graph::gnm_density(n, c, rng);
               res.m = g.num_edges();
               spec = jobs::graph_job(algo, g, scenario_params(mu, 1));
               jobs::set_vertex_weights(
                   spec, graph::random_vertex_weights(
                             n, WeightDist::kUniform, rng));
             }
             run_job_row(std::move(spec), ctx, res);
             const std::uint64_t eta = ipow_real(n, 1.0 + mu);
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
             mrc::JobBroadcast broadcast(engine, "bench");
             const auto rounds =
                 broadcast.run(std::vector<mrc::Word>(payload, 1));
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

enum class ShufflePattern { kTiny, kBatched, kCoalesced };

struct ShuffleStats {
  double seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  std::uint64_t checksum = 0;
  std::uint64_t total_sent = 0;
  std::uint64_t max_machine_words = 0;
  std::uint64_t max_central_inbox = 0;
};

/// The shuffle workload: tiny per-incidence messages (per-message
/// overhead), one batched message per vertex (per-word throughput), and
/// the tiny records coalesced per (sender, destination) the way
/// rlr_matching's forward-phi ships them, on rlr_matching's machine
/// layout. Receivers consume every word, so both encode and decode sides
/// are timed.
ShuffleStats run_shuffle(const graph::Graph& g, std::uint64_t machines,
                         ShufflePattern pattern, std::uint64_t rounds) {
  mrc::Topology topo;
  topo.num_machines = machines;
  topo.words_per_machine = 1ull << 40;  // throughput bench: never violates
  topo.fanout = 2;
  mrc::Engine engine(topo);
  const std::uint64_t n = g.num_vertices();
  ShuffleStats s;
  std::vector<std::uint64_t> sums(machines, 0);

  const auto drain = [&](mrc::MachineContext& ctx,
                         std::span<const mrc::Word>) {
    for (const mrc::MessageView msg : ctx.messages()) {
      for (const mrc::Word w : msg.payload) sums[ctx.id()] += w;
    }
  };
  const mrc::RoundId shuffle = engine.define_round(
      "shuffle",
      [&](mrc::MachineContext& ctx, std::span<const mrc::Word> params) {
        drain(ctx, params);
        for (graph::VertexId v = static_cast<graph::VertexId>(ctx.id());
             v < n; v = static_cast<graph::VertexId>(v + machines)) {
          if (pattern == ShufflePattern::kTiny) {
            for (const graph::Incidence& inc : g.neighbours(v)) {
              ctx.send(core::owner_of(inc.edge, machines),
                       {inc.edge, core::pack_double(g.weight(inc.edge))});
            }
          } else if (pattern == ShufflePattern::kCoalesced) {
            for (const graph::Incidence& inc : g.neighbours(v)) {
              ctx.send_coalesced(
                  core::owner_of(inc.edge, machines),
                  {inc.edge, core::pack_double(g.weight(inc.edge))});
            }
          } else if (g.degree(v) > 0) {
            thread_local std::vector<mrc::Word> msg;
            msg.clear();
            for (const graph::Incidence& inc : g.neighbours(v)) {
              msg.push_back(inc.edge);
              msg.push_back(core::pack_double(g.weight(inc.edge)));
            }
            ctx.send(mrc::kCentral, msg);
          }
        }
      });
  const mrc::RoundId final_drain = engine.define_round("drain", drain);

  Timer t;
  for (std::uint64_t r = 0; r < rounds; ++r) engine.invoke_round(shuffle);
  engine.invoke_round(final_drain);
  s.seconds = t.elapsed();

  for (const std::uint64_t x : sums) s.checksum += x;
  for (const auto& rm : engine.metrics().per_round()) {
    s.total_sent += rm.total_sent;
  }
  s.max_machine_words = engine.metrics().max_machine_words();
  s.max_central_inbox = engine.metrics().max_central_inbox();
  const std::uint64_t twice_m = 2 * g.num_edges();
  if (pattern == ShufflePattern::kTiny) {
    s.messages = rounds * twice_m;
    s.words = rounds * 2 * twice_m;
  } else if (pattern == ShufflePattern::kCoalesced) {
    // One message per (vertex owner, edge owner) pair with traffic.
    std::vector<char> pair(machines * machines, 0);
    for (graph::VertexId v = 0; v < n; ++v) {
      for (const graph::Incidence& inc : g.neighbours(v)) {
        pair[(v % machines) * machines + core::owner_of(inc.edge, machines)] =
            1;
      }
    }
    s.messages = rounds * static_cast<std::uint64_t>(
                              std::count(pair.begin(), pair.end(), 1));
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
  for (const char* pattern : {"tiny", "batched", "coalesced"}) {
    const std::string pat = pattern;
    r.add({"shuffle/" + pat + "-arena",
           {"shuffle", "smoke"},
           "message shuffle throughput (" + pat + " pattern)",
           [pat](const RunContext&) {
             const std::uint64_t n = 1200;
             const double c = 0.5;
             BenchResult res;
             res.algo = "shuffle-arena";
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
                 pat == "tiny"      ? ShufflePattern::kTiny
                 : pat == "batched" ? ShufflePattern::kBatched
                                    : ShufflePattern::kCoalesced,
                 rounds);
             res.wall_seconds = s.seconds;
             res.rounds = rounds + 1;  // + final drain round
             res.shuffle_words = s.total_sent;
             res.max_machine_words = s.max_machine_words;
             res.max_central_inbox = s.max_central_inbox;
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
             [fmt, operation](const RunContext&) {
               namespace fs = std::filesystem;
               const std::uint64_t n = 60000;
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
                   res.failed = !(d == g.data());
                   res.determinism_hash = hash_graph_data(d);
                 } else {
                   std::optional<graph::Graph> back;
                   res.wall_seconds = time_best_of(kReps, [&] {
                     back.emplace(graph::read_graph_file(path));
                   });
                   res.failed = !(back->data() == g.data());
                   res.determinism_hash = hash_graph_data(back->data());
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

// ------------------------------------------------------ backends ----

enum class Backend { kThreads, kProcess, kTcp };

// Executor-backend determinism: one rlr matching workload on every
// backend. exec/threads/tT runs the serial (T = 1) or thread-pool
// executor; exec/process/kK runs K persistent fork-worker shards;
// exec/tcp/kK runs against K - 1 forked loopback TCP workers that start
// from nothing and rebuild the driver from the shipped job spec; a
// kKxtT suffix gives every shard a shard-local pool of T threads.
// Threads and shards are excluded from the hash, so every row must
// report exec/threads/t1's hash: neither the executor, the shard
// transport, the coordinator merge nor the wire bootstrap may perturb
// a single bit.
void add_backends(Registry& r) {
  struct Cfg {
    Backend backend;
    std::uint64_t shards;
    std::uint64_t threads;
    std::vector<std::string> groups;
  };
  for (const Cfg& cfg : {
           Cfg{Backend::kThreads, 1, 1, {"threads", "smoke"}},
           Cfg{Backend::kThreads, 1, 2, {"threads", "smoke"}},
           Cfg{Backend::kThreads, 1, 8, {"threads"}},
           Cfg{Backend::kProcess, 1, 1, {"process"}},
           Cfg{Backend::kProcess, 2, 1, {"process", "smoke"}},
           Cfg{Backend::kProcess, 4, 1, {"process", "smoke"}},
           Cfg{Backend::kTcp, 2, 1, {"process", "smoke"}},
           Cfg{Backend::kTcp, 4, 1, {"process", "smoke"}},
           Cfg{Backend::kProcess, 2, 4, {"process", "smoke"}},
           Cfg{Backend::kProcess, 4, 2, {"process"}},
           Cfg{Backend::kTcp, 2, 4, {"process", "smoke"}},
       }) {
    const std::string k = std::to_string(cfg.shards);
    const std::string t = std::to_string(cfg.threads);
    std::string name, where;
    if (cfg.backend == Backend::kThreads) {
      name = "exec/threads/t" + t;
      where = cfg.threads == 1 ? "the serial backend"
                               : "a " + t + "-thread pool";
    } else {
      const bool tcp = cfg.backend == Backend::kTcp;
      name = (tcp ? "exec/tcp/k" : "exec/process/k") + k;
      where = k + (tcp ? " TCP worker shard" : " process shard") +
              (cfg.shards == 1 ? "" : "s");
      if (cfg.threads > 1) {
        name += "xt" + t;
        where += " x " + t + " shard-local threads";
      }
    }
    r.add({name,
           cfg.groups,
           "rlr matching on " + where +
               " (results must match exec/threads/t1 exactly)",
           [cfg](const RunContext&) {
             const std::uint64_t n = 3000;
             const double c = 0.5, mu = 0.1;
             BenchResult res;
             res.algo = "rlr-mwm";
             res.family = "gnm-density";
             res.n = n;
             res.c = c;
             const graph::Graph g =
                 weighted_gnm(n, c, WeightDist::kUniform, n + 3);
             res.m = g.num_edges();
             const RunContext pinned{cfg.threads,
                                     cfg.backend != Backend::kThreads,
                                     cfg.shards};
             jobs::JobSpec spec =
                 jobs::graph_job("matching", g, scenario_params(mu, 1));
             use_backend(spec.params, pinned, res);
             // Fleet setup (fork + bind) stays outside the timer; a TCP
             // run times connect, handshake, bootstrap shipping (the
             // workers replay the very spec the coordinator runs), and
             // the rounds themselves.
             std::optional<jobs::ScopedTcpLoopback> fleet;
             std::optional<exec::ScopedProcessBackendConfig> guard;
             if (cfg.backend == Backend::kTcp) {
               fleet.emplace(static_cast<unsigned>(cfg.shards - 1));
               exec::ProcessBackendConfig pbc;
               pbc.workers = fleet->endpoints();
               pbc.job_spec = jobs::encode_job_spec(spec);
               guard.emplace(std::move(pbc));
               res.manifest["backend"] = "tcp";
             }
             run_job_row(std::move(spec), pinned, res);
             return res;
           }});
  }
}

// ------------------------------------------------------- drivers ----

// Per-driver process smoke, generated from the jobs registry: every
// registered algorithm runs one pinned instance through jobs::run_job
// twice, serially and then on 4 persistent worker shards. The scenario
// fails unless both results are valid and their jobs::determinism_hash
// values (solution ids, every stat, the engine cost metrics) are equal.
// The reported cost and quality fields are the serial run's; the wall
// time spans both runs. The set system is sized so that both set-cover
// drivers split it over at least 4 machines (rlr set cover spreads the
// 2400 elements 400^{1.1} per machine, greedy set cover the ~21k
// incidences 2400^{1.1} per machine): the executor clamps K to the
// machine count, so a smaller system would compare serial with serial.
void add_process_drivers(Registry& r) {
  for (const jobs::AlgorithmInfo& algo : jobs::known_algorithms()) {
    const std::string name(algo.name);
    const bool on_graph = algo.instance == jobs::JobSpec::InstanceKind::kGraph;
    r.add({"exec/process/" + name,
           {"process", "smoke"},
           name + " through jobs::run_job, serial vs 4 persistent worker "
                  "shards (self-checking: fails on an invalid solution or "
                  "any hash drift)",
           [name, on_graph](const RunContext&) {
             BenchResult res;
             res.algo = name;
             jobs::JobSpec spec;
             if (on_graph) {
               const graph::Graph g =
                   weighted_gnm(900, 0.5, WeightDist::kUniform, 911);
               res.family = "gnm-density";
               res.n = g.num_vertices();
               res.m = g.num_edges();
               res.c = 0.5;
               spec = jobs::graph_job(name, g, scenario_params(0.15, 1));
               jobs::add_driver_extras(spec, {}, g.num_vertices());
             } else {
               Rng rng(4242);
               const auto sys = setcover::many_sets(
                   400, 2400, 100, WeightDist::kUniform, rng);
               res.family = "many-sets";
               res.n = sys.num_sets();
               res.m = sys.total_incidences();
               spec = jobs::set_system_job(name, sys, scenario_params(0.1, 1));
               jobs::add_driver_extras(spec, {}, 0);
             }
             run_job_row(spec, RunContext{}, res);
             spec.params.num_shards = 4;
             const Timer t;
             const jobs::JobResult sharded = jobs::run_job(spec);
             res.wall_seconds += t.elapsed();
             res.failed = res.failed || !sharded.valid ||
                          jobs::determinism_hash(sharded) !=
                              res.determinism_hash;
             res.extra["shards"] = 4.0;
             return res;
           }});
  }
}

// ------------------------------------------------------- compare ----

// The "who wins" comparisons behind Figure 1 and the ablations of the
// randomized local ratio technique (FIG-CMP1-5), one scenario per table
// row. Not in smoke: they read as tables (`bench --group compare`), and
// the committed baseline does not carry them.

std::string dist_name(WeightDist d) {
  switch (d) {
    case WeightDist::kPolarized:
      return "polarized";
    case WeightDist::kExponential:
      return "exponential";
    default:
      return "uniform";
  }
}

void add_compare(Registry& r) {
  // FIG-CMP1: weighted matching, RLR (ratio 2) vs the filtering family
  // (ratio 8 layered, unweighted). Expected: vs_baseline < 1 for the
  // baselines, with the gap largest on polarized weights.
  struct MatchingRow {
    const char* label;
    const char* algorithm;  ///< jobs-registry name
    double ratio_bound;     ///< 0: none stated
  };
  for (const WeightDist dist : {WeightDist::kPolarized,
                                WeightDist::kExponential,
                                WeightDist::kUniform}) {
    for (const MatchingRow& row :
         {MatchingRow{"rlr-mwm", "matching", 2.0},
          MatchingRow{"filtering-weighted", "filtering-weighted", 8.0},
          MatchingRow{"filtering", "filtering-matching", 0.0}}) {
      const std::string algo = row.label;
      r.add({"compare/matching/" + dist_name(dist) + "/" + algo,
             {"compare"},
             "FIG-CMP1: " + algo + " weight vs rlr matching, " +
                 dist_name(dist) + " weights (quality_vs_baseline = "
                 "weight / rlr weight)",
             [dist, row](const RunContext& ctx) {
               BenchResult res;
               res.algo = row.label;
               res.family = "gnm-" + dist_name(dist);
               res.n = 1500;
               res.c = 0.45;
               const graph::Graph g = weighted_gnm(1500, 0.45, dist, 23);
               res.m = g.num_edges();
               const core::MrParams p = scenario_params(0.25, 1);
               run_job_row(jobs::graph_job(row.algorithm, g, p), ctx, res);
               const bool is_rlr = std::string(row.algorithm) == "matching";
               const double rlr_weight =
                   is_rlr ? res.quality
                          : job_quality(jobs::run_job(
                                jobs::graph_job("matching", g, p)));
               res.quality_vs_baseline = ratio(res.quality, rlr_weight);
               if (row.ratio_bound > 0) {
                 res.extra["ratio_bound"] = row.ratio_bound;
               }
               return res;
             }});
    }
  }

  // FIG-CMP2: Algorithm 3's bucketing vs sample-and-prune. Bucketing
  // exhausts a threshold level in O(ln Phi / (mu ln m)) iterations
  // instead of one set batch at a time.
  for (const std::uint64_t sets : {400, 1200}) {
    for (const char* which : {"greedy-mr", "sample-prune", "seq-greedy"}) {
      const std::string algo = which;
      r.add({"compare/setcover/s" + std::to_string(sets) + "/" + algo,
             {"compare"},
             "FIG-CMP2: " + algo + " on " + std::to_string(sets) +
                 " sets over 300 elements (iterations, rounds, "
                 "level_drops at equal quality)",
             [sets, algo](const RunContext& ctx) {
               BenchResult res;
               res.algo = algo;
               res.family = "many-sets";
               res.n = sets;
               res.mu = 0.4;
               Rng rng(sets);
               const auto sys = setcover::many_sets(
                   sets, 300, 10, WeightDist::kExponential, rng);
               res.m = sys.total_incidences();
               if (algo == "greedy-mr") {
                 jobs::JobSpec spec = jobs::set_system_job(
                     "set-cover-greedy", sys, scenario_params(0.4, 1));
                 jobs::add_driver_extras(spec, {.eps = 0.25}, 0);
                 const jobs::JobResult out =
                     run_job_row(std::move(spec), ctx, res);
                 res.extra["level_drops"] =
                     static_cast<double>(out.stat_count("drops"));
                 return res;
               }
               std::vector<setcover::SetId> cover;
               if (algo == "sample-prune") {
                 core::MrParams p = scenario_params(0.4, 1);
                 use_backend(p, ctx, res);
                 const Timer t;
                 const auto out =
                     baselines::sample_prune_set_cover(sys, 0.25, p);
                 res.wall_seconds = t.elapsed();
                 fill_outcome(res, out.outcome);
                 res.quality = out.weight;
                 res.extra["level_drops"] =
                     static_cast<double>(out.level_drops);
                 cover = out.cover;
               } else {
                 const Timer t;
                 const auto out = seq::greedy_set_cover(sys);
                 res.wall_seconds = t.elapsed();
                 res.iterations = out.iterations;
                 res.quality = out.weight;
                 cover = out.cover;
               }
               res.failed = res.failed || !setcover::is_cover(sys, cover);
               HashAcc h;
               h.mix_range(cover);
               h.mix(res.quality);
               res.determinism_hash = h.value();
               return res;
             }});
    }
  }

  // FIG-CMP3: the sample-size multiplier trades central-machine load
  // for iterations. Expected: iterations fall and max_central_inbox
  // rises as the boost grows; the weight stays flat.
  for (const double boost : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    r.add({"compare/boost/b" + f2(boost),
           {"compare"},
           "FIG-CMP3: rlr matching at sample boost " + f2(boost) +
               " (iterations vs max_central_inbox)",
           [boost](const RunContext& ctx) {
             BenchResult res;
             res.algo = "rlr-mwm";
             res.family = "gnm-density";
             res.n = 1500;
             res.c = 0.45;
             const graph::Graph g =
                 weighted_gnm(1500, 0.45, WeightDist::kUniform, 29);
             res.m = g.num_edges();
             core::MrParams p = scenario_params(0.2, 3);
             p.sample_boost = boost;
             run_job_row(jobs::graph_job("matching", g, p), ctx, res);
             res.extra["boost"] = boost;
             return res;
           }});
  }

  // FIG-CMP4: epsilon ablation for b-matching (Section D.2). Plain
  // reductions (eps -> 0) kill edges too slowly for b >= 2. Expected:
  // iterations grow as eps -> 0 while the ratio bound tightens toward
  // 3 - 2/b.
  for (const double eps : {0.01, 0.05, 0.2, 0.5, 1.0}) {
    r.add({"compare/bmatching-eps/e" + f2(eps),
           {"compare"},
           "FIG-CMP4: rlr b-matching (b = 3) at eps " + f2(eps) +
               " (iterations vs ratio bound)",
           [eps](const RunContext& ctx) {
             BenchResult res;
             res.algo = "rlr-bmatching";
             res.family = "gnm-density";
             res.n = 1000;
             res.c = 0.45;
             const graph::Graph g =
                 weighted_gnm(1000, 0.45, WeightDist::kUniform, 31);
             res.m = g.num_edges();
             jobs::JobSpec spec =
                 jobs::graph_job("b-matching", g, scenario_params(0.25, 2));
             jobs::add_driver_extras(spec, {.b = 3, .eps = eps}, 1000);
             const jobs::JobResult out =
                 run_job_row(std::move(spec), ctx, res);
             res.extra["ratio_bound"] = 3.0 - 2.0 / 3.0 + 2.0 * eps;
             res.extra["stack_size"] =
                 static_cast<double>(out.stat_count("stack"));
             return res;
           }});
  }


  // FIG-CMP5: Paz-Schwartzman streaming vs the plain local ratio stack.
  // The eps-pruning that inspired the technique keeps the stack bounded
  // at a (2 + 2 eps) ratio. Expected: the stack shrinks as eps grows
  // and the weight degrades gently.
  for (const double eps : {0.0, 0.01, 0.1, 0.5, 1.0}) {
    const bool plain = eps == 0.0;
    r.add({plain ? std::string("compare/streaming/plain")
                 : "compare/streaming/e" + f2(eps),
           {"compare"},
           plain ? std::string("FIG-CMP5: sequential local ratio stack "
                               "(the vs_baseline reference)")
                 : "FIG-CMP5: streaming local ratio at eps " + f2(eps) +
                       " (stack_peak vs weight)",
           [eps, plain](const RunContext&) {
             BenchResult res;
             res.algo = plain ? "seq-local-ratio" : "streaming-local-ratio";
             res.family = "gnm-exponential";
             res.n = 1500;
             res.c = 0.45;
             const graph::Graph g =
                 weighted_gnm(1500, 0.45, WeightDist::kExponential, 37);
             res.m = g.num_edges();
             Timer t;
             const auto reference = seq::local_ratio_matching(g);
             res.wall_seconds = t.elapsed();
             std::vector<graph::EdgeId> edges = reference.edges;
             double weight = reference.weight;
             std::uint64_t stack = reference.stack_size;
             if (!plain) {
               const Timer ts;
               const auto out = seq::streaming_matching(g, eps);
               res.wall_seconds = ts.elapsed();
               edges = out.edges;
               weight = out.weight;
               stack = out.stack_peak;
             }
             res.quality = weight;
             res.quality_vs_baseline =
                 reference.weight > 0 ? weight / reference.weight : 0.0;
             res.failed = !graph::is_matching(g, edges);
             HashAcc h;
             h.mix_range(edges);
             h.mix(weight);
             res.determinism_hash = h.value();
             res.extra["ratio_bound"] = 2.0 + 2.0 * eps;
             res.extra["stack_peak"] = static_cast<double>(stack);
             return res;
           }});
  }
}

// --------------------------------------------------------- large ----

// Nightly-scale instances (10^6+ edges): not part of smoke — the
// nightly-large workflow runs `bench --group all` on a schedule and
// diffs the deterministic columns against the baseline. Seeds are
// pinned like every other scenario, so nightly results are comparable
// across commits. The matching, MIS and colouring rows of this group
// sit in their families' tables above.
void add_large(Registry& r) {
  r.add({"large/setcover-greedy/k4",
         {"large"},
         "hungry greedy set cover, ~1M-incidence system on 4 persistent "
         "worker shards (nightly-scale process backend)",
         [](const RunContext&) {
           const std::uint64_t sets = 100000;
           const std::uint64_t universe = std::max<std::uint64_t>(
               2, sets / 8);
           BenchResult res;
           res.algo = "hungry-greedy-setcover";
           res.family = "many-sets";
           res.n = sets;
           Rng rng(sets + 9);
           const auto sys = setcover::many_sets(
               sets, universe, 20, WeightDist::kUniform, rng);
           res.m = sys.total_incidences();
           jobs::JobSpec spec = jobs::set_system_job(
               "set-cover-greedy", sys, scenario_params(0.3, 1));
           jobs::add_driver_extras(spec, {.eps = 0.3}, 0);
           run_job_row(std::move(spec), RunContext{1, true, 4}, res);
           return res;
         }});

  r.add({"large/io/mgb-load-m2e6",
         {"large"},
         "binary .mgb end-to-end load, 2M weighted edges (nightly scale)",
         [](const RunContext&) {
           namespace fs = std::filesystem;
           const std::uint64_t n = 500000;
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
           res.failed = !(back->data() == g.data());
           res.determinism_hash = hash_graph_data(back->data());
           res.extra["edges_per_sec"] =
               per_second(static_cast<double>(m), res.wall_seconds);
           std::error_code ec;
           fs::remove(path, ec);
           return res;
         }});

  r.add({"large/shuffle/tiny-arena-m1e6",
         {"large"},
         "arena shuffle throughput, ~1M-edge instance (nightly scale)",
         [](const RunContext&) {
           const std::uint64_t n = 10000;
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
               run_shuffle(g, machines, ShufflePattern::kTiny, rounds);
           res.wall_seconds = s.seconds;
           res.rounds = rounds + 1;
           res.shuffle_words = s.total_sent;
           res.max_machine_words = s.max_machine_words;
           res.max_central_inbox = s.max_central_inbox;
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
           [cfg](const RunContext&) {
             const std::uint64_t n = 400;
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
  add_mis(r);
  add_f1_clique(r);
  add_f1_colouring(r);
  add_rounds_scaling(r);
  add_space_scaling(r);
  add_shuffle(r);
  add_io(r);
  add_backends(r);
  add_process_drivers(r);
  add_serve(r);
  add_large(r);
  add_compare(r);
}

}  // namespace mrlr::bench
