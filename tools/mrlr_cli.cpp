// Command-line driver: run any algorithm in the library on a generated
// or user-provided instance and print the solution summary plus the
// Figure-1 cost metrics (rounds, space, communication); or generate and
// convert instances on disk.
//
// Usage:
//   mrlr_cli <algorithm> [--n N] [--c C] [--mu MU] [--seed S]
//            [--eps E] [--b B] [--dist uniform|exp|int|polarized]
//            [--threads T] [--backend serial|threads|process]
//            [--shards K] [--workers HOST:PORT,...]
//            [--graph FILE] [--sets FILE]
//            [--telemetry-out FILE] [--telemetry-format jsonl|chrome]
//   mrlr_cli worker --listen [HOST:]PORT [--max-jobs N]
//   mrlr_cli serve --listen [HOST:]PORT [--budget-words W]
//            [--max-running N] [--max-conns N]
//   mrlr_cli submit <algorithm> [run flags] --connect HOST:PORT
//   mrlr_cli submit --shutdown|--stats|--health --connect HOST:PORT
//   mrlr_cli gen <family> --out FILE [family options]
//   mrlr_cli convert --in FILE --out FILE
//   mrlr_cli bench [--group G]... [--scenario NAME]... [--out FILE]
//            [--threads T] [--backend serial|threads|process]
//            [--shards K] [--list]
//            [--telemetry-out FILE] [--telemetry-format jsonl|chrome]
//
// `serve` runs the long-lived job daemon (docs/ARCHITECTURE.md,
// "Service mode"): clients submit encoded JobSpecs, the daemon admits
// them against a projected per-machine space budget, runs each in its
// own process, and streams back the JobResult. `submit` builds the same
// instance and spec `run` would, ships it, and prints byte-identical
// output.
//
// --threads and --shards compose: `--backend process --shards K
// --threads T` runs K process shards, each executing its machine range
// on a shard-local pool of T threads (docs/ARCHITECTURE.md).
//
// Graph files (--graph, gen/convert --in/--out) are read and written in
// the binary .mgb container when the path ends in ".mgb", and as plain
// text edge lists otherwise.
//
// `bench` runs named scenario groups from the registry in
// src/mrlr/bench/ (paper-f1, rounds-vs-mu, space-vs-c, shuffle, io,
// threads, smoke, all) and writes a schema-versioned JSON result file
// that tools/bench_diff can compare against bench/baseline.json.
//
// Algorithms: whatever jobs::known_algorithms() registers — the usage
// text, the worker registry, and the serve daemon's admission check all
// read that one vocabulary, so they cannot drift.
//
// Generator families (gen):
//   graph: gnm (--n --m) | gnm-density (--n --c) | gnp (--n --p) |
//          chung-lu (--n --m --beta [--strict]) |
//          bipartite (--left --right --m) | circulant (--n --d) |
//          complete | star | path | cycle (--n) |
//          planted-clique (--n --m --k)
//          any of these plus --weights uniform|exp|int|polarized
//   set systems (text only): sc-bounded-frequency (--sets --universe
//          --f) | sc-many-sets (--sets --universe --set-size) |
//          sc-planted (--sets --universe --decoys)
//
// Examples:
//   mrlr_cli matching --n 5000 --c 0.4 --mu 0.2
//   mrlr_cli gen gnm-density --n 100000 --c 0.5 --out big.mgb
//   mrlr_cli convert --in big.mgb --out big.txt
//   mrlr_cli colour-vertex --graph big.mgb

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include <signal.h>

#include "mrlr/bench/emit.hpp"
#include "mrlr/bench/runner.hpp"
#include "mrlr/core/params.hpp"
#include "mrlr/exec/shard_channel.hpp"
#include "mrlr/exec/worker_launcher.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/io.hpp"
#include "mrlr/graph/stats.hpp"
#include "mrlr/jobs/job_result.hpp"
#include "mrlr/jobs/job_spec.hpp"
#include "mrlr/jobs/report.hpp"
#include "mrlr/jobs/worker.hpp"
#include "mrlr/obs/export.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/serve/client.hpp"
#include "mrlr/serve/protocol.hpp"
#include "mrlr/serve/server.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/setcover/io.hpp"
#include "mrlr/util/text.hpp"

namespace {

struct Options {
  std::string algorithm;
  std::uint64_t n = 2000;
  double c = 0.4;
  double mu = 0.2;
  std::uint64_t seed = 1;
  double eps = 0.2;
  std::uint32_t b = 2;
  std::uint64_t threads = 1;
  std::uint64_t shards = 1;
  std::optional<std::string> backend;
  std::string workers;  ///< --workers host:port,... (empty = fork locally)
  std::string connect;  ///< submit only: the daemon's host:port
  mrlr::graph::WeightDist dist = mrlr::graph::WeightDist::kUniform;
  std::optional<std::string> graph_file;
  std::optional<std::string> sets_file;
  std::string telemetry_out;  ///< empty = telemetry stays off
  mrlr::obs::ExportFormat telemetry_format = mrlr::obs::ExportFormat::kJsonl;
};

/// Parses a --telemetry-format value; messages and returns false on an
/// unknown name.
bool parse_telemetry_format(const std::string& name,
                            mrlr::obs::ExportFormat& format) {
  if (const auto f = mrlr::obs::export_format_from_name(name)) {
    format = *f;
    return true;
  }
  std::cerr << "unknown telemetry format " << name
            << " (expected jsonl|chrome)\n";
  return false;
}

/// Writes the accumulated telemetry snapshot when --telemetry-out was
/// given. Call after the work completes (the snapshot is cumulative).
void write_telemetry_if_requested(const std::string& out,
                                  mrlr::obs::ExportFormat format) {
  if (out.empty()) return;
  mrlr::obs::write_telemetry_file(
      mrlr::obs::Telemetry::instance().snapshot(), format, out);
  // stderr, so enabling telemetry never perturbs stdout byte-identity
  // checks (CI diffs serial vs process algorithm output verbatim).
  std::cerr << "[telemetry written: " << out << "]\n";
}

/// Resolves --backend into the two primitive knobs (--threads /
/// --shards). Returns false (after a message) on an unknown backend.
bool apply_backend(const std::string& backend, std::uint64_t& threads,
                   std::uint64_t& shards) {
  if (backend == "serial") {
    threads = 1;
    shards = 1;
  } else if (backend == "threads") {
    if (threads <= 1) threads = 0;  // 0 = all hardware threads
    shards = 1;
  } else if (backend == "process") {
    // --threads passes through: the knobs compose (each shard runs its
    // machine range on a shard-local pool of T threads).
    if (shards <= 1) shards = 2;
  } else {
    std::cerr << "unknown backend " << backend
              << " (expected serial|threads|process)\n";
    return false;
  }
  return true;
}

/// The algorithm vocabulary, straight from the worker registry — the
/// same list `find_algorithm` accepts and the serve daemon admits, so
/// the help text can never drift from what actually runs.
std::string algorithm_list() {
  std::string out;
  for (const mrlr::jobs::AlgorithmInfo& a : mrlr::jobs::known_algorithms()) {
    if (!out.empty()) out += " ";
    out += a.name;
  }
  return out;
}

/// Bench group tags, straight from the scenario registry for the same
/// no-drift reason.
std::string bench_group_list() {
  std::string out;
  for (const std::string& g : mrlr::bench::builtin_registry().group_names()) {
    if (!out.empty()) out += " ";
    out += g;
  }
  return out;
}

void usage() {
  std::cerr
      << "usage: mrlr_cli <algorithm> [--n N] [--c C] [--mu MU] "
         "[--seed S] [--eps E] [--b B] [--dist D] [--threads T] "
         "[--backend serial|threads|process] [--shards K] "
         "[--workers HOST:PORT,...] "
         "[--graph FILE] [--sets FILE] "
         "[--telemetry-out FILE] [--telemetry-format jsonl|chrome]\n"
         "       mrlr_cli worker --listen [HOST:]PORT [--max-jobs N]\n"
         "       mrlr_cli serve --listen [HOST:]PORT [--budget-words W] "
         "[--max-running N] [--max-conns N]\n"
         "       mrlr_cli submit <algorithm> [run flags] "
         "--connect HOST:PORT\n"
         "       mrlr_cli submit --shutdown|--stats|--health "
         "--connect HOST:PORT\n"
         "       mrlr_cli gen <family> --out FILE [family options]\n"
         "       mrlr_cli convert --in FILE --out FILE\n"
         "       mrlr_cli bench [--group G]... [--scenario NAME]... "
         "[--out FILE] [--threads T] "
         "[--backend serial|threads|process] [--shards K] [--list] "
         "[--telemetry-out FILE] [--telemetry-format jsonl|chrome]\n"
      << "algorithms: " << algorithm_list() << "\n"
      << "gen families: gnm gnm-density gnp chung-lu bipartite "
         "circulant complete star path cycle planted-clique "
         "sc-bounded-frequency sc-many-sets sc-planted\n"
         "bench groups: "
      << bench_group_list()
      << " (mrlr_cli bench --list shows scenarios)\n"
         "--threads T: simulate machines on T threads (1 = serial, "
         "0 = all hardware threads); --backend process [--shards K]: "
         "partition machines over K persistent worker processes (every "
         "algorithm supports this; see README). The knobs compose: "
         "--shards K --threads T runs each shard's machines on a "
         "shard-local pool of T threads. Results are identical "
         "under every backend, only wall-clock changes\n"
         "--workers HOST:PORT,...: run the process backend over TCP "
         "against pre-started `mrlr_cli worker --listen` processes "
         "(one endpoint per shard beyond the coordinator's own); the "
         "full job is shipped over the wire, so workers need no shared "
         "filesystem or fork ancestry\n"
         "serve: run the long-lived job daemon — clients submit specs, "
         "the daemon admits them against --budget-words (projected "
         "words/machine across running jobs; 0 = unlimited), runs up to "
         "--max-running at once (each in its own process), and streams "
         "back results. submit: build the same instance `run` would, "
         "ship it, print byte-identical output\n"
         "--telemetry-out FILE: record phase spans/counters (off by "
         "default; does not change results) and write them at exit — "
         "jsonl for tools/trace_report, chrome for chrome://tracing "
         "or Perfetto\n"
         "graph files ending in .mgb use the binary container; "
         "anything else is a text edge list\n";
}

/// Walks the flags after argv[at] one by one. value() takes the
/// argument after the flag, and number() parses it as one whole number
/// of its target's type (the text readers' grammar, util/text.hpp). A
/// missing, malformed or out-of-range value exits 2 naming the flag.
struct Flags {
  int argc;
  char** argv;
  int at;
  std::string flag{};

  bool next() {
    if (++at >= argc) return false;
    flag = argv[at];
    return true;
  }

  const char* value() {
    if (at + 1 < argc) return argv[++at];
    std::cerr << "missing value for " << flag << "\n";
    std::exit(2);
  }

  template <class T>
  void number(T& out) {
    const char* v = value();
    const std::optional<T> parsed = mrlr::text::parse_number<T>(v);
    if (!parsed) {
      std::cerr << "bad value for " << flag << ": '" << v << "'\n";
      std::exit(2);
    }
    out = *parsed;
  }
};

std::optional<mrlr::graph::WeightDist> parse_weight_dist(
    const std::string& d) {
  using mrlr::graph::WeightDist;
  if (d == "uniform") return WeightDist::kUniform;
  if (d == "exp") return WeightDist::kExponential;
  if (d == "int") return WeightDist::kIntegral;
  if (d == "polarized") return WeightDist::kPolarized;
  return std::nullopt;
}

std::optional<Options> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options o;
  o.algorithm = argv[1];
  for (Flags f{argc, argv, 1}; f.next();) {
    const std::string& flag = f.flag;
    if (flag == "--n") {
      f.number(o.n);
    } else if (flag == "--c") {
      f.number(o.c);
    } else if (flag == "--mu") {
      f.number(o.mu);
    } else if (flag == "--seed") {
      f.number(o.seed);
    } else if (flag == "--eps") {
      f.number(o.eps);
    } else if (flag == "--b") {
      f.number(o.b);
    } else if (flag == "--threads") {
      f.number(o.threads);
    } else if (flag == "--shards") {
      f.number(o.shards);
    } else if (flag == "--backend") {
      o.backend = f.value();
    } else if (flag == "--workers") {
      o.workers = f.value();
    } else if (flag == "--connect") {
      o.connect = f.value();
    } else if (flag == "--dist") {
      const std::string d = f.value();
      if (const auto dist = parse_weight_dist(d)) {
        o.dist = *dist;
      } else {
        std::cerr << "unknown dist " << d << "\n";
        return std::nullopt;
      }
    } else if (flag == "--graph") {
      o.graph_file = f.value();
    } else if (flag == "--sets") {
      o.sets_file = f.value();
    } else if (flag == "--telemetry-out") {
      o.telemetry_out = f.value();
    } else if (flag == "--telemetry-format") {
      if (!parse_telemetry_format(f.value(), o.telemetry_format)) {
        return std::nullopt;
      }
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return std::nullopt;
    }
  }
  if (o.backend && !apply_backend(*o.backend, o.threads, o.shards)) {
    return std::nullopt;
  }
  if (!o.workers.empty()) {
    if (o.backend && *o.backend != "process") {
      std::cerr << "--workers only makes sense with --backend process\n";
      return std::nullopt;
    }
    // --workers implies the process backend.
    if (!o.backend && !apply_backend("process", o.threads, o.shards)) {
      return std::nullopt;
    }
  }
  return o;
}

mrlr::graph::Graph load_graph(const Options& o, bool weighted) {
  if (o.graph_file) {
    // Format picked by extension: .mgb binary, text otherwise.
    return mrlr::graph::read_graph_file(*o.graph_file);
  }
  mrlr::Rng rng(o.seed ^ 0xFEEDFACEull);
  mrlr::graph::Graph g = mrlr::graph::gnm_density(o.n, o.c, rng);
  if (weighted) {
    return g.with_weights(
        mrlr::graph::random_edge_weights(g, o.dist, rng));
  }
  return g;
}

mrlr::setcover::SetSystem load_sets(const Options& o, bool many_regime) {
  if (o.sets_file) {
    std::ifstream in(*o.sets_file);
    if (!in) {
      std::cerr << "cannot open " << *o.sets_file << "\n";
      std::exit(2);
    }
    return mrlr::setcover::read_set_system(in);
  }
  mrlr::Rng rng(o.seed ^ 0xFEEDFACEull);
  if (many_regime) {
    return mrlr::setcover::many_sets(o.n, o.n / 8 + 2, 12, o.dist, rng);
  }
  return mrlr::setcover::bounded_frequency(o.n, 8 * o.n, 3, o.dist, rng);
}

// --------------------------------------------------- gen / convert --

constexpr std::uint64_t kUnsetCount = ~std::uint64_t{0};

struct GenOptions {
  std::string family;
  std::string out;
  std::uint64_t n = 1000;
  std::uint64_t m = kUnsetCount;
  double c = 0.5;
  double p = 0.01;
  double beta = 2.5;
  std::uint64_t d = 4;
  std::uint64_t k = 10;
  std::uint64_t left = 500;
  std::uint64_t right = 500;
  std::uint64_t sets = 100;
  std::uint64_t universe = 1000;
  std::uint64_t f = 3;
  std::uint64_t set_size = 12;
  std::uint64_t decoys = 20;
  std::uint64_t seed = 1;
  bool strict = false;
  std::optional<mrlr::graph::WeightDist> weights;
};

std::optional<GenOptions> parse_gen(int argc, char** argv) {
  if (argc < 3) return std::nullopt;
  GenOptions o;
  o.family = argv[2];
  for (Flags f{argc, argv, 2}; f.next();) {
    const std::string& flag = f.flag;
    if (flag == "--n") {
      f.number(o.n);
    } else if (flag == "--m") {
      f.number(o.m);
    } else if (flag == "--c") {
      f.number(o.c);
    } else if (flag == "--p") {
      f.number(o.p);
    } else if (flag == "--beta") {
      f.number(o.beta);
    } else if (flag == "--d") {
      f.number(o.d);
    } else if (flag == "--k") {
      f.number(o.k);
    } else if (flag == "--left") {
      f.number(o.left);
    } else if (flag == "--right") {
      f.number(o.right);
    } else if (flag == "--sets") {
      f.number(o.sets);
    } else if (flag == "--universe") {
      f.number(o.universe);
    } else if (flag == "--f") {
      f.number(o.f);
    } else if (flag == "--set-size") {
      f.number(o.set_size);
    } else if (flag == "--decoys") {
      f.number(o.decoys);
    } else if (flag == "--seed") {
      f.number(o.seed);
    } else if (flag == "--strict") {
      o.strict = true;
    } else if (flag == "--out") {
      o.out = f.value();
    } else if (flag == "--weights") {
      const std::string d = f.value();
      o.weights = parse_weight_dist(d);
      if (!o.weights) {
        std::cerr << "unknown weight distribution " << d << "\n";
        return std::nullopt;
      }
    } else {
      std::cerr << "unknown gen flag " << flag << "\n";
      return std::nullopt;
    }
  }
  if (o.out.empty()) {
    std::cerr << "gen: --out FILE is required\n";
    return std::nullopt;
  }
  return o;
}

std::uint64_t require_m(const GenOptions& o) {
  if (o.m == kUnsetCount) {
    std::cerr << "gen " << o.family << ": --m is required\n";
    std::exit(2);
  }
  return o.m;
}

/// CLI-side mirror of the generator preconditions, so routine bad
/// arguments exit 2 with a message instead of tripping the library's
/// MRLR_REQUIRE (which aborts: it flags caller bugs, and here the
/// caller is the user's command line).
std::optional<std::string> validate_gen(const GenOptions& o) {
  namespace g = mrlr::graph;
  const std::string& fam = o.family;
  const bool uses_n = fam != "bipartite" && fam.rfind("sc-", 0) != 0;
  if (uses_n && o.n > g::kMaxVertexCount) {
    return "--n exceeds the 32-bit vertex-id limit (2^32)";
  }
  const auto max_edges = [&] { return g::max_simple_edges(o.n); };
  if (fam == "gnm" || fam == "planted-clique") {
    if (o.m != kUnsetCount && o.m > max_edges()) {
      return "--m exceeds n*(n-1)/2";
    }
    if (o.n < 2 && o.m != kUnsetCount && o.m > 0) {
      return "--n must be at least 2 to place edges";
    }
  }
  if (fam == "planted-clique" && o.k > o.n) return "--k exceeds --n";
  if (fam == "gnp" && (o.p < 0.0 || o.p > 1.0)) {
    return "--p must be in [0, 1]";
  }
  if (fam == "chung-lu") {
    if (o.beta <= 2.0) return "--beta must exceed 2";
    if (o.n < 2) return "--n must be at least 2";
  }
  if (fam == "bipartite") {
    if (o.left > g::kMaxVertexCount || o.right > g::kMaxVertexCount ||
        o.left + o.right > g::kMaxVertexCount ||
        o.left + o.right < o.left) {
      return "--left + --right exceeds the 32-bit vertex-id limit";
    }
    if (o.m != kUnsetCount && o.m > o.left * o.right) {
      return "--m exceeds left*right";
    }
  }
  if (fam == "circulant" && (o.d % 2 != 0 || o.d >= o.n)) {
    return "--d must be even and < --n";
  }
  if (fam == "star" && o.n < 1) return "--n must be at least 1";
  if (fam == "cycle" && o.n < 3) return "--n must be at least 3";
  if (fam == "sc-bounded-frequency" && (o.f < 1 || o.sets < o.f)) {
    return "--f must be >= 1 and <= --sets";
  }
  if (fam == "sc-many-sets" && o.set_size < 1) {
    return "--set-size must be at least 1";
  }
  if (fam == "sc-planted" && (o.sets < 1 || o.sets > o.universe)) {
    return "--sets must be in [1, --universe]";
  }
  return std::nullopt;
}

int run_gen(int argc, char** argv) {
  const auto parsed = parse_gen(argc, argv);
  if (!parsed) {
    usage();
    return 2;
  }
  const GenOptions& o = *parsed;
  if (const auto err = validate_gen(o)) {
    std::cerr << "gen " << o.family << ": " << *err << "\n";
    return 2;
  }
  using namespace mrlr;
  Rng rng(o.seed ^ 0xFEEDFACEull);

  if (o.family.rfind("sc-", 0) == 0) {
    if (graph::is_mgb_path(o.out)) {
      std::cerr << "gen: set systems have no binary format; use a text "
                   "extension for --out\n";
      return 2;
    }
    setcover::SetSystem sys = [&] {
      if (o.family == "sc-bounded-frequency") {
        return setcover::bounded_frequency(
            o.sets, o.universe, o.f,
            o.weights.value_or(graph::WeightDist::kUniform), rng);
      }
      if (o.family == "sc-many-sets") {
        return setcover::many_sets(
            o.sets, o.universe, o.set_size,
            o.weights.value_or(graph::WeightDist::kUniform), rng);
      }
      if (o.family == "sc-planted") {
        double planted_cost = 0.0;
        auto s = setcover::planted_cover(o.sets, o.decoys, o.universe, rng,
                                         &planted_cost);
        std::cout << "planted cover cost: " << planted_cost << "\n";
        return s;
      }
      std::cerr << "unknown set-cover family " << o.family << "\n";
      std::exit(2);
    }();
    std::ofstream out(o.out);
    if (!out) {
      std::cerr << "cannot open " << o.out << " for writing\n";
      return 2;
    }
    setcover::write_set_system(sys, out);
    out.flush();
    if (!out) {
      std::cerr << "write failed: " << o.out << "\n";
      return 2;
    }
    std::cout << "wrote " << o.out << ": sets=" << sys.num_sets()
              << " universe=" << sys.universe_size()
              << " max_frequency=" << sys.max_frequency() << "\n";
    return 0;
  }

  std::optional<graph::Graph> g;
  const std::string& fam = o.family;
  if (fam == "gnm") {
    g = graph::gnm(o.n, require_m(o), rng);
  } else if (fam == "gnm-density") {
    g = graph::gnm_density(o.n, o.c, rng);
  } else if (fam == "gnp") {
    g = graph::gnp(o.n, o.p, rng);
  } else if (fam == "chung-lu") {
    graph::ChungLuOptions cl;
    cl.strict = o.strict;
    std::uint64_t shortfall = 0;
    if (!o.strict) cl.shortfall = &shortfall;
    g = graph::chung_lu_power_law(o.n, require_m(o), o.beta, rng, cl);
    if (shortfall > 0) {
      std::cout << "note: chung-lu fell short by " << shortfall
                << " edges (attempt budget); pass --strict to fail "
                   "instead\n";
    }
  } else if (fam == "bipartite") {
    g = graph::random_bipartite(o.left, o.right, require_m(o), rng);
  } else if (fam == "circulant") {
    g = graph::circulant(o.n, o.d);
  } else if (fam == "complete") {
    g = graph::complete(o.n);
  } else if (fam == "star") {
    g = graph::star(o.n);
  } else if (fam == "path") {
    g = graph::path(o.n);
  } else if (fam == "cycle") {
    g = graph::cycle(o.n);
  } else if (fam == "planted-clique") {
    g = graph::planted_clique(o.n, require_m(o), o.k, rng);
  } else {
    std::cerr << "unknown gen family " << fam << "\n";
    usage();
    return 2;
  }

  const auto st = graph::compute_stats(*g);
  std::vector<double> weights;
  if (o.weights) weights = graph::random_edge_weights(*g, *o.weights, rng);
  // Weights go onto the graph's own edge data: with_weights would copy
  // the edge list and rebuild the CSR index just to serialize it.
  graph::GraphData d = std::move(*g).data();
  g.reset();  // free the index before the write
  d.weighted = o.weights.has_value();
  d.weights = std::move(weights);
  graph::write_graph_file(d, o.out);
  std::cout << "wrote " << o.out << " ("
            << (graph::is_mgb_path(o.out) ? "mgb" : "text")
            << "): n=" << st.n << " m=" << st.m
            << " c=" << st.density_exponent
            << " weighted=" << (o.weights ? "yes" : "no") << "\n";
  return 0;
}

int run_convert(int argc, char** argv) {
  std::string in, out;
  for (Flags f{argc, argv, 1}; f.next();) {
    const std::string& flag = f.flag;
    if (flag == "--in") {
      in = f.value();
    } else if (flag == "--out") {
      out = f.value();
    } else {
      std::cerr << "unknown convert flag " << flag << "\n";
      return 2;
    }
  }
  if (in.empty() || out.empty()) {
    std::cerr << "convert: --in FILE and --out FILE are required\n";
    return 2;
  }
  // Stays at the GraphData layer: conversion validates and re-encodes
  // without ever building the CSR adjacency index.
  const mrlr::graph::GraphData d = mrlr::graph::read_graph_file_data(in);
  mrlr::graph::write_graph_file(d, out);
  std::cout << "converted " << in << " ("
            << (mrlr::graph::is_mgb_path(in) ? "mgb" : "text") << ") -> "
            << out << " ("
            << (mrlr::graph::is_mgb_path(out) ? "mgb" : "text")
            << "): n=" << d.n << " m=" << d.edges.size()
            << " weighted=" << (d.weighted ? "yes" : "no") << "\n";
  return 0;
}

// ------------------------------------------------------------ bench --

int run_bench_cmd(int argc, char** argv) {
  mrlr::bench::RunOptions options;
  options.context.threads = mrlr::bench::env_threads();
  std::optional<std::string> backend;
  std::string telemetry_out;
  mrlr::obs::ExportFormat telemetry_format =
      mrlr::obs::ExportFormat::kJsonl;
  for (Flags f{argc, argv, 1}; f.next();) {
    const std::string& flag = f.flag;
    if (flag == "--group") {
      options.groups.emplace_back(f.value());
    } else if (flag == "--scenario") {
      options.scenarios.emplace_back(f.value());
    } else if (flag == "--out") {
      options.out_path = f.value();
    } else if (flag == "--threads") {
      f.number(options.context.threads);
    } else if (flag == "--shards") {
      f.number(options.context.shards);
    } else if (flag == "--backend") {
      backend = f.value();
    } else if (flag == "--list") {
      options.list_only = true;
    } else if (flag == "--telemetry-out") {
      telemetry_out = f.value();
    } else if (flag == "--telemetry-format") {
      if (!parse_telemetry_format(f.value(), telemetry_format)) return 2;
    } else {
      std::cerr << "unknown bench flag " << flag << "\n";
      usage();
      return 2;
    }
  }
  if (backend) {
    if (!apply_backend(*backend, options.context.threads,
                       options.context.shards)) {
      return 2;
    }
    options.context.process_backend = *backend == "process";
  }
  if (!options.list_only && options.groups.empty() &&
      options.scenarios.empty()) {
    options.groups.push_back("smoke");
  }
  if (!telemetry_out.empty()) mrlr::obs::Telemetry::instance().enable();
  const int rc = mrlr::bench::run_bench(mrlr::bench::builtin_registry(),
                                        options, std::cout);
  write_telemetry_if_requested(telemetry_out, telemetry_format);
  return rc;
}

// ------------------------------------------------- worker and serve --

/// Parses a --listen value ([HOST:]PORT; port 0 lets the kernel pick).
/// Messages and returns nullopt on anything malformed.
std::optional<mrlr::exec::Endpoint> parse_listen(const std::string& listen) {
  auto ep = mrlr::exec::parse_endpoint(listen);
  if (!ep) {
    std::cerr << "--listen: malformed '" << listen
              << "' (expected [HOST:]PORT)\n";
  }
  return ep;
}

int run_worker_cmd(int argc, char** argv) {
  std::string listen;
  mrlr::jobs::WorkerOptions wopts;
  wopts.log = &std::cerr;
  for (Flags f{argc, argv, 1}; f.next();) {
    const std::string& flag = f.flag;
    if (flag == "--listen") {
      listen = f.value();
    } else if (flag == "--max-jobs") {
      f.number(wopts.max_jobs);
    } else {
      std::cerr << "unknown worker flag " << flag << "\n";
      usage();
      return 2;
    }
  }
  if (listen.empty()) {
    std::cerr << "worker needs --listen [HOST:]PORT\n";
    usage();
    return 2;
  }
  const auto ep = parse_listen(listen);
  if (!ep) return 2;
  // A coordinator vanishing mid-write must surface as a typed channel
  // error on this side, not a SIGPIPE kill.
  ::signal(SIGPIPE, SIG_IGN);
  mrlr::exec::TcpListener listener(ep->host, ep->port);
  // Flushed before the accept loop so scripts (and the README
  // walkthrough) can wait for the bound port — with --listen 0 the
  // kernel picks it.
  std::cout << "worker listening on " << ep->host << ":" << listener.port()
            << "\n"
            << std::flush;
  mrlr::jobs::worker_serve(listener, wopts);
  return 0;
}

/// One runnable job built from the command line: the spec (instance +
/// params + extras), the rendering context the JobResult does not
/// carry, and the pre-rendered instance header for the matching family.
/// `run` executes the spec locally, `submit` ships it to a daemon —
/// both print from the same JobResult renderer, byte for byte.
struct PreparedJob {
  mrlr::jobs::JobSpec spec;
  mrlr::jobs::RenderInfo info;
  std::optional<std::string> instance_header;
};

PreparedJob prepare_job(const Options& o) {
  using namespace mrlr;
  const std::string& a = o.algorithm;
  const jobs::AlgorithmInfo* algo = jobs::find_algorithm(a);

  core::MrParams params;
  params.mu = o.mu;
  params.c = o.c;
  params.seed = o.seed;
  params.num_threads = o.threads;
  params.num_shards = o.shards;
  const jobs::DriverKnobs knobs{o.b, o.eps, o.dist};

  PreparedJob p;
  if (algo->instance == jobs::JobSpec::InstanceKind::kGraph) {
    const graph::Graph g = load_graph(o, algo->weighted);
    if (jobs::prints_instance_header(a)) {
      const auto st = graph::compute_stats(g);
      p.instance_header =
          jobs::render_instance_header(st.n, st.m, st.density_exponent);
    }
    p.spec = jobs::graph_job(a, g, params);
    jobs::add_driver_extras(p.spec, knobs, g.num_vertices());
    p.info.max_degree = g.max_degree();
  } else {
    const auto sys =
        load_sets(o, /*many_regime=*/a == "set-cover-greedy");
    p.spec = jobs::set_system_job(a, sys, params);
    jobs::add_driver_extras(p.spec, knobs, 0);
    p.info.max_frequency = sys.max_frequency();
  }
  p.info.b = o.b;
  p.info.eps = o.eps;
  return p;
}

void print_result(const PreparedJob& p, const mrlr::jobs::JobResult& r) {
  if (p.instance_header) std::cout << *p.instance_header << "\n";
  std::cout << mrlr::jobs::render_solution_line(r, p.info) << "\n"
            << mrlr::jobs::render_cost_line(r.outcome) << "\n";
}

int run_serve_cmd(int argc, char** argv) {
  std::string listen;
  mrlr::serve::ServeOptions sopts;
  for (Flags f{argc, argv, 1}; f.next();) {
    const std::string& flag = f.flag;
    if (flag == "--listen") {
      listen = f.value();
    } else if (flag == "--budget-words") {
      f.number(sopts.words_budget);
    } else if (flag == "--max-running") {
      f.number(sopts.max_running);
      if (sopts.max_running == 0) {
        std::cerr << "--max-running must be at least 1\n";
        return 2;
      }
    } else if (flag == "--max-conns") {
      f.number(sopts.max_connections);
    } else {
      std::cerr << "unknown serve flag " << flag << "\n";
      usage();
      return 2;
    }
  }
  if (listen.empty()) {
    std::cerr << "serve needs --listen [HOST:]PORT\n";
    usage();
    return 2;
  }
  const auto ep = parse_listen(listen);
  if (!ep) return 2;
  // A client vanishing mid-write must surface as a typed channel error,
  // not a SIGPIPE kill of the whole daemon.
  ::signal(SIGPIPE, SIG_IGN);
  sopts.log = [](const std::string& line) {
    std::cerr << "[serve] " << line << "\n";
  };
  mrlr::serve::ServeDaemon daemon(ep->host, ep->port, std::move(sopts));
  // Flushed before the accept loop so scripts can wait for the bound
  // port — with --listen 0 the kernel picks it.
  std::cout << "serve listening on " << ep->host << ":" << daemon.port()
            << "\n"
            << std::flush;
  daemon.run();
  return 0;
}

int run_submit_cmd(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);

  // Control requests: submit --shutdown|--stats|--health --connect HP.
  if (argc >= 3 && argv[2][0] == '-') {
    const std::string action = argv[2];
    std::string connect;
    for (Flags f{argc, argv, 2}; f.next();) {
      if (f.flag != "--connect") {
        std::cerr << "unknown submit flag " << f.flag << "\n";
        return 2;
      }
      connect = f.value();
    }
    if (connect.empty() ||
        (action != "--shutdown" && action != "--stats" &&
         action != "--health")) {
      usage();
      return 2;
    }
    const auto eps = mrlr::exec::parse_endpoints(connect);
    mrlr::serve::ServeClient client(eps.front());
    if (action == "--shutdown") {
      client.shutdown();
      std::cout << "daemon shutting down\n";
    } else if (action == "--stats") {
      const auto s = client.stats();
      std::cout << "jobs: submitted=" << s.jobs_submitted
                << " accepted=" << s.jobs_accepted
                << " rejected=" << s.jobs_rejected
                << " completed=" << s.jobs_completed
                << " failed=" << s.jobs_failed
                << " cancelled=" << s.jobs_cancelled
                << " running=" << s.jobs_running
                << " queued=" << s.jobs_queued << "\n"
                << "space: budget=" << s.words_budget
                << " in_use=" << s.words_in_use << "\n"
                << "uptime_ms=" << s.uptime_ms << "\n";
    } else {
      const auto h = client.health();
      std::cout << "health: " << (h.shutting_down ? "draining" : "ok")
                << " running=" << h.jobs_running
                << " uptime_ms=" << h.uptime_ms << "\n";
    }
    return 0;
  }

  // Job submission: same parse as `run`, shifted past "submit".
  const auto opts = parse(argc - 1, argv + 1);
  if (!opts || opts->connect.empty() ||
      !mrlr::jobs::find_algorithm(opts->algorithm)) {
    if (opts && opts->connect.empty()) {
      std::cerr << "submit needs --connect HOST:PORT\n";
    }
    usage();
    return 2;
  }
  const Options& o = *opts;
  const PreparedJob p = prepare_job(o);

  const auto eps = mrlr::exec::parse_endpoints(o.connect);
  mrlr::serve::ServeClient client(eps.front());
  const mrlr::serve::AdmissionReply admission = client.submit(p.spec);
  if (!admission.accepted) {
    std::cerr << "submit rejected ("
              << mrlr::serve::reject_reason_name(admission.reason)
              << "): " << admission.message << "\n";
    // Distinct exit code so scripts can tell a typed rejection from a
    // usage or transport error.
    return 3;
  }
  const mrlr::serve::ResultReply reply = client.wait_result();
  if (!reply.ok) {
    std::cerr << "job " << reply.job_id << " failed: " << reply.error
              << "\n";
    return 2;
  }
  print_result(p, mrlr::serve::ServeClient::decode_result(reply));
  return 0;
}

/// Installs the ambient TCP process-backend config for the scope of one
/// driver call when --workers was given: the driver's make_executor()
/// then launches over TCP, shipping `spec` in the bootstrap. A no-op
/// (fork mode) when --workers is absent.
struct TcpBackendGuard {
  std::optional<mrlr::exec::ScopedProcessBackendConfig> guard;

  void install(const Options& o, mrlr::jobs::JobSpec spec) {
    if (o.workers.empty()) return;
    mrlr::exec::ProcessBackendConfig cfg;
    cfg.workers = mrlr::exec::parse_endpoints(o.workers);
    cfg.job_spec = mrlr::jobs::encode_job_spec(spec);
    guard.emplace(std::move(cfg));
  }
};

}  // namespace

int run(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "gen") == 0) {
    return run_gen(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "convert") == 0) {
    return run_convert(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "bench") == 0) {
    return run_bench_cmd(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) {
    return run_worker_cmd(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return run_serve_cmd(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "submit") == 0) {
    return run_submit_cmd(argc, argv);
  }
  const auto opts = parse(argc, argv);
  if (!opts) {
    usage();
    return 2;
  }
  const Options& o = *opts;
  if (!mrlr::jobs::find_algorithm(o.algorithm)) {
    usage();
    return 2;
  }
  if (!o.connect.empty()) {
    std::cerr << "--connect is a submit flag: mrlr_cli submit "
              << o.algorithm << " ... --connect HOST:PORT\n";
    return 2;
  }
  // Enable before load_graph so ingestion (io_load) lands in the
  // profile alongside the rounds it feeds.
  if (!o.telemetry_out.empty()) mrlr::obs::Telemetry::instance().enable();

  // One path for every algorithm: build the spec, run it through the
  // same run_job the worker registry and the serve daemon use, render
  // the JobResult. `submit` replays the exact same pipeline with the
  // execution on the other side of a socket.
  const PreparedJob p = prepare_job(o);
  TcpBackendGuard tcp;
  tcp.install(o, p.spec);
  const mrlr::jobs::JobResult r = mrlr::jobs::run_job(p.spec);
  print_result(p, r);
  write_telemetry_if_requested(o.telemetry_out, o.telemetry_format);
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // ParseError, GeneratorError, allocation failures and engine-level
    // exceptions: one-line message and exit 2, never std::terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
