#include "mrlr/baselines/filtering_matching.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>

#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::baselines {

using core::MrParams;
using core::owner_of;
using graph::EdgeId;
using graph::VertexId;
using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;

namespace {

/// Process-clean filtering loop. All cross-round state lives in
/// per-machine owner-mutated slots that persistent workers keep
/// resident: `alive_` is owner-strided over edges, `used_by_[m]` is
/// machine m's mirror of the matched-vertex set, refreshed by the
/// matched-vertex broadcast each iteration. The host only consumes
/// counts and sampled edges that reach the central machine as messages.
class FilterLoop {
 public:
  /// `layer_of == nullptr` runs a single unlayered pass over all edges.
  /// Registers the loop's rounds, so construct before the job starts.
  FilterLoop(mrc::Engine& engine, const graph::Graph& g, Rng root,
             std::function<std::uint64_t(double)> layer_of)
      : engine_(engine),
        g_(g),
        machines_(engine.num_machines()),
        footprint_(machines_, 0),
        alive_(g.num_edges(), 0),
        used_by_(machines_, std::vector<char>(g.num_vertices(), 0)),
        root_(root),
        layer_of_(std::move(layer_of)),
        bcast_(engine, "bcast-matched",
               [this](MachineContext& ctx, std::span<const Word> matched) {
                 apply_matched(ctx, matched);
               }) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      footprint_[owner_of(e, machines_)] += 3;
    }
    r_count_ = engine.define_round(
        "count|E|", [this](MachineContext& ctx, std::span<const Word> ps) {
          count_round(ctx, ps);
        });
    r_sample_ = engine.define_round(
        "sample", [this](MachineContext& ctx, std::span<const Word> ps) {
          sample_round(ctx, ps);
        });
  }

  /// One filtering pass over the given layer. Matched vertices
  /// accumulate in `used`; matched edges append to `out`.
  void run_layer(std::uint64_t layer, std::uint64_t eta,
                 const MrParams& params, std::vector<char>& used,
                 std::vector<EdgeId>& out, core::MrOutcome& outcome) {
    for (std::uint64_t iter = 0; iter < params.max_iterations; ++iter) {
      engine_.invoke_round(r_count_, {iter == 0 ? 1u : 0u, layer});
      const std::uint64_t alive_total = mrc::central_sum(engine_, "sum|E|");
      if (alive_total == 0) break;
      ++outcome.iterations;

      const bool ship_all = alive_total <= eta;
      const double p =
          ship_all ? 1.0
                   : std::min(1.0, static_cast<double>(eta) /
                                       static_cast<double>(alive_total));
      engine_.invoke_round(r_sample_, {layer, iter, core::pack_double(p)});

      // Central: maximal matching on the sample (respecting already-used
      // vertices). Messages merge in sender-id order, so the edge order
      // matches the old machine-id-order concatenation on every backend.
      std::vector<VertexId> newly_used;
      engine_.run_central_round("match-sample", [&](MachineContext& ctx) {
        ctx.charge_resident(ctx.inbox_words());
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t i = 0; i + 2 < msg.payload.size(); i += 3) {
            const auto e = static_cast<EdgeId>(msg.payload[i]);
            const graph::Edge& ed = g_.edge(e);
            if (!used[ed.u] && !used[ed.v]) {
              used[ed.u] = used[ed.v] = 1;
              out.push_back(e);
              newly_used.push_back(ed.u);
              newly_used.push_back(ed.v);
            }
          }
        }
      });

      // Filter: the matched-vertex list (at most n words) goes down the
      // fanout tree; each machine updates its mirror and drops its own
      // incident edges in the broadcast's apply hook.
      bcast_.run(std::vector<Word>(newly_used.begin(), newly_used.end()));
      if (ship_all) break;  // the sample was everything; matching is maximal
    }
  }

 private:
  void count_round(MachineContext& ctx, std::span<const Word> ps) {
    const MachineId id = ctx.id();
    const bool init = ps[0] != 0;
    const std::uint64_t layer = ps[1];
    const std::vector<char>& used = used_by_[id];
    Word cnt = 0;
    for (EdgeId e = static_cast<EdgeId>(id); e < g_.num_edges();
         e = static_cast<EdgeId>(e + machines_)) {
      if (init) {
        const graph::Edge& ed = g_.edge(e);
        const bool in_layer =
            !layer_of_ || layer_of_(g_.weight(e)) == layer;
        alive_[e] = in_layer && !used[ed.u] && !used[ed.v];
      }
      if (alive_[e]) ++cnt;
    }
    ctx.charge_resident(1);
    ctx.send(mrc::kCentral, {cnt});
  }

  void sample_round(MachineContext& ctx, std::span<const Word> ps) {
    const MachineId id = ctx.id();
    const std::uint64_t layer = ps[0];
    const std::uint64_t iter = ps[1];
    const double p = core::unpack_double(ps[2]);
    ctx.charge_resident(footprint_[id]);
    // Streams derive from the immutable root so every backend (and the
    // worker's resident copy) draws the same bits; the layer salt
    // replaces the old fork-per-layer host mutation.
    Rng rng = root_.stream((layer << 40) ^ (iter << 20) ^ id);
    for (EdgeId e = static_cast<EdgeId>(id); e < g_.num_edges();
         e = static_cast<EdgeId>(e + machines_)) {
      if (!alive_[e] || !rng.bernoulli(p)) continue;
      const graph::Edge& ed = g_.edge(e);
      ctx.send(mrc::kCentral, {e, ed.u, ed.v});
    }
  }

  void apply_matched(MachineContext& ctx, std::span<const Word> matched) {
    const MachineId id = ctx.id();
    std::vector<char>& used = used_by_[id];
    for (const Word v : matched) used[static_cast<VertexId>(v)] = 1;
    for (EdgeId e = static_cast<EdgeId>(id); e < g_.num_edges();
         e = static_cast<EdgeId>(e + machines_)) {
      if (!alive_[e]) continue;
      const graph::Edge& ed = g_.edge(e);
      if (used[ed.u] || used[ed.v]) alive_[e] = 0;
    }
  }

  mrc::Engine& engine_;
  const graph::Graph& g_;
  std::uint64_t machines_;
  std::vector<std::uint64_t> footprint_;  // job-immutable, per machine
  std::vector<char> alive_;               // owner-strided: machine e%M owns e
  std::vector<std::vector<char>> used_by_;  // per-machine matched mirror
  Rng root_;                              // immutable; streams only
  std::function<std::uint64_t(double)> layer_of_;
  mrc::JobBroadcast bcast_;
  mrc::RoundId r_count_;
  mrc::RoundId r_sample_;
};

}  // namespace

FilteringMatchingResult filtering_matching(const graph::Graph& g,
                                           const MrParams& params) {
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  const std::uint64_t eta = ipow_real(n, 1.0 + params.mu, 1);

  mrc::Engine engine(core::engine_topology(
      params,
      std::max<std::uint64_t>(
          1, ceil_div(std::max<std::uint64_t>(g.num_edges(), 1), eta)),
      static_cast<std::uint64_t>(params.slack * static_cast<double>(eta)) + 64,
      n));

  FilteringMatchingResult res;
  std::vector<char> used(g.num_vertices(), 0);
  FilterLoop loop(engine, g, Rng(params.seed), nullptr);
  loop.run_layer(0, eta, params, used, res.matching, res.outcome);
  for (const EdgeId e : res.matching) res.weight += g.weight(e);
  res.outcome.fill_from(engine.metrics());
  return res;
}

FilteringMatchingResult filtering_weighted_matching(const graph::Graph& g,
                                                    const MrParams& params,
                                                    double layer_base) {
  MRLR_REQUIRE(layer_base > 1.0, "layer base must exceed 1");
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  const std::uint64_t eta = ipow_real(n, 1.0 + params.mu, 1);

  mrc::Engine engine(core::engine_topology(
      params,
      std::max<std::uint64_t>(
          1, ceil_div(std::max<std::uint64_t>(g.num_edges(), 1), eta)),
      static_cast<std::uint64_t>(params.slack * static_cast<double>(eta)) + 64,
      n));

  FilteringMatchingResult res;
  if (g.num_edges() == 0) return res;

  double wmax = 0.0, wmin = std::numeric_limits<double>::infinity();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    wmax = std::max(wmax, g.weight(e));
    wmin = std::min(wmin, g.weight(e));
  }
  // Layer k holds weights in (wmax/base^{k+1}, wmax/base^k].
  const auto layers = static_cast<std::uint64_t>(
      std::floor(std::log(wmax / wmin) / std::log(layer_base))) + 1;
  auto layer_of = [wmax, layer_base, layers](double w) -> std::uint64_t {
    const auto k = static_cast<std::int64_t>(
        std::floor(std::log(wmax / w) / std::log(layer_base)));
    return static_cast<std::uint64_t>(
        std::clamp<std::int64_t>(k, 0, static_cast<std::int64_t>(layers) - 1));
  };

  std::vector<char> used(g.num_vertices(), 0);
  // One round registry serves every layer: the layer id travels in the
  // invoke params and salts the RNG stream labels, so no host-side
  // re-seeding happens after the workers spawn.
  FilterLoop loop(engine, g, Rng(params.seed), layer_of);
  for (std::uint64_t k = 0; k < layers; ++k) {
    loop.run_layer(k, eta, params, used, res.matching, res.outcome);
  }
  for (const EdgeId e : res.matching) res.weight += g.weight(e);
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::baselines
