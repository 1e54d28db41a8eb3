#include "mrlr/core/rlr_bmatching.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

using graph::EdgeId;
using graph::VertexId;
using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;

namespace {

/// The epsilon-adjusted local ratio engine (Section D.2).
class BMatchingLocalRatio {
 public:
  BMatchingLocalRatio(const graph::Graph& g,
                      const std::vector<std::uint32_t>& b, double eps)
      : g_(g), b_(b), eps_(eps), phi_(g.num_vertices(), 0.0),
        stacked_(g.num_edges(), 0) {
    MRLR_REQUIRE(eps_ > 0.0, "epsilon must be positive");
    for (const std::uint32_t cap : b_) {
      MRLR_REQUIRE(cap >= 1, "capacities must be at least 1");
    }
  }

  double residual(EdgeId e) const {
    const graph::Edge& ed = g_.edge(e);
    return g_.weight(e) - phi_[ed.u] - phi_[ed.v];
  }

  /// Kill rule: w(e) <= (1+eps)(phi(u)+phi(v)).
  bool edge_alive(EdgeId e) const {
    if (stacked_[e]) return false;
    const graph::Edge& ed = g_.edge(e);
    return g_.weight(e) > (1.0 + eps_) * (phi_[ed.u] + phi_[ed.v]);
  }

  bool process(EdgeId e) {
    if (!edge_alive(e)) return false;
    const graph::Edge& ed = g_.edge(e);
    const double g = residual(e);
    if (g <= 0.0) return false;
    phi_[ed.u] += g / static_cast<double>(b_[ed.u]);
    phi_[ed.v] += g / static_cast<double>(b_[ed.v]);
    stacked_[e] = 1;
    stack_.push_back(e);
    return true;
  }

  double phi(VertexId v) const { return phi_[v]; }
  std::uint64_t stack_size() const { return stack_.size(); }

  /// Greedy capacity-respecting unwind (Theorem D.1's last step).
  RlrBMatchingResult unwind() const {
    RlrBMatchingResult res;
    res.stack_size = stack_.size();
    std::vector<std::uint32_t> load(g_.num_vertices(), 0);
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      const graph::Edge& ed = g_.edge(*it);
      if (load[ed.u] < b_[ed.u] && load[ed.v] < b_[ed.v]) {
        ++load[ed.u];
        ++load[ed.v];
        res.matching.push_back(*it);
        res.weight += g_.weight(*it);
      }
    }
    return res;
  }

 private:
  const graph::Graph& g_;
  const std::vector<std::uint32_t>& b_;
  double eps_;
  std::vector<double> phi_;
  std::vector<char> stacked_;
  std::vector<EdgeId> stack_;
};

}  // namespace

RlrBMatchingResult seq_b_matching_local_ratio(
    const graph::Graph& g, const std::vector<std::uint32_t>& b, double eps,
    const std::vector<EdgeId>& order) {
  MRLR_REQUIRE(b.size() == g.num_vertices(), "b vector size mismatch");
  BMatchingLocalRatio lr(g, b, eps);
  for (const EdgeId e : order) (void)lr.process(e);
  // No positive-residual edge may survive; repeated passes are needed
  // because processing an edge can revive no one but b >= 2 leaves
  // neighbours alive until enough charges accumulate.
  bool any = true;
  while (any) {
    any = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (lr.process(e)) any = true;
    }
  }
  return lr.unwind();
}

RlrBMatchingResult rlr_b_matching(const graph::Graph& g,
                                  const std::vector<std::uint32_t>& b,
                                  double eps, const MrParams& params) {
  MRLR_REQUIRE(b.size() == g.num_vertices(), "b vector size mismatch");
  MRLR_REQUIRE(eps > 0.0, "epsilon must be positive");
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  const double delta = eps / (1.0 + eps);
  const double ln_inv_delta = std::log(1.0 / delta);
  const std::uint64_t b_max =
      *std::max_element(b.begin(), b.end());

  const std::uint64_t eta =
      std::max<std::uint64_t>(1, ipow_real(std::max<std::uint64_t>(n, 2),
                                           1.0 + params.mu));
  const std::uint64_t n_mu =
      std::max<std::uint64_t>(1, ipow_real(std::max<std::uint64_t>(n, 2),
                                           params.mu));

  mrc::Topology topo;
  topo.num_machines = std::max<std::uint64_t>(1, ceil_div(std::max<std::uint64_t>(m, 1), eta));
  // Theorem D.3: O(b log(1/eps) n^{1+mu}) words per machine.
  topo.words_per_machine =
      static_cast<std::uint64_t>(params.slack * static_cast<double>(b_max) *
                                 (1.0 + ln_inv_delta) *
                                 static_cast<double>(eta)) +
      64;
  topo.fanout = std::max<std::uint64_t>(2, n_mu);
  topo.enforce = params.enforce_space;
  topo.num_threads = params.num_threads;
  topo.num_shards = std::max<std::uint64_t>(1, params.num_shards);
  mrc::Engine engine(topo);
  const std::uint64_t machines = topo.num_machines;

  // Central machine's local ratio state: coordinator-resident.
  BMatchingLocalRatio lr(g, b, eps);
  const std::uint64_t central_footprint = n + 2;

  std::vector<std::uint64_t> footprint(machines, 0);
  for (EdgeId e = 0; e < m; ++e) footprint[owner_of(e, machines)] += 4;
  for (VertexId v = 0; v < n; ++v) {
    footprint[owner_of(v, machines)] += 1 + g.degree(v);
  }

  // Worker-resident distributed aliveness, mirroring rlr_matching.
  //
  // Edge owners (owner_of(e)) keep the shipped endpoint potentials in
  // separate accumulators so the float expression below reproduces
  // lr.edge_alive bit for bit, plus the centrally-announced stacked
  // flag; they re-derive aliveness after each phi wave and send a
  // one-word death notice to both endpoint owners on the alive->dead
  // transition (monotone: phi only grows and stacking is permanent, so
  // at most 2m notices ever flow).
  //
  // Endpoint owners (owner_of(u), owner_of(v)) keep alive_at_u/_v views
  // that the sampling round reads; they decay only via death notices.
  std::vector<double> phi_u_acc(m, 0.0);
  std::vector<double> phi_v_acc(m, 0.0);
  std::vector<char> owner_stacked(m, 0);
  std::vector<char> owner_alive(m);
  std::vector<char> alive_at_u(m);
  std::vector<char> alive_at_v(m);
  std::vector<std::uint64_t> alive_cnt(machines, 0);
  for (EdgeId e = 0; e < m; ++e) {
    const char alive0 = g.weight(e) > 0.0 ? 1 : 0;
    owner_alive[e] = alive0;
    alive_at_u[e] = alive0;
    alive_at_v[e] = alive0;
    // Historic quirk preserved: the first |E_i| count includes every
    // edge, dead-at-weight-zero ones included.
    ++alive_cnt[owner_of(e, machines)];
  }

  RlrBMatchingResult res;
  const Rng root_rng(params.seed);  // immutable; streams only
  // Threshold for shipping everything: |E_i| < 2*b*ln(1/delta)*eta.
  const auto ship_all_below = static_cast<std::uint64_t>(
      2.0 * static_cast<double>(b_max) * ln_inv_delta *
      static_cast<double>(eta));

  // Consume last iteration's death notices, then report the live count.
  const mrc::RoundId r_count = engine.define_round(
      "count|Ei|", [&](MachineContext& ctx, std::span<const Word>) {
        const MachineId id = ctx.id();
        for (const mrc::MessageView msg : ctx.messages()) {
          for (const Word ew : msg.payload) {
            const auto e = static_cast<EdgeId>(ew);
            const graph::Edge& ed = g.edge(e);
            if (owner_of(ed.u, machines) == id) alive_at_u[e] = 0;
            if (owner_of(ed.v, machines) == id) alive_at_v[e] = 0;
          }
        }
        ctx.charge_resident(1);
        ctx.send(mrc::kCentral, {alive_cnt[id]});
      });

  // Vertex v draws b(v)*ln(1/delta)*n^mu alive incident edges (or all
  // of them in the endgame) and ships {v, (e, w)...} to central.
  const mrc::RoundId r_sample = engine.define_round(
      "sample", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t iter = ps[0];
        const bool ship_all = ps[1] != 0;
        ctx.charge_resident(footprint[ctx.id()]);
        Rng rng = root_rng.stream((iter << 20) ^ ctx.id());
        thread_local std::vector<Word> msg;
        for (VertexId v = static_cast<VertexId>(ctx.id()); v < n;
             v = static_cast<VertexId>(v + machines)) {
          std::vector<EdgeId> alive;
          for (const graph::Incidence& inc : g.neighbours(v)) {
            const char is_alive = g.edge(inc.edge).u == v
                                      ? alive_at_u[inc.edge]
                                      : alive_at_v[inc.edge];
            if (is_alive) alive.push_back(inc.edge);
          }
          if (alive.empty()) continue;
          std::vector<EdgeId> chosen;
          if (ship_all) {
            chosen = std::move(alive);
          } else {
            const auto want = static_cast<std::uint64_t>(
                std::ceil(params.sample_boost * static_cast<double>(b[v]) *
                          ln_inv_delta * static_cast<double>(n_mu)));
            if (want >= alive.size()) {
              chosen = std::move(alive);
            } else {
              const auto pick =
                  rng.sample_without_replacement(alive.size(), want);
              for (const auto k : pick) chosen.push_back(alive[k]);
            }
          }
          msg.assign({v});
          for (const EdgeId e : chosen) {
            msg.push_back(e);
            msg.push_back(pack_double(g.weight(e)));
          }
          ctx.send(mrc::kCentral, msg);
        }
      });

  // Forward the phi wave: {v, phi} pairs fan out as {e, v, phi} triples
  // to the owners of v's incident edges, coalesced per owner (the
  // receiver parses a flat run of triples); one-word stacked notices are
  // recorded by the edge owner directly. The incoming send-phi messages
  // stay one per pair or notice: their length tells the two apart.
  const mrc::RoundId r_forward_phi = engine.define_round(
      "forward-phi", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()]);
        for (const mrc::MessageView msg : ctx.messages()) {
          if (msg.payload.size() == 1) {
            owner_stacked[static_cast<EdgeId>(msg.payload[0])] = 1;
            continue;
          }
          for (std::size_t k = 0; k + 1 < msg.payload.size(); k += 2) {
            const auto v = static_cast<VertexId>(msg.payload[k]);
            for (const graph::Incidence& inc : g.neighbours(v)) {
              ctx.send_coalesced(owner_of(inc.edge, machines),
                                 {inc.edge, v, msg.payload[k + 1]});
            }
          }
        }
      });

  // Edge owners apply the phi triples, re-derive aliveness with the
  // exact float expression of lr.edge_alive, and emit death notices
  // (coalesced: the count round reads them as a flat run of edge ids).
  const mrc::RoundId r_recompute = engine.define_round(
      "recompute-alive", [&](MachineContext& ctx, std::span<const Word>) {
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id]);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t k = 0; k + 2 < msg.payload.size(); k += 3) {
            const auto e = static_cast<EdgeId>(msg.payload[k]);
            const auto v = static_cast<VertexId>(msg.payload[k + 1]);
            const double phi = unpack_double(msg.payload[k + 2]);
            if (g.edge(e).u == v) {
              phi_u_acc[e] = phi;
            } else {
              phi_v_acc[e] = phi;
            }
          }
        }
        std::uint64_t count = 0;
        for (EdgeId e = static_cast<EdgeId>(id); e < m;
             e = static_cast<EdgeId>(e + machines)) {
          const bool alive =
              !owner_stacked[e] &&
              g.weight(e) > (1.0 + eps) * (phi_u_acc[e] + phi_v_acc[e]);
          if (owner_alive[e] && !alive) {
            const graph::Edge& ed = g.edge(e);
            ctx.send_coalesced(owner_of(ed.u, machines), {e});
            if (owner_of(ed.v, machines) != owner_of(ed.u, machines)) {
              ctx.send_coalesced(owner_of(ed.v, machines), {e});
            }
          }
          owner_alive[e] = alive ? 1 : 0;
          if (alive) ++count;
        }
        alive_cnt[id] = count;
      });

  for (std::uint64_t iter = 0; iter < params.max_iterations; ++iter) {
    engine.invoke_round(r_count);
    std::uint64_t ei = 0;
    engine.run_central_round("sum|Ei|", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words() + 1);
      for (const mrc::MessageView msg : ctx.messages()) {
        for (const Word w : msg.payload) ei += w;
      }
    });
    if (ei == 0) break;
    ++res.outcome.iterations;
    const bool ship_all = ei < ship_all_below;

    engine.invoke_round(r_sample, {iter, ship_all ? 1u : 0u});

    // --- Central: per vertex, pop the heaviest alive sampled edges up to
    // b(v)*ln(1/delta) times (Algorithm 7 lines 11-17). ---
    std::vector<EdgeId> newly_stacked;
    engine.run_central_round("local-ratio", [&](MachineContext& ctx) {
      ctx.charge_resident(central_footprint + ctx.inbox_words());
      // Messages arrive in sender-id order; regroup by vertex so the
      // processing order is ascending v on every backend, as before.
      std::vector<std::vector<EdgeId>> sampled(n);
      for (const mrc::MessageView msg : ctx.messages()) {
        const auto v = static_cast<VertexId>(msg.payload[0]);
        for (std::size_t k = 1; k + 1 < msg.payload.size(); k += 2) {
          sampled[v].push_back(static_cast<EdgeId>(msg.payload[k]));
        }
      }
      for (VertexId v = 0; v < n; ++v) {
        if (sampled[v].empty()) continue;
        // Residual order is stable during v's loop (each reduction
        // subtracts the same phi deltas from all of v's edges), so one
        // sort by residual suffices.
        std::sort(sampled[v].begin(), sampled[v].end(),
                  [&](EdgeId a, EdgeId b2) {
                    return lr.residual(a) > lr.residual(b2);
                  });
        const auto quota = static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(b[v]) * ln_inv_delta));
        std::uint64_t taken = 0;
        for (const EdgeId e : sampled[v]) {
          if (taken >= quota) break;
          if (lr.process(e)) {
            ++taken;
            newly_stacked.push_back(e);
          }
        }
      }
    });

    // --- Propagate phi (and the stacked set) and recompute aliveness. ---
    engine.run_central_round("send-phi", [&](MachineContext& ctx) {
      ctx.charge_resident(central_footprint);
      for (VertexId v = 0; v < n; ++v) {
        ctx.send(owner_of(v, machines), {v, pack_double(lr.phi(v))});
      }
      for (const EdgeId e : newly_stacked) {
        ctx.send(owner_of(e, machines), {e});
      }
    });
    engine.invoke_round(r_forward_phi);
    engine.invoke_round(r_recompute);
  }

  RlrBMatchingResult unwound = lr.unwind();
  res.matching = std::move(unwound.matching);
  res.weight = unwound.weight;
  res.stack_size = unwound.stack_size;
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::core
