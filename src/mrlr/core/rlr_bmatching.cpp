#include "mrlr/core/rlr_bmatching.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "mrlr/core/live_edges.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

using graph::EdgeId;
using graph::VertexId;
using mrc::MachineContext;
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

  const std::uint64_t machines =
      std::max<std::uint64_t>(1, ceil_div(std::max<std::uint64_t>(m, 1), eta));
  // Theorem D.3: O(b log(1/eps) n^{1+mu}) words per machine. The fanout
  // base max(n, 2) makes the tree fanout max(2, n_mu).
  mrc::Engine engine(engine_topology(
      params, machines,
      static_cast<std::uint64_t>(params.slack * static_cast<double>(b_max) *
                                 (1.0 + ln_inv_delta) *
                                 static_cast<double>(eta)) +
          64,
      std::max<std::uint64_t>(n, 2)));

  // Central machine's local ratio state: coordinator-resident.
  BMatchingLocalRatio lr(g, b, eps);
  const std::uint64_t central_footprint = n + 2;

  // The distributed liveness state and the count, phi and recompute
  // rounds, shared with rlr_matching (live_edges.hpp). The kill rule is
  // lr.edge_alive's float expression, on the endpoint phis and the
  // stacked flag that send-phi delivers to the edge owners.
  LiveEdges edges(engine, g, [eps](const EdgeState& es) {
    return !es.stacked && es.w > (1.0 + eps) * (es.phi[0] + es.phi[1]);
  });

  std::uint64_t iterations = 0;
  const Rng root_rng(params.seed);  // immutable; streams only
  // Threshold for shipping everything: |E_i| < 2*b*ln(1/delta)*eta.
  const auto ship_all_below = static_cast<std::uint64_t>(
      2.0 * static_cast<double>(b_max) * ln_inv_delta *
      static_cast<double>(eta));

  // Vertex v draws b(v)*ln(1/delta)*n^mu of its live incident edges (or
  // all of them in the endgame) and ships {v, (e, w)...} to central.
  const mrc::RoundId r_sample = engine.define_round(
      "sample", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t iter = ps[0];
        const bool ship_all = ps[1] != 0;
        ctx.charge_resident(edges.footprint(ctx.id()));
        Rng rng = root_rng.stream((iter << 20) ^ ctx.id());
        thread_local std::vector<EdgeId> alive;
        thread_local std::vector<Word> msg;
        for (VertexId v = static_cast<VertexId>(ctx.id()); v < n;
             v = static_cast<VertexId>(v + machines)) {
          alive.clear();
          const char* lv = edges.live(v);
          for (const graph::Incidence& inc : g.neighbours(v)) {
            if (*lv++) alive.push_back(inc.edge);
          }
          if (alive.empty()) continue;
          msg.assign({v});
          const auto ship = [&](EdgeId e) {
            msg.push_back(e);
            msg.push_back(pack_double(g.weight(e)));
          };
          const auto want =
              ship_all ? alive.size()
                       : static_cast<std::uint64_t>(std::ceil(
                             params.sample_boost *
                             static_cast<double>(b[v]) * ln_inv_delta *
                             static_cast<double>(n_mu)));
          if (want >= alive.size()) {
            for (const EdgeId e : alive) ship(e);
          } else {
            for (const auto k :
                 rng.sample_without_replacement(alive.size(), want)) {
              ship(alive[k]);
            }
          }
          ctx.send(mrc::kCentral, msg);
        }
      });

  for (std::uint64_t iter = 0; iter < params.max_iterations; ++iter) {
    const std::uint64_t ei = edges.count_live(iter);
    if (ei == 0) break;
    ++iterations;
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

    // --- Propagate phi and the newly stacked edges, and recompute
    // aliveness. ---
    edges.propagate(central_footprint, [&](VertexId v) { return lr.phi(v); },
                    newly_stacked);
  }

  RlrBMatchingResult res = lr.unwind();
  res.outcome.iterations = iterations;
  res.outcome.fill_from(engine.metrics());
  res.per_round = engine.metrics().per_round();
  return res;
}

}  // namespace mrlr::core
