#include "mrlr/core/hungry_clique.hpp"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

using graph::Incidence;
using graph::VertexId;
using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;

namespace {

/// Clique state over the implicit complement: active set A, counts of
/// graph-neighbours inside A, and the derived complement degrees.
/// Lives on the central machine; the workers carry mirrors maintained
/// by the ordered deactivation broadcast below.
class CliqueState {
 public:
  explicit CliqueState(const graph::Graph& g)
      : g_(g), active_(g.num_vertices(), 1),
        nbrs_in_A_(g.num_vertices(), 0),
        active_count_(g.num_vertices()) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      nbrs_in_A_[v] = g.degree(v);
    }
  }

  bool active(VertexId v) const { return active_[v] != 0; }
  std::uint64_t active_count() const { return active_count_; }

  /// Complement degree of an active vertex.
  std::uint64_t comp_degree(VertexId v) const {
    if (!active_[v] || active_count_ == 0) return 0;
    return (active_count_ - 1) - nbrs_in_A_[v];
  }

  /// Total complement edges within A.
  std::uint64_t comp_edges() const {
    std::uint64_t sum = 0;
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      if (active_[v]) sum += comp_degree(v);
    }
    return sum / 2;
  }

  /// Admit v into the clique: A becomes (A cap N(v)) \ {v}.
  /// Returns the deactivated vertices in deactivation order — the
  /// mirrors replay deactivations in exactly this order, which matters
  /// because each deactivation only decrements still-active neighbours.
  std::vector<VertexId> add(VertexId v) {
    MRLR_REQUIRE(active(v), "cannot add an inactive vertex to the clique");
    clique_.push_back(v);
    std::unordered_set<VertexId> keep;
    keep.reserve(g_.degree(v) * 2 + 1);
    for (const Incidence& inc : g_.neighbours(v)) {
      if (active_[inc.neighbour]) keep.insert(inc.neighbour);
    }
    std::vector<VertexId> removed;
    for (VertexId u = 0; u < g_.num_vertices(); ++u) {
      if (!active_[u]) continue;
      if (u == v || !keep.contains(u)) {
        deactivate(u);
        removed.push_back(u);
      }
    }
    return removed;
  }

  const std::vector<VertexId>& clique() const { return clique_; }

 private:
  void deactivate(VertexId u) {
    active_[u] = 0;
    --active_count_;
    for (const Incidence& inc : g_.neighbours(u)) {
      if (active_[inc.neighbour] && nbrs_in_A_[inc.neighbour] > 0) {
        --nbrs_in_A_[inc.neighbour];
      }
    }
  }

  const graph::Graph& g_;
  std::vector<char> active_;
  std::vector<std::uint64_t> nbrs_in_A_;
  std::uint64_t active_count_;
  std::vector<VertexId> clique_;
};

}  // namespace

HungryCliqueResult hungry_clique(const graph::Graph& g,
                                 const MrParams& params) {
  MRLR_REQUIRE(params.mu > 0.0, "hungry-greedy requires mu > 0");
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  const double alpha = params.mu / 2.0;
  const std::uint64_t eta = ipow_real(n, 1.0 + params.mu, 1);

  const std::uint64_t machines = std::max<std::uint64_t>(
      1, ceil_div(std::max<std::uint64_t>(g.num_edges(), 1), eta));
  mrc::Engine engine(engine_topology(
      params, machines,
      static_cast<std::uint64_t>(params.slack * static_cast<double>(eta)) + 64,
      n));

  std::vector<std::uint64_t> footprint(machines, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    footprint[owner_of(v, machines)] += 2 + g.degree(v);
  }

  CliqueState state(g);
  HungryCliqueResult res;
  const Rng root(params.seed);
  const std::uint64_t group_size =
      std::max<std::uint64_t>(1, ipow_real(n, params.mu / 2.0, 1));

  // Worker mirrors of the central state: a full active mirror per
  // machine (needed for the shipped active-neighbour lists), the
  // owner-strided neighbours-in-A counters, and the active-count
  // scalar. All three refresh only through the deactivation broadcast.
  std::vector<std::vector<char>> active_by(
      machines, std::vector<char>(g.num_vertices(), 1));
  std::vector<std::uint64_t> nbrs_dist(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    nbrs_dist[v] = g.degree(v);
  }
  std::vector<std::uint64_t> active_cnt_by(machines, g.num_vertices());
  const auto comp_deg = [&](MachineId id, VertexId v) -> std::uint64_t {
    if (!active_by[id][v] || active_cnt_by[id] == 0) return 0;
    return (active_cnt_by[id] - 1) - nbrs_dist[v];
  };

  // Replays CliqueState::add on machine `id`'s mirror: deactivations
  // arrive in central deactivation order, and each one only decrements
  // the counters of vertices still active at that point.
  mrc::JobBroadcast bcast(
      engine, "bcast-deactivated",
      [&](MachineContext& ctx, std::span<const Word> removed) {
        const MachineId id = ctx.id();
        std::vector<char>& active = active_by[id];
        for (const Word uw : removed) {
          const auto u = static_cast<VertexId>(uw);
          active[u] = 0;
          --active_cnt_by[id];
          for (const Incidence& inc : g.neighbours(u)) {
            const VertexId x = inc.neighbour;
            if (owner_of(x, machines) != id) continue;
            if (active[x] && nbrs_dist[x] > 0) --nbrs_dist[x];
          }
        }
      });

  // Owners count their heavy vertices (complement degree >= threshold).
  const mrc::RoundId r_count = engine.define_round(
      "count|VH|", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t threshold = ps[0];
        Word cnt = 0;
        for (VertexId v = static_cast<VertexId>(ctx.id());
             v < g.num_vertices();
             v = static_cast<VertexId>(v + machines)) {
          if (comp_deg(ctx.id(), v) >= threshold) ++cnt;
        }
        ctx.charge_resident(1);
        ctx.send(mrc::kCentral, {cnt});
      });

  // Owners self-select heavy vertices and ship each with its
  // active-neighbour list (the sigma-relabelled complement row is [k]
  // minus that list). Mop-up mode (params[0] != 0) ships every heavy
  // vertex with group 0 and no draws.
  const mrc::RoundId r_ship = engine.define_round(
      "ship-sample", [&](MachineContext& ctx, std::span<const Word> ps) {
        const bool mop_up = ps[0] != 0;
        const std::uint64_t salt = ps[1];
        const std::uint64_t threshold = ps[2];
        const std::uint64_t num_groups = ps[3];
        const double p_sample = unpack_double(ps[4]);
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id]);
        Rng rng = root.stream((salt << 20) ^ id);
        thread_local std::vector<Word> msg;
        for (VertexId v = static_cast<VertexId>(id);
             v < g.num_vertices();
             v = static_cast<VertexId>(v + machines)) {
          if (comp_deg(id, v) < threshold) continue;
          Word group = 0;
          if (!mop_up) {
            if (!rng.bernoulli(p_sample)) continue;
            group = rng.uniform(num_groups);
          }
          msg.assign({group, v});
          for (const Incidence& inc : g.neighbours(v)) {
            if (active_by[id][inc.neighbour]) msg.push_back(inc.neighbour);
          }
          ctx.send(mrc::kCentral, msg);
        }
      });

  // Label-exchange rounds run after every admission batch: vertices
  // forward (sigma(v), flag) pairs to their neighbours' owners. The
  // labels are implicit; the rounds charge the communication the
  // relabelling scheme costs.
  const mrc::RoundId r_exchange = engine.define_round(
      "exchange-sigma", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()]);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t k = 0; k + 1 < msg.payload.size(); k += 2) {
            const auto v = static_cast<VertexId>(msg.payload[k]);
            for (const Incidence& inc : g.neighbours(v)) {
              ctx.send(owner_of(inc.neighbour, machines),
                       {inc.neighbour, msg.payload[k + 1]});
            }
          }
        }
      });
  const mrc::RoundId r_drain = engine.define_round(
      "drain-sigma", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()]);
      });

  // Final step: ship the relabelled residual complement to central.
  const mrc::RoundId r_ship_residual = engine.define_round(
      "ship-residual", [&](MachineContext& ctx, std::span<const Word>) {
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id]);
        for (VertexId v = static_cast<VertexId>(id);
             v < g.num_vertices();
             v = static_cast<VertexId>(v + machines)) {
          if (!active_by[id][v]) continue;
          ctx.send(mrc::kCentral, {v, comp_deg(id, v)});
        }
      });

  const auto relabel_rounds = [&](const std::vector<VertexId>& removed) {
    bcast.run(std::vector<Word>(removed.begin(), removed.end()));
    engine.run_central_round("send-sigma", [&](MachineContext& ctx) {
      ctx.charge_resident(state.active_count() + 1);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ctx.send(owner_of(v, machines),
                 {v, state.active(v) ? Word{1} : Word{0}});
      }
    });
    engine.invoke_round(r_exchange);
    engine.invoke_round(r_drain);
  };

  // Phase thresholds on the complement degree: n^{1-i*alpha} down to
  // n^mu, after which the residual complement fits centrally.
  for (std::uint64_t i = 1;; ++i) {
    const double exponent = 1.0 - static_cast<double>(i) * alpha;
    if (exponent < params.mu) break;
    const std::uint64_t threshold = ipow_real(n, exponent, 1);
    const std::uint64_t heavy_cap =
        ipow_real(n, static_cast<double>(i) * alpha, 1);

    while (res.outcome.iterations < params.max_iterations) {
      ++res.outcome.iterations;
      engine.invoke_round(r_count, {threshold});
      const std::uint64_t vh = mrc::central_sum(engine, "sum|VH|");
      if (vh == 0) break;

      const bool mop_up = vh < heavy_cap;
      const double p_sample =
          mop_up ? 1.0
                 : std::min(1.0, static_cast<double>(heavy_cap) *
                                     static_cast<double>(group_size) /
                                     static_cast<double>(vh));
      engine.invoke_round(r_ship,
                          {mop_up ? Word{1} : Word{0}, res.outcome.iterations,
                           threshold, heavy_cap, pack_double(p_sample)});

      // Greedy per-group admission on the central machine; mop-up
      // admits every still-eligible sample.
      std::vector<VertexId> all_removed;
      engine.run_central_round("admit", [&](MachineContext& ctx) {
        ctx.charge_resident(ctx.inbox_words() + 2);
        std::vector<std::pair<std::uint64_t, VertexId>> sample;
        for (const mrc::MessageView msg : ctx.messages()) {
          sample.emplace_back(msg.payload[0],
                              static_cast<VertexId>(msg.payload[1]));
        }
        std::sort(sample.begin(), sample.end());
        std::uint64_t current_group = ~std::uint64_t{0};
        bool group_done = false;
        for (const auto& [group, v] : sample) {
          if (group != current_group) {
            current_group = group;
            group_done = false;
          }
          if (!mop_up && group_done) continue;
          if (state.active(v) && state.comp_degree(v) >= threshold) {
            const auto removed = state.add(v);
            all_removed.insert(all_removed.end(), removed.begin(),
                               removed.end());
            ++res.central_adds;
            group_done = true;
          }
        }
      });
      relabel_rounds(all_removed);

      if (mop_up) break;
    }
  }

  // Central finish: wait until the residual complement fits, admitting
  // more heavy vertices if necessary (complement degree > n^mu).
  while (state.comp_edges() >= eta &&
         res.outcome.iterations < params.max_iterations) {
    ++res.outcome.iterations;
    // Admit the vertex with the largest complement degree (shipped the
    // same way as a 1-group sample).
    VertexId best = 0;
    std::uint64_t best_d = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (state.active(v) && state.comp_degree(v) > best_d) {
        best = v;
        best_d = state.comp_degree(v);
      }
    }
    if (best_d == 0) break;
    std::vector<VertexId> removed;
    engine.run_central_round("admit-heaviest", [&](MachineContext& ctx) {
      ctx.charge_resident(2 + g.degree(best));
      removed = state.add(best);
      ++res.central_adds;
    });
    relabel_rounds(removed);
  }

  // Ship the relabelled complement of A (size 2 * comp_edges < 2*eta)
  // and finish greedily: a greedy MIS on the complement is a greedy
  // clique on G.
  engine.invoke_round(r_ship_residual);
  engine.run_central_round("greedy-finish", [&](MachineContext& ctx) {
    ctx.charge_resident(ctx.inbox_words() + 2 * state.comp_edges());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (state.active(v)) (void)state.add(v);
    }
  });

  res.clique = state.clique();
  std::sort(res.clique.begin(), res.clique.end());
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::core
