#include "mrlr/core/colouring.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "mrlr/seq/colouring.hpp"
#include "mrlr/seq/misra_gries.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

using graph::Edge;
using graph::EdgeId;
using graph::VertexId;
using mrc::MachineContext;
using mrc::Word;

namespace {

struct Partition {
  std::uint64_t kappa = 1;
  std::uint64_t eta = 1;
  std::uint64_t group_edge_cap = 0;  // 13 * n^{1+mu}
};

Partition plan_partition(const graph::Graph& g, const MrParams& params) {
  Partition p;
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  const double c = params.c >= 0.0
                       ? params.c
                       : density_exponent(n, g.num_edges());
  p.eta = ipow_real(n, 1.0 + params.mu, 1);
  const double exp_kappa = (c - params.mu) / 2.0;
  p.kappa = std::max<std::uint64_t>(1, ipow_real(n, exp_kappa, 1));
  p.group_edge_cap = 13 * p.eta;
  return p;
}

}  // namespace

ColouringResult mr_vertex_colouring(const graph::Graph& g,
                                    const MrParams& params) {
  const Partition plan = plan_partition(g, params);
  ColouringResult res;
  res.groups = plan.kappa;

  mrc::Engine engine(engine_topology(
      params, plan.kappa,
      static_cast<std::uint64_t>(params.slack *
                                 static_cast<double>(plan.group_edge_cap)) +
          64,
      std::max<std::uint64_t>(g.num_vertices(), 2)));

  // Random group per vertex (job-immutable once drawn).
  Rng rng(params.seed);
  std::vector<std::uint32_t> group(g.num_vertices());
  for (auto& x : group) x = static_cast<std::uint32_t>(rng.uniform(plan.kappa));

  // Count intra-group edges; the paper fails if any group is too big.
  std::vector<std::uint64_t> group_edges(plan.kappa, 0);
  for (const Edge& e : g.edges()) {
    if (group[e.u] == group[e.v]) ++group_edges[group[e.u]];
  }
  res.failed = std::any_of(group_edges.begin(), group_edges.end(),
                           [&](std::uint64_t ge) {
                             return ge > plan.group_edge_cap;
                           });

  // Round 1: every vertex ships its intra-group adjacency to machine
  // group(v) (Algorithm 5 line 7).
  const mrc::RoundId r_ship = engine.define_round(
      "ship-groups", [&](MachineContext& ctx, std::span<const Word>) {
        thread_local std::vector<Word> msg;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          if (owner_of(v, plan.kappa) != ctx.id()) continue;
          msg.assign({v});
          for (const graph::Incidence& inc : g.neighbours(v)) {
            if (group[inc.neighbour] == group[v]) {
              msg.push_back(inc.neighbour);
            }
          }
          ctx.send(static_cast<mrc::MachineId>(group[v]), msg);
        }
      });

  // Round 2: each machine colours its induced subgraph greedily with
  // Delta_i + 1 colours and ships {palette size, (v, colour)...} to
  // central; disjoint palettes are realized via offsets there.
  const mrc::RoundId r_colour = engine.define_round(
      "colour-groups", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(2 * group_edges[ctx.id()] + 2);
        // Build machine i's induced subgraph.
        std::vector<VertexId> members;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          if (group[v] == ctx.id()) members.push_back(v);
        }
        std::vector<std::uint32_t> local_id(g.num_vertices(), 0);
        for (std::uint32_t k = 0; k < members.size(); ++k) {
          local_id[members[k]] = k;
        }
        std::vector<Edge> edges;
        for (const Edge& e : g.edges()) {
          if (group[e.u] == ctx.id() && group[e.v] == ctx.id()) {
            edges.push_back({local_id[e.u], local_id[e.v]});
          }
        }
        const graph::Graph sub(members.size(), std::move(edges));
        const auto colours = seq::greedy_colouring(sub);
        std::uint64_t used = 0;
        for (const std::uint32_t c : colours) {
          used = std::max<std::uint64_t>(used, c + 1);
        }
        ctx.send_coalesced(mrc::kCentral, {ctx.id(), used});
        for (std::uint32_t k = 0; k < members.size(); ++k) {
          ctx.send_coalesced(mrc::kCentral, {members[k], colours[k]});
        }
      });

  std::vector<std::uint32_t> local_colour(g.num_vertices(), 0);
  std::vector<std::uint64_t> palette(plan.kappa, 0);
  if (!res.failed) {
    engine.invoke_round(r_ship);
    engine.invoke_round(r_colour);
    // Round 3: central assembles the per-group colourings from its
    // inbox (one message per group, merged in sender-id order).
    engine.run_central_round("collect-colours", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words());
      for (const mrc::MessageView msg : ctx.messages()) {
        const auto i = static_cast<std::size_t>(msg.payload[0]);
        palette[i] = msg.payload[1];
        for (std::size_t k = 2; k + 1 < msg.payload.size(); k += 2) {
          local_colour[msg.payload[k]] =
              static_cast<std::uint32_t>(msg.payload[k + 1]);
        }
      }
    });
  }

  // Palette offsets (prefix sums) make colours globally distinct per
  // group: colour(v) = offset[group(v)] + c_i(v), mirroring the paper's
  // output pair (i, c_i(v)).
  std::vector<std::uint64_t> offset(plan.kappa + 1, 0);
  std::partial_sum(palette.begin(), palette.end(), offset.begin() + 1);
  res.colour.assign(g.num_vertices(), 0);
  if (!res.failed) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      res.colour[v] =
          static_cast<std::uint32_t>(offset[group[v]] + local_colour[v]);
    }
    res.colours_used = offset[plan.kappa];
  }
  res.outcome.failed = res.failed;
  res.outcome.fill_from(engine.metrics());
  return res;
}

ColouringResult mr_edge_colouring(const graph::Graph& g,
                                  const MrParams& params) {
  const Partition plan = plan_partition(g, params);
  ColouringResult res;
  res.groups = plan.kappa;

  mrc::Engine engine(engine_topology(
      params, plan.kappa,
      static_cast<std::uint64_t>(params.slack *
                                 static_cast<double>(plan.group_edge_cap)) +
          64,
      std::max<std::uint64_t>(g.num_vertices(), 2)));

  // Random group per *edge* (Remark 6.5).
  Rng rng(params.seed);
  std::vector<std::uint32_t> group(g.num_edges());
  for (auto& x : group) x = static_cast<std::uint32_t>(rng.uniform(plan.kappa));

  std::vector<std::uint64_t> group_edges(plan.kappa, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) ++group_edges[group[e]];
  res.failed = std::any_of(group_edges.begin(), group_edges.end(),
                           [&](std::uint64_t ge) {
                             return ge > plan.group_edge_cap;
                           });

  const mrc::RoundId r_ship = engine.define_round(
      "ship-groups", [&](MachineContext& ctx, std::span<const Word>) {
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          if (owner_of(e, plan.kappa) != ctx.id()) continue;
          const Edge& ed = g.edge(e);
          ctx.send(static_cast<mrc::MachineId>(group[e]), {e, ed.u, ed.v});
        }
      });

  const mrc::RoundId r_colour = engine.define_round(
      "colour-groups", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(3 * group_edges[ctx.id()] + 2);
        // Build machine i's edge-group subgraph on the touched vertices.
        std::vector<EdgeId> members;
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          if (group[e] == ctx.id()) members.push_back(e);
        }
        if (members.empty()) return;
        std::vector<VertexId> verts;
        for (const EdgeId e : members) {
          verts.push_back(g.edge(e).u);
          verts.push_back(g.edge(e).v);
        }
        std::sort(verts.begin(), verts.end());
        verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
        std::vector<std::uint32_t> local_id(g.num_vertices(), 0);
        for (std::uint32_t k = 0; k < verts.size(); ++k) local_id[verts[k]] = k;
        std::vector<Edge> edges;
        edges.reserve(members.size());
        for (const EdgeId e : members) {
          edges.push_back({local_id[g.edge(e).u], local_id[g.edge(e).v]});
        }
        const graph::Graph sub(verts.size(), std::move(edges));
        const auto colours = seq::misra_gries_edge_colouring(sub);
        std::uint64_t used = 0;
        for (const std::uint32_t c : colours) {
          used = std::max<std::uint64_t>(used, c + 1);
        }
        ctx.send_coalesced(mrc::kCentral, {ctx.id(), used});
        for (std::uint32_t k = 0; k < members.size(); ++k) {
          ctx.send_coalesced(mrc::kCentral, {members[k], colours[k]});
        }
      });

  std::vector<std::uint32_t> local_colour(g.num_edges(), 0);
  std::vector<std::uint64_t> palette(plan.kappa, 0);
  if (!res.failed) {
    engine.invoke_round(r_ship);
    engine.invoke_round(r_colour);
    engine.run_central_round("collect-colours", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words());
      for (const mrc::MessageView msg : ctx.messages()) {
        const auto i = static_cast<std::size_t>(msg.payload[0]);
        palette[i] = msg.payload[1];
        for (std::size_t k = 2; k + 1 < msg.payload.size(); k += 2) {
          local_colour[msg.payload[k]] =
              static_cast<std::uint32_t>(msg.payload[k + 1]);
        }
      }
    });
  }

  std::vector<std::uint64_t> offset(plan.kappa + 1, 0);
  std::partial_sum(palette.begin(), palette.end(), offset.begin() + 1);
  res.colour.assign(g.num_edges(), 0);
  if (!res.failed) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      res.colour[e] =
          static_cast<std::uint32_t>(offset[group[e]] + local_colour[e]);
    }
    res.colours_used = offset[plan.kappa];
  }
  res.outcome.failed = res.failed;
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::core
