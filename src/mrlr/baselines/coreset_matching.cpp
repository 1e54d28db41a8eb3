#include "mrlr/baselines/coreset_matching.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::baselines {

using core::MrParams;
using graph::EdgeId;
using graph::VertexId;
using mrc::MachineContext;
using mrc::Word;

namespace {

/// Greedy max-weight-first matching restricted to the given edges.
std::vector<EdgeId> local_greedy(const graph::Graph& g,
                                 std::vector<EdgeId> edges) {
  std::sort(edges.begin(), edges.end(), [&](EdgeId a, EdgeId b) {
    if (g.weight(a) != g.weight(b)) return g.weight(a) > g.weight(b);
    return a < b;
  });
  std::vector<char> used(g.num_vertices(), 0);
  std::vector<EdgeId> out;
  for (const EdgeId e : edges) {
    const graph::Edge& ed = g.edge(e);
    if (!used[ed.u] && !used[ed.v]) {
      used[ed.u] = used[ed.v] = 1;
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace

CoresetMatchingResult coreset_matching(const graph::Graph& g,
                                       const MrParams& params,
                                       std::uint64_t machines) {
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  const std::uint64_t m = g.num_edges();
  const std::uint64_t eta = ipow_real(n, 1.0 + params.mu, 1);
  if (machines == 0) {
    machines = std::max<std::uint64_t>(
        1, ceil_div(std::max<std::uint64_t>(m, 1), eta));
  }

  // The central machine holds the coreset union: up to M * n/2 edges at
  // 2 words each, plus the per-part input of m/M edges.
  mrc::Engine engine(core::engine_topology(
      params, machines,
      static_cast<std::uint64_t>(
          params.slack *
          static_cast<double>(std::max(eta, machines * n))) +
          64,
      n));

  // Random partition of edges into parts (seeded).
  Rng rng(params.seed);
  std::vector<std::uint32_t> part(m);
  for (auto& p : part) p = static_cast<std::uint32_t>(rng.uniform(machines));
  std::vector<std::uint64_t> part_words(machines, 0);
  for (EdgeId e = 0; e < m; ++e) part_words[part[e]] += 3;

  CoresetMatchingResult res;

  // Round 1: each machine computes its coreset and ships it to central.
  // Process-clean: the coreset travels only as messages; no host-side
  // side channel. `g`, `part`, and `part_words` are job-immutable.
  const mrc::RoundId r_coreset = engine.define_round(
      "coreset", [&g, &part, &part_words, m](mrc::MachineContext& ctx,
                                             std::span<const Word>) {
        ctx.charge_resident(part_words[ctx.id()]);
        std::vector<EdgeId> mine;
        for (EdgeId e = 0; e < m; ++e) {
          if (part[e] == ctx.id()) mine.push_back(e);
        }
        const auto core = local_greedy(g, std::move(mine));
        for (const EdgeId e : core) {
          ctx.send_coalesced(mrc::kCentral,
                             {e, core::pack_double(g.weight(e))});
        }
      });
  engine.invoke_round(r_coreset);

  // Round 2: central decodes the union from its inbox — messages merge
  // in sender-id order, so the union's tie-break order matches the old
  // machine-id-order concatenation on every backend — and matches it.
  engine.run_central_round("combine", [&](MachineContext& ctx) {
    ctx.charge_resident(ctx.inbox_words());
    std::vector<EdgeId> coreset_union;
    for (const mrc::MessageView msg : ctx.messages()) {
      for (std::size_t i = 0; i + 1 < msg.payload.size(); i += 2) {
        coreset_union.push_back(static_cast<EdgeId>(msg.payload[i]));
      }
    }
    res.coreset_union_size = coreset_union.size();
    res.matching = local_greedy(g, std::move(coreset_union));
  });
  for (const EdgeId e : res.matching) res.weight += g.weight(e);
  res.outcome.iterations = 1;
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::baselines
