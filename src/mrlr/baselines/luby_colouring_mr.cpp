#include "mrlr/baselines/luby_colouring_mr.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::baselines {

using core::MrParams;
using core::owner_of;
using graph::Incidence;
using graph::VertexId;
using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;

namespace {
constexpr std::uint32_t kUncoloured =
    std::numeric_limits<std::uint32_t>::max();
}

LubyColouringResult luby_colouring_mr(const graph::Graph& g,
                                      const MrParams& params) {
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  const std::uint64_t eta = ipow_real(n, 1.0 + params.mu, 1);

  const std::uint64_t machines = std::max<std::uint64_t>(
      1, ceil_div(std::max<std::uint64_t>(g.num_edges(), 1), eta));
  mrc::Engine engine(core::engine_topology(
      params, machines,
      static_cast<std::uint64_t>(params.slack * static_cast<double>(eta)) + 64,
      n));

  std::vector<std::uint64_t> footprint(machines, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    footprint[owner_of(v, machines)] += 2 + g.degree(v);
  }

  const auto palette =
      static_cast<std::uint32_t>(g.max_degree() + 1);
  LubyColouringResult res;
  res.colour.assign(g.num_vertices(), kUncoloured);
  std::uint64_t uncoloured = g.num_vertices();

  // Worker state: per-machine colour mirrors (refreshed only by the
  // winner broadcast) and the owner-strided proposal array.
  std::vector<std::vector<std::uint32_t>> colour_by(
      machines, std::vector<std::uint32_t>(g.num_vertices(), kUncoloured));
  std::vector<std::uint32_t> proposal(g.num_vertices(), kUncoloured);
  const Rng root(params.seed);

  // Winners broadcast as (vertex, colour) pairs; mirrors adopt them.
  mrc::JobBroadcast bcast(
      engine, "bcast-winners",
      [&](MachineContext& ctx, std::span<const Word> pairs) {
        std::vector<std::uint32_t>& colour = colour_by[ctx.id()];
        for (std::size_t k = 0; k + 1 < pairs.size(); k += 2) {
          colour[static_cast<VertexId>(pairs[k])] =
              static_cast<std::uint32_t>(pairs[k + 1]);
        }
      });

  // Round 1: uncoloured vertices propose a colour that no coloured
  // neighbour holds, drawn uniformly from the first such candidates,
  // and tell their uncoloured neighbours' owners.
  const mrc::RoundId r_propose = engine.define_round(
      "propose", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t phase = ps[0];
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id]);
        const std::vector<std::uint32_t>& colour = colour_by[id];
        Rng rng = root.stream((phase << 20) ^ id);
        for (VertexId v = static_cast<VertexId>(id); v < g.num_vertices();
             v = static_cast<VertexId>(v + machines)) {
          if (colour[v] != kUncoloured) continue;
          // Free colours = palette minus coloured neighbours' colours.
          std::vector<char> taken(palette, 0);
          for (const Incidence& inc : g.neighbours(v)) {
            const std::uint32_t cn = colour[inc.neighbour];
            if (cn != kUncoloured) taken[cn] = 1;
          }
          std::vector<std::uint32_t> free;
          for (std::uint32_t col = 0; col < palette; ++col) {
            if (!taken[col]) free.push_back(col);
          }
          MRLR_REQUIRE(!free.empty(), "palette exhausted: degree bound bug");
          proposal[v] = free[rng.uniform(free.size())];
          for (const Incidence& inc : g.neighbours(v)) {
            if (colour[inc.neighbour] == kUncoloured) {
              ctx.send(owner_of(inc.neighbour, machines),
                       {inc.neighbour, v, proposal[v]});
            }
          }
        }
      });

  // Round 2: a proposal sticks if no uncoloured neighbour proposed the
  // same colour with a smaller id (deterministic tie-break). The inbox
  // holds exactly the competing proposals, all decided against the
  // pre-phase colour state (mirrors update only after the broadcast).
  // Winners ship (v, colour) to central, one batch per machine.
  const mrc::RoundId r_commit = engine.define_round(
      "commit", [&](MachineContext& ctx, std::span<const Word>) {
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id] + ctx.inbox_words());
        std::vector<char> beaten(g.num_vertices(), 0);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t k = 0; k + 2 < msg.payload.size(); k += 3) {
            const auto v = static_cast<VertexId>(msg.payload[k]);
            const auto u = static_cast<VertexId>(msg.payload[k + 1]);
            const auto c = static_cast<std::uint32_t>(msg.payload[k + 2]);
            if (c == proposal[v] && u < v) beaten[v] = 1;
          }
        }
        const std::vector<std::uint32_t>& colour = colour_by[id];
        for (VertexId v = static_cast<VertexId>(id); v < g.num_vertices();
             v = static_cast<VertexId>(v + machines)) {
          if (colour[v] != kUncoloured || proposal[v] == kUncoloured) {
            continue;
          }
          if (!beaten[v]) ctx.send_coalesced(mrc::kCentral, {v, proposal[v]});
        }
      });

  while (uncoloured > 0 && res.phases < params.max_iterations) {
    ++res.phases;
    engine.invoke_round(r_propose, {res.phases});
    engine.invoke_round(r_commit);

    // Central collects the committed (v, colour) pairs into the result
    // and broadcasts them so every mirror adopts the same colours.
    std::vector<Word> winners;
    engine.run_central_round("collect-winners", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words() + 1);
      for (const mrc::MessageView msg : ctx.messages()) {
        winners.insert(winners.end(), msg.payload.begin(),
                       msg.payload.end());
      }
      for (std::size_t k = 0; k + 1 < winners.size(); k += 2) {
        res.colour[static_cast<VertexId>(winners[k])] =
            static_cast<std::uint32_t>(winners[k + 1]);
        --uncoloured;
      }
    });
    bcast.run(winners);
  }

  std::uint32_t max_colour = 0;
  for (const auto col : res.colour) {
    if (col != kUncoloured) max_colour = std::max(max_colour, col);
  }
  res.colours_used = g.num_vertices() == 0 ? 0 : max_colour + 1;
  res.outcome.iterations = res.phases;
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::baselines
