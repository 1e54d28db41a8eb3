#include "mrlr/baselines/luby_mr.hpp"

#include <algorithm>
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

LubyMrResult luby_mis_mr(const graph::Graph& g, const MrParams& params) {
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  const std::uint64_t eta = ipow_real(n, 1.0 + params.mu, 1);

  mrc::Topology topo;
  topo.num_machines = std::max<std::uint64_t>(
      1, ceil_div(std::max<std::uint64_t>(g.num_edges(), 1), eta));
  topo.words_per_machine = static_cast<std::uint64_t>(
                               params.slack * static_cast<double>(eta)) +
                           64;
  topo.fanout = std::max<std::uint64_t>(2, ipow_real(n, params.mu, 2));
  topo.enforce = params.enforce_space;
  topo.num_threads = params.num_threads;
  topo.num_shards = std::max<std::uint64_t>(1, params.num_shards);
  mrc::Engine engine(topo);
  const std::uint64_t machines = topo.num_machines;

  std::vector<std::uint64_t> footprint(machines, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    footprint[owner_of(v, machines)] += 2 + g.degree(v);
  }

  // Worker state: per-machine liveness mirrors (refreshed only by the
  // winner broadcast) and the owner-strided mark array. The host keeps
  // its own liveness replay to drive loop termination.
  std::vector<std::vector<char>> live_by(
      machines, std::vector<char>(g.num_vertices(), 1));
  std::vector<std::uint64_t> mark(g.num_vertices(), 0);
  std::vector<char> live_host(g.num_vertices(), 1);
  std::uint64_t remaining = g.num_vertices();

  LubyMrResult res;
  const Rng root(params.seed);

  // Winners are an independent set, so mirrors can replay the host's
  // deactivation pass verbatim: drop the winner, then its neighbours.
  mrc::JobBroadcast bcast(
      engine, "bcast-winners",
      [&](MachineContext& ctx, std::span<const Word> winners) {
        std::vector<char>& live = live_by[ctx.id()];
        for (const Word vw : winners) {
          const auto v = static_cast<VertexId>(vw);
          if (!live[v]) continue;
          live[v] = 0;
          for (const Incidence& inc : g.neighbours(v)) {
            if (live[inc.neighbour]) live[inc.neighbour] = 0;
          }
        }
      });

  // Round 1: every live vertex draws a mark and sends it to the owners
  // of its live neighbours.
  const mrc::RoundId r_marks = engine.define_round(
      "luby-marks", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t phase = ps[0];
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id]);
        const std::vector<char>& live = live_by[id];
        Rng rng = root.stream((phase << 20) ^ id);
        for (VertexId v = static_cast<VertexId>(id); v < g.num_vertices();
             v = static_cast<VertexId>(v + machines)) {
          if (!live[v]) continue;
          mark[v] = rng();
          for (const Incidence& inc : g.neighbours(v)) {
            if (live[inc.neighbour]) {
              ctx.send(owner_of(inc.neighbour, machines),
                       {inc.neighbour, v, mark[v]});
            }
          }
        }
      });

  // Round 2: owners compare their marks against the neighbour marks in
  // the inbox; local minima declare themselves winners to central (one
  // batch message per machine, merging in machine-id order).
  const mrc::RoundId r_winners = engine.define_round(
      "luby-winners", [&](MachineContext& ctx, std::span<const Word>) {
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id] + ctx.inbox_words());
        std::vector<char> beaten(g.num_vertices(), 0);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t k = 0; k + 2 < msg.payload.size(); k += 3) {
            const auto v = static_cast<VertexId>(msg.payload[k]);
            const auto u = static_cast<VertexId>(msg.payload[k + 1]);
            const std::uint64_t mark_u = msg.payload[k + 2];
            if (mark_u < mark[v] || (mark_u == mark[v] && u < v)) {
              beaten[v] = 1;
            }
          }
        }
        thread_local std::vector<Word> msg;
        msg.clear();
        const std::vector<char>& live = live_by[id];
        for (VertexId v = static_cast<VertexId>(id); v < g.num_vertices();
             v = static_cast<VertexId>(v + machines)) {
          if (live[v] && !beaten[v]) msg.push_back(v);
        }
        if (!msg.empty()) ctx.send(mrc::kCentral, msg);
      });

  while (remaining > 0 && res.phases < params.max_iterations) {
    ++res.phases;
    engine.invoke_round(r_marks, {res.phases});
    engine.invoke_round(r_winners);

    // Round 3: central collects the winners (they join the MIS; the
    // host replays the deactivations to track progress), then the
    // winner list goes down the fanout tree so every mirror replays the
    // same deactivations.
    std::vector<Word> winners;
    engine.run_central_round("luby-drop", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words() + 1);
      for (const mrc::MessageView msg : ctx.messages()) {
        winners.insert(winners.end(), msg.payload.begin(),
                       msg.payload.end());
      }
      for (const Word vw : winners) {
        const auto v = static_cast<VertexId>(vw);
        if (!live_host[v]) continue;
        res.independent_set.push_back(v);
        live_host[v] = 0;
        --remaining;
        for (const Incidence& inc : g.neighbours(v)) {
          if (live_host[inc.neighbour]) {
            live_host[inc.neighbour] = 0;
            --remaining;
          }
        }
      }
    });
    bcast.run(winners);
  }

  std::sort(res.independent_set.begin(), res.independent_set.end());
  res.outcome.iterations = res.phases;
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::baselines
