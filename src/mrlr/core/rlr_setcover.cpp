#include "mrlr/core/rlr_setcover.hpp"

#include <algorithm>
#include <span>

#include "mrlr/graph/validate.hpp"
#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/seq/local_ratio_setcover.hpp"
#include "mrlr/setcover/validate.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;
using setcover::ElementId;
using setcover::SetId;

namespace {

/// Derives eta = n^{1+mu} and the machine count M = ceil(m / eta):
/// elements are spread n^{1+mu} per machine as in Theorem 2.4.
struct Sizes {
  std::uint64_t eta = 0;
  std::uint64_t machines = 0;
};

Sizes derive_sizes(std::uint64_t n, std::uint64_t m, double mu) {
  Sizes s;
  s.eta = ipow_real(n, 1.0 + mu, /*min_value=*/1);
  s.machines = std::max<std::uint64_t>(1, ceil_div(std::max<std::uint64_t>(m, 1), s.eta));
  return s;
}

}  // namespace

RlrSetCoverResult rlr_set_cover(const setcover::SetSystem& sys,
                                const MrParams& params) {
  MRLR_REQUIRE(sys.coverable(), "instance has an uncoverable element");
  const std::uint64_t n = sys.num_sets();
  const std::uint64_t m = sys.universe_size();
  const std::uint64_t f = std::max<std::uint64_t>(1, sys.max_frequency());
  const Sizes sz = derive_sizes(n, m, params.mu);

  mrc::Topology topo;
  topo.num_machines = sz.machines;
  // Theorem 2.4: space O(f * n^{1+mu}); slack covers the 6*eta sample.
  topo.words_per_machine = static_cast<std::uint64_t>(
                               params.slack * static_cast<double>(f) *
                               static_cast<double>(sz.eta)) +
                           64;
  topo.fanout = std::max<std::uint64_t>(2, ipow_real(n, params.mu, 2));
  topo.enforce = params.enforce_space;
  topo.num_threads = params.num_threads;
  topo.num_shards = std::max<std::uint64_t>(1, params.num_shards);
  mrc::Engine engine(topo);

  // Worker-resident distributed state: machine o owns element j iff
  // o == owner_of(j, M), and only o's callbacks touch active[j] or the
  // o-indexed slots. covered_by[o] mirrors the centrally-zeroed sets on
  // machine o; it is refreshed by the broadcast's apply hook.
  std::vector<char> active(m, 1);
  std::vector<std::uint64_t> active_count(sz.machines, 0);
  std::vector<std::uint64_t> footprint(sz.machines, 0);  // words owned
  for (ElementId j = 0; j < m; ++j) {
    const MachineId o = owner_of(j, sz.machines);
    ++active_count[o];
    footprint[o] += 2 + sys.sets_containing(j).size();  // id + bit + T_j
  }
  std::vector<std::vector<char>> covered_by(sz.machines,
                                            std::vector<char>(n, 0));

  // Central machine's persistent local ratio state (residual weights).
  // Central is coordinator-resident, so this host object is fine.
  seq::SetCoverLocalRatio lr(sys);
  const std::uint64_t central_footprint = n + 2;  // residuals + counters

  RlrSetCoverResult res;
  const Rng root_rng(params.seed);  // immutable; streams only

  const mrc::RoundId r_count = engine.define_round(
      "count|Ur|", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(1);
        ctx.send(mrc::kCentral, {active_count[ctx.id()]});
      });
  const mrc::RoundId r_sample = engine.define_round(
      "sample", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t iter = ps[0];
        const double p = unpack_double(ps[1]);
        ctx.charge_resident(footprint[ctx.id()]);
        Rng rng = root_rng.stream((iter << 20) ^ ctx.id());
        for (ElementId j = static_cast<ElementId>(ctx.id()); j < m;
             j = static_cast<ElementId>(j + sz.machines)) {
          if (!active[j] || !rng.bernoulli(p)) continue;
          const auto owners = sys.sets_containing(j);
          mrc::MessageWriter msg = ctx.begin_message(mrc::kCentral);
          msg.push(j);
          msg.push(owners.size());
          for (const SetId i : owners) msg.push(i);
        }
      });
  // Tree-broadcast of the newly covered sets; the apply hook marks them
  // in the machine's mirror and deactivates its covered elements. An
  // element still active here has no previously-zeroed owner (it would
  // have been deactivated the iteration that set was zeroed), so the
  // mirror check is equivalent to the old residual_weight scan.
  mrc::JobBroadcast bcast(
      engine, "bcast C",
      [&](MachineContext& ctx, std::span<const Word> zeroed) {
        const MachineId id = ctx.id();
        std::vector<char>& covered = covered_by[id];
        for (const Word i : zeroed) covered[static_cast<SetId>(i)] = 1;
        for (ElementId j = static_cast<ElementId>(id); j < m;
             j = static_cast<ElementId>(j + sz.machines)) {
          if (!active[j]) continue;
          const auto owners = sys.sets_containing(j);
          const bool hit = std::any_of(owners.begin(), owners.end(),
                                       [&](SetId i) { return covered[i]; });
          if (hit) {
            active[j] = 0;
            --active_count[id];
          }
        }
      });

  for (std::uint64_t iter = 0; iter < params.max_iterations; ++iter) {
    // --- 1. |U_r|: owners report their live counts; central sums. ---
    engine.invoke_round(r_count);
    std::uint64_t ur = 0;
    engine.run_central_round("sum|Ur|", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words() + 1);
      for (const mrc::MessageView msg : ctx.messages()) {
        for (const Word w : msg.payload) ur += w;
      }
    });
    if (ur == 0) break;
    ++res.outcome.iterations;

    const double p = std::min(
        1.0, params.sample_boost * 2.0 * static_cast<double>(sz.eta) /
                 static_cast<double>(ur));

    // --- 2. Sampling round: machines ship sampled T_j to central. ---
    // One message per sampled element; sender-id-order merge reproduces
    // the sequential scan order on every backend.
    engine.invoke_round(r_sample, {iter, pack_double(p)});

    // Control-plane peek: one message per sampled element, so the fail
    // check runs before the oversized inbox is ever charged.
    const std::uint64_t sampled = engine.inbox_size(mrc::kCentral);
    const std::uint64_t sample_cap = static_cast<std::uint64_t>(
        6.0 * params.sample_boost * static_cast<double>(sz.eta));
    if (sampled > sample_cap) {
      res.outcome.failed = true;
      break;
    }

    // --- 3. Central local ratio on the sample. ---
    std::vector<SetId> newly_zeroed;
    engine.run_central_round("local-ratio", [&](MachineContext& ctx) {
      ctx.charge_resident(central_footprint + ctx.inbox_words());
      for (const mrc::MessageView msg : ctx.messages()) {
        const auto j = static_cast<ElementId>(msg.payload[0]);
        for (const SetId i : lr.process(j)) newly_zeroed.push_back(i);
      }
    });

    // --- 4. Tree-broadcast the newly covered sets; deactivate. ---
    std::vector<Word> payload;
    payload.reserve(newly_zeroed.size());
    for (const SetId i : newly_zeroed) payload.push_back(i);
    bcast.run(std::move(payload));
  }

  res.cover = lr.cover();
  res.weight = setcover::cover_weight(sys, res.cover);
  res.lower_bound = lr.lower_bound();
  res.outcome.fill_from(engine.metrics());
  return res;
}

RlrVertexCoverResult rlr_vertex_cover(const graph::Graph& g,
                                      const std::vector<double>& weights,
                                      const MrParams& params) {
  // Elements are edges, sets are vertices; f = 2. The loop mirrors
  // rlr_set_cover but replaces the tree broadcast by two forwarding
  // rounds: central -> vertex owner (one bit per newly covered vertex),
  // vertex owner -> edge owners (one word per incident edge).
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  MRLR_REQUIRE(weights.size() == n, "one weight per vertex required");
  const Sizes sz = derive_sizes(n, m, params.mu);

  mrc::Topology topo;
  topo.num_machines = sz.machines;
  topo.words_per_machine = static_cast<std::uint64_t>(
                               params.slack * 2.0 *
                               static_cast<double>(sz.eta)) +
                           64;
  topo.fanout = std::max<std::uint64_t>(2, ipow_real(n, params.mu, 2));
  topo.enforce = params.enforce_space;
  topo.num_threads = params.num_threads;
  topo.num_shards = std::max<std::uint64_t>(1, params.num_shards);
  mrc::Engine engine(topo);

  const setcover::SetSystem sys =
      setcover::SetSystem::vertex_cover_instance(g, weights);

  std::vector<char> active(m, 1);
  std::vector<std::uint64_t> active_count(sz.machines, 0);
  std::vector<std::uint64_t> footprint(sz.machines, 0);
  for (ElementId j = 0; j < m; ++j) {
    const MachineId o = owner_of(j, sz.machines);
    ++active_count[o];
    footprint[o] += 4;  // edge id + endpoints + bit
  }
  // Vertices (sets) are also distributed: owner stores the adjacency list.
  for (graph::VertexId v = 0; v < n; ++v) {
    footprint[owner_of(v, sz.machines)] += 1 + g.degree(v);
  }

  seq::SetCoverLocalRatio lr(sys);
  const std::uint64_t central_footprint = n + 2;

  RlrVertexCoverResult res;
  const Rng root_rng(params.seed);  // immutable; streams only

  const mrc::RoundId r_count = engine.define_round(
      "count|Ur|", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(1);
        ctx.send(mrc::kCentral, {active_count[ctx.id()]});
      });
  const mrc::RoundId r_sample = engine.define_round(
      "sample", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t iter = ps[0];
        const double p = unpack_double(ps[1]);
        ctx.charge_resident(footprint[ctx.id()]);
        Rng rng = root_rng.stream((iter << 20) ^ ctx.id());
        for (ElementId j = static_cast<ElementId>(ctx.id()); j < m;
             j = static_cast<ElementId>(j + sz.machines)) {
          if (!active[j] || !rng.bernoulli(p)) continue;
          const graph::Edge& e = g.edge(j);
          ctx.send(mrc::kCentral, {j, e.u, e.v});
        }
      });
  // Forward round B: vertex owners tell the owners of incident edges,
  // one coalesced run of edge ids per owner.
  const mrc::RoundId r_notify_edges = engine.define_round(
      "notify-edges", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()]);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (const Word vw : msg.payload) {
            const auto v = static_cast<graph::VertexId>(vw);
            for (const graph::Incidence& inc : g.neighbours(v)) {
              ctx.send_coalesced(owner_of(inc.edge, sz.machines),
                                 {inc.edge});
            }
          }
        }
      });
  // Drain + deactivate.
  const mrc::RoundId r_deactivate = engine.define_round(
      "deactivate", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()]);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (const Word ew : msg.payload) {
            const auto e = static_cast<ElementId>(ew);
            if (active[e]) {
              active[e] = 0;
              --active_count[ctx.id()];
            }
          }
        }
      });

  for (std::uint64_t iter = 0; iter < params.max_iterations; ++iter) {
    engine.invoke_round(r_count);
    std::uint64_t ur = 0;
    engine.run_central_round("sum|Ur|", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words() + 1);
      for (const mrc::MessageView msg : ctx.messages()) {
        for (const Word w : msg.payload) ur += w;
      }
    });
    if (ur == 0) break;
    ++res.outcome.iterations;

    const double p = std::min(
        1.0, params.sample_boost * 2.0 * static_cast<double>(sz.eta) /
                 static_cast<double>(ur));

    engine.invoke_round(r_sample, {iter, pack_double(p)});

    // One 3-word message per sampled edge; peek before charging.
    const std::uint64_t sampled = engine.inbox_size(mrc::kCentral);
    const std::uint64_t sample_cap = static_cast<std::uint64_t>(
        6.0 * params.sample_boost * static_cast<double>(sz.eta));
    if (sampled > sample_cap) {
      res.outcome.failed = true;
      break;
    }

    std::vector<SetId> newly_zeroed;
    engine.run_central_round("local-ratio", [&](MachineContext& ctx) {
      ctx.charge_resident(central_footprint + ctx.inbox_words());
      for (const mrc::MessageView msg : ctx.messages()) {
        const auto j = static_cast<ElementId>(msg.payload[0]);
        for (const SetId i : lr.process(j)) newly_zeroed.push_back(i);
      }
    });

    // Forward round A: central tells each newly covered vertex's owner,
    // one coalesced run of vertex ids per owner.
    engine.run_central_round("notify-vertices", [&](MachineContext& ctx) {
      ctx.charge_resident(central_footprint);
      for (const SetId v : newly_zeroed) {
        ctx.send_coalesced(owner_of(v, sz.machines), {v});
      }
    });
    engine.invoke_round(r_notify_edges);
    engine.invoke_round(r_deactivate);
  }

  for (const SetId i : lr.cover()) {
    res.cover.push_back(static_cast<graph::VertexId>(i));
  }
  res.weight = graph::vertex_set_weight(weights, res.cover);
  res.lower_bound = lr.lower_bound();
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::core
