#include "mrlr/core/rlr_matching.hpp"

#include <algorithm>

#include "mrlr/core/live_edges.hpp"
#include "mrlr/seq/local_ratio_matching.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

using graph::EdgeId;
using graph::VertexId;
using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;

RlrMatchingResult rlr_matching(const graph::Graph& g,
                               const MrParams& params) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  const std::uint64_t eta =
      std::max<std::uint64_t>(1, ipow_real(std::max<std::uint64_t>(n, 2),
                                           1.0 + params.mu));

  const std::uint64_t machines =
      std::max<std::uint64_t>(1, ceil_div(std::max<std::uint64_t>(m, 1), eta));
  // Central words in one iteration: at most 8*eta sampled edges (the
  // Algorithm 4 fail threshold, scaled by sample_boost) at 2 words each,
  // or 4*|E_i| < 16*eta words in the ship-all endgame, plus the decoded
  // per-vertex sample table (one word per sampled edge and one list head
  // per vertex) the central scan rebuilds from its inbox, plus the phi
  // table (n words). slack/16 scales that requirement (the default
  // slack of 16 grants it exactly; smaller slack under-provisions, which
  // the failure-injection tests use to prove the audit is live).
  const std::uint64_t words_per_machine =
      static_cast<std::uint64_t>(
          (params.slack / 16.0) *
          (24.0 * std::max(1.0, params.sample_boost) *
               static_cast<double>(eta) +
           2.0 * static_cast<double>(n))) +
      64;
  mrc::Engine engine(engine_topology(params, machines, words_per_machine, n));

  // Central state: phi values + stack (Theorem 5.6). The central
  // machine is always coordinator-resident, so this stays a plain host
  // object under every backend.
  seq::MatchingLocalRatio lr(g);
  const std::uint64_t central_footprint = n + 2;

  // The distributed liveness state and the count, phi and recompute
  // rounds (live_edges.hpp). An edge is alive iff its modified weight
  // w(e) - phi(u) - phi(v) is positive, subtracted in the order of
  // MatchingLocalRatio::modified_weight: process() raises both endpoint
  // phis by the (positive) modified weight, so a stacked edge's modified
  // weight is negative forever after, and it needs no stacked notice.
  LiveEdges edges(engine, g, [](const EdgeState& es) {
    return es.w - es.phi[0] - es.phi[1] > 0.0;
  });

  RlrMatchingResult res;
  Rng root_rng(params.seed);

  // Per-vertex sampling over live incidences; ship (edge, weight) pairs
  // to central. Every owned vertex sends exactly one message (possibly
  // empty) in ascending vertex order, so the central machine can
  // attribute message i of sender s to vertex s + i*M without the
  // vertex id on the wire — empty frames carry zero payload words, so
  // the engine's word accounting is unchanged by the placeholders. All
  // sample state flows through the engine (no host-side side channels).
  const mrc::RoundId r_sample = engine.define_round(
      "sample", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t iter = ps[0];
        const bool ship_all = ps[1] != 0;
        const double p = unpack_double(ps[2]);
        ctx.charge_resident(edges.footprint(ctx.id()));
        Rng rng = root_rng.stream((iter << 20) ^ ctx.id());
        thread_local std::vector<Word> msg;
        for (VertexId v = static_cast<VertexId>(ctx.id()); v < n;
             v = static_cast<VertexId>(v + machines)) {
          msg.clear();
          const char* lv = edges.live(v);
          for (const graph::Incidence& inc : g.neighbours(v)) {
            if (!*lv++) continue;
            if (ship_all || rng.bernoulli(p)) {
              msg.push_back(inc.edge);
              msg.push_back(pack_double(g.weight(inc.edge)));
            }
          }
          ctx.send(mrc::kCentral, msg);
        }
      });

  for (std::uint64_t iter = 0; iter < params.max_iterations; ++iter) {
    // --- 1. |E_i|: owned counts to central, summed centrally. ---
    const std::uint64_t ei = edges.count_live(iter);
    if (ei == 0) break;
    ++res.outcome.iterations;

    const bool ship_all = ei < 4 * eta;
    const double p =
        ship_all ? 1.0
                 : std::min(1.0, params.sample_boost *
                                     static_cast<double>(eta) /
                                     static_cast<double>(ei));

    // --- 2. Per-vertex sampling. ---
    engine.invoke_round(
        r_sample,
        {iter, static_cast<Word>(ship_all ? 1 : 0), pack_double(p)});
    // Merged coordinator-side accounting: every sampled edge is exactly
    // one (id, weight) pair in the central inbox, identically under
    // every backend.
    const std::uint64_t total_sampled =
        engine.inbox_words(mrc::kCentral) / 2;

    if (!ship_all &&
        total_sampled > static_cast<std::uint64_t>(
                            8.0 * params.sample_boost *
                            static_cast<double>(eta))) {
      res.outcome.failed = true;
      break;
    }

    // --- 3. Central scan: heaviest alive sampled edge per vertex. ---
    engine.run_central_round("local-ratio", [&](MachineContext& ctx) {
      // Resident: phi table + stack, the inbox, and the decoded sample
      // table (a list head per vertex plus one word per sampled edge).
      ctx.charge_resident(central_footprint + ctx.inbox_words() +
                          ctx.inbox_words() / 2 + n);
      // Decode the inbox back into per-vertex sample lists. Messages
      // arrive sender-major, and each sender's messages are its owned
      // vertices ascending, so (sender, index-within-sender) names the
      // vertex; per-vertex draw order is preserved, keeping the scan
      // below byte-identical to the pre-wire-format implementation.
      std::vector<std::vector<EdgeId>> sampled(n);
      mrc::MachineId prev_from = 0;
      std::uint64_t index = 0;
      bool started = false;
      for (const mrc::MessageView msg : ctx.messages()) {
        if (!started || msg.from != prev_from) {
          prev_from = msg.from;
          index = 0;
          started = true;
        }
        const std::uint64_t v64 = prev_from + index * machines;
        ++index;
        MRLR_DEBUG_REQUIRE(v64 < n, "sample message beyond vertex range");
        auto& list = sampled[static_cast<VertexId>(v64)];
        for (std::size_t k = 0; k + 1 < msg.payload.size(); k += 2) {
          list.push_back(static_cast<EdgeId>(msg.payload[k]));
        }
      }
      for (VertexId v = 0; v < n; ++v) {
        EdgeId best = 0;
        double best_w = 0.0;
        bool found = false;
        for (const EdgeId e : sampled[v]) {
          const double mw = lr.modified_weight(e);
          if (lr.edge_alive(e) && mw > best_w) {
            best = e;
            best_w = mw;
            found = true;
          }
        }
        if (found) (void)lr.process(best);
      }
    });

    // --- 4. Central sends phi(v) to each vertex owner, vertex owners
    // forward it along live incidences, and edge owners recompute
    // aliveness and send death notices to the vertex owners. ---
    edges.propagate(central_footprint, [&](VertexId v) { return lr.phi(v); },
                    {});
  }

  res.stack_size = lr.stack_size();
  seq::MatchingResult unwound = lr.unwind();
  res.matching = std::move(unwound.edges);
  res.weight = unwound.weight;
  res.outcome.fill_from(engine.metrics());
  res.per_round = engine.metrics().per_round();
  return res;
}

}  // namespace mrlr::core
