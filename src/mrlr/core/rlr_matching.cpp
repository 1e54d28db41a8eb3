#include "mrlr/core/rlr_matching.hpp"

#include <algorithm>

#include "mrlr/core/owner_slots.hpp"
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

  mrc::Topology topo;
  topo.num_machines = std::max<std::uint64_t>(1, ceil_div(std::max<std::uint64_t>(m, 1), eta));
  // Central words in one iteration: at most 8*eta sampled edges (the
  // Algorithm 4 fail threshold, scaled by sample_boost) at 2 words each,
  // or 4*|E_i| < 16*eta words in the ship-all endgame, plus the decoded
  // per-vertex sample table (one word per sampled edge and one list head
  // per vertex) the central scan rebuilds from its inbox, plus the phi
  // table (n words). slack/16 scales that requirement (the default
  // slack of 16 grants it exactly; smaller slack under-provisions, which
  // the failure-injection tests use to prove the audit is live).
  topo.words_per_machine =
      static_cast<std::uint64_t>(
          (params.slack / 16.0) *
          (24.0 * std::max(1.0, params.sample_boost) *
               static_cast<double>(eta) +
           2.0 * static_cast<double>(n))) +
      64;
  topo.fanout = std::max<std::uint64_t>(2, ipow_real(n, params.mu, 2));
  topo.enforce = params.enforce_space;
  topo.num_threads = params.num_threads;
  topo.num_shards = std::max<std::uint64_t>(1, params.num_shards);
  mrc::Engine engine(topo);
  const std::uint64_t machines = topo.num_machines;

  // Central state: phi values + stack (Theorem 5.6). The central
  // machine is always coordinator-resident, so this stays a plain host
  // object under every backend.
  seq::MatchingLocalRatio lr(g);
  const std::uint64_t central_footprint = n + 2;

  // Edge e lives on owner_of(e); vertex v (and its adjacency list) on
  // owner_of(v). Footprints per machine (job-immutable).
  const OwnerLayout edge_slots(m, machines);
  std::vector<std::uint64_t> footprint(machines, 0);
  std::vector<std::uint64_t> alive_cnt(machines, 0);  // owned alive edges
  for (MachineId o = 0; o < machines; ++o) {
    const std::uint64_t owned = edge_slots.end(o) - edge_slots.begin(o);
    footprint[o] += 4 * owned;  // id + endpoints + weight
    alive_cnt[o] = owned;       // first-iteration count is all edges (historic)
  }
  for (VertexId v = 0; v < n; ++v) {
    footprint[owner_of(v, machines)] += 1 + g.degree(v);
  }

  // Worker-resident per-machine state (the process-clean contract):
  // every slot below is mutated only by its owner machine's callbacks,
  // so a persistent worker keeps its shard's slots current across
  // rounds without ever reading coordinator memory. The slots are
  // machine-major and owner-filled (owner_slots.hpp): the host maps
  // them untouched, and each machine fills its own in iteration 0's
  // count round, so a forked worker faults only its own machines'
  // pages.
  //
  // An edge is alive iff its modified weight w(e) - phi(u) - phi(v) is
  // positive: process() raises both endpoint phis by the (positive)
  // modified weight, so a stacked edge's modified weight is negative
  // forever after — aliveness is a pure function of phi, and monotone:
  // an edge that died stays dead, and nothing about it is sent again.
  //
  // The liveness view is per incidence: the owner of v keeps one flag
  // per adjacency slot of v, live[incidences.base(v) + k] for the edge
  // at neighbours(v)[k], so sampling and phi forwarding scan v's list
  // and its flags in order. Edge owners keep one record per edge,
  // edge_state[edge_slots.slot(e)]: its weight, its first endpoint,
  // and the two phi halves (apart, so the float subtraction order
  // matches MatchingLocalRatio::modified_weight exactly), refreshed
  // only while the edge is live. The recompute round reads its edges
  // in triple order, scattered over the owned edges, so each edge's
  // fields share one cache line (two records per line).
  struct alignas(32) EdgeState {
    double w;
    double phi[2];  // phi(u), phi(v)
    VertexId u;
  };
  OwnerArray<EdgeState> edge_state(edge_slots.size());
  const OwnerRuns incidences(n, machines, [&](std::uint64_t v) {
    return g.degree(static_cast<VertexId>(v));
  });
  OwnerArray<char> live(incidences.size());

  RlrMatchingResult res;
  Rng root_rng(params.seed);

  // --- Registered rounds: defined before the first invoke so worker
  // processes inherit the full registry at spawn. ---

  // Owned-alive count to central; also consumes the death notices the
  // previous iteration's recompute round addressed to vertex owners.
  // A notice names the dead incidence by its slot, (v << 32) | k for
  // the edge at neighbours(v)[k], so clearing it is one write.
  // Iteration 0's count round is also the owner fill: each machine
  // writes its own edge records and incidence flags (no notices are
  // pending then).
  const mrc::RoundId r_count = engine.define_round(
      "count|Ei|", [&](MachineContext& ctx, std::span<const Word> ps) {
        ctx.charge_resident(footprint[ctx.id()] + 1);
        if (ps[0] == 0) {
          std::uint64_t s = edge_slots.begin(ctx.id());
          for (std::uint64_t e = ctx.id(); e < m; e += machines) {
            const auto id = static_cast<EdgeId>(e);
            edge_state[s++] = {g.weight(id), {0.0, 0.0}, g.edge(id).u};
          }
          for (std::uint64_t v = ctx.id(); v < n; v += machines) {
            const auto id = static_cast<VertexId>(v);
            char* lv = live.data() + incidences.base(v);
            for (const graph::Incidence& inc : g.neighbours(id)) {
              *lv++ = g.weight(inc.edge) > 0.0 ? 1 : 0;  // == lr.edge_alive
            }
          }
        }
        for (const mrc::MessageView msg : ctx.messages()) {
          for (const Word w : msg.payload) {
            const auto v = static_cast<VertexId>(w >> 32);
            const std::uint64_t k = w & 0xFFFFFFFFu;
            MRLR_DEBUG_REQUIRE(owner_of(v, machines) == ctx.id() && v < n &&
                                   k < g.degree(v),
                               "death notice for a slot this machine does "
                               "not own");
            live[incidences.base(v) + k] = 0;
          }
        }
        ctx.send(mrc::kCentral, {alive_cnt[ctx.id()]});
      });

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
        ctx.charge_resident(footprint[ctx.id()]);
        Rng rng = root_rng.stream((iter << 20) ^ ctx.id());
        thread_local std::vector<Word> msg;
        for (VertexId v = static_cast<VertexId>(ctx.id()); v < n;
             v = static_cast<VertexId>(v + machines)) {
          msg.clear();
          const char* lv = live.data() + incidences.base(v);
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

  // Vertex owners forward phi along live incidences only, one
  // (edge, (v << 32) | k, phi) triple for the edge at neighbours(v)[k]:
  // the edge owner learns which endpoint's half it is, and the slot to
  // name in a death notice. An edge alive at the start of the round
  // gets exactly one triple from each endpoint, 6 |E_i| words in all.
  // The receiver parses a flat run of 3-word records, so the triples
  // bound for one edge owner are coalesced into one message.
  const mrc::RoundId r_forward_phi = engine.define_round(
      "forward-phi", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()]);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t i = 0; i + 1 < msg.payload.size(); i += 2) {
            const auto v = static_cast<VertexId>(msg.payload[i]);
            const Word phi_w = msg.payload[i + 1];
            const std::span<const graph::Incidence> nb = g.neighbours(v);
            const char* lv = live.data() + incidences.base(v);
            for (std::size_t k = 0; k < nb.size(); ++k) {
              if (!lv[k]) continue;
              ctx.send_coalesced(owner_of(nb[k].edge, machines),
                                 {nb[k].edge, (Word{v} << 32) | k, phi_w});
            }
          }
        }
      });

  // Edge owners refresh the phi halves of their live edges, then
  // recompute each one's modified weight from the triples: a live
  // triple counts half a live edge, and a dead one sends its slot word
  // back to its vertex owner as a death notice — 2 words per edge that
  // died, delivered into the next iteration's count round, which reads
  // them as a flat run of slot words, so they are coalesced. Dead edges
  // get no triples and are never looked at again.
  const mrc::RoundId r_recompute = engine.define_round(
      "recompute-alive", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()]);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t i = 0; i + 2 < msg.payload.size(); i += 3) {
            const auto e = static_cast<EdgeId>(msg.payload[i]);
            const auto v = static_cast<VertexId>(msg.payload[i + 1] >> 32);
            EdgeState& es = edge_state[edge_slots.slot(e)];
            es.phi[es.u == v ? 0 : 1] = unpack_double(msg.payload[i + 2]);
          }
        }
        std::uint64_t live_triples = 0;
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t i = 0; i + 2 < msg.payload.size(); i += 3) {
            const auto e = static_cast<EdgeId>(msg.payload[i]);
            const Word slot = msg.payload[i + 1];
            const EdgeState& es = edge_state[edge_slots.slot(e)];
            if (es.w - es.phi[0] - es.phi[1] > 0.0) {
              ++live_triples;
            } else {
              ctx.send_coalesced(
                  owner_of(static_cast<VertexId>(slot >> 32), machines),
                  {slot});
            }
          }
        }
        alive_cnt[ctx.id()] = live_triples / 2;
      });

  for (std::uint64_t iter = 0; iter < params.max_iterations; ++iter) {
    // --- 1. |E_i|: owned counts to central, summed centrally. ---
    engine.invoke_round(r_count, {iter});
    std::uint64_t ei = 0;
    engine.run_central_round("sum|Ei|", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words() + 1);
      for (const mrc::MessageView msg : ctx.messages()) {
        for (const Word w : msg.payload) ei += w;
      }
    });
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

    // --- 4a. Central sends phi(v) to each vertex owner, as one run of
    // (v, phi) pairs per owner. ---
    engine.run_central_round("send-phi", [&](MachineContext& ctx) {
      ctx.charge_resident(central_footprint);
      for (VertexId v = 0; v < n; ++v) {
        ctx.send_coalesced(owner_of(v, machines),
                           {v, pack_double(lr.phi(v))});
      }
    });
    // --- 4b. Vertex owners forward phi along live incidences. ---
    engine.invoke_round(r_forward_phi);
    // --- 4c. Edge owners recompute aliveness and counts, and send
    // death notices to the vertex owners. ---
    engine.invoke_round(r_recompute);
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
