#pragma once
// Distributed edge liveness for the randomized local-ratio matchings:
// Algorithm 4 (rlr_matching.hpp) and Algorithm 7 (rlr_bmatching.hpp).
//
// Both drivers count the live edges, sample them at the vertex owners,
// run the local ratio centrally, and send phi back to the live edges.
// LiveEdges is the distributed half of that loop: the liveness state
// and the count|Ei|, sum|Ei|, send-phi, forward-phi and recompute-alive
// rounds. A driver keeps its topology, sample round, fail check,
// central local-ratio round and unwind. The kill rule, a predicate on
// an EdgeState, is a template parameter, so the recompute loop calls it
// inline.
//
// Worker-resident per-machine state (the process-clean contract): every
// slot below is mutated only by its owner machine's callbacks, so a
// persistent worker keeps its shard's slots current across rounds
// without ever reading coordinator memory. The slots are machine-major
// and owner-filled (owner_slots.hpp): the host maps them untouched, and
// each machine fills its own in iteration 0's count round, so a forked
// worker faults only its own machines' pages.
//
// Liveness is a pure function of the central phi (and, for Algorithm 7,
// of the stack), and monotone: phi only grows and stacking is
// permanent, so an edge that died stays dead, and nothing about it is
// sent again.
//
// The liveness view is per incidence: the owner of v keeps one flag per
// adjacency slot of v, live(v)[k] for the edge at neighbours(v)[k], so
// sampling and phi forwarding scan v's list and its flags in order.
// Edge owners keep one EdgeState per edge, refreshed only while the
// edge is live. The recompute round reads its edges in triple order,
// scattered over the owned edges, so each edge's fields share one cache
// line (two records per line).

#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "mrlr/core/owner_slots.hpp"
#include "mrlr/core/params.hpp"
#include "mrlr/graph/graph.hpp"
#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

/// An edge owner's record of one edge: its weight, its first endpoint,
/// the two endpoint phis (apart, so a kill rule adds or subtracts them
/// in the central machine's float order), and whether the central
/// machine stacked it (Algorithm 7's kill rule reads it; Algorithm 4's
/// stacked edges die by their phis alone).
struct alignas(32) EdgeState {
  double w;
  double phi[2];  // phi(u), phi(v)
  graph::VertexId u;
  char stacked;
};

template <class Alive>
class LiveEdges {
 public:
  /// Defines the count, forward-phi and recompute-alive rounds on
  /// `engine`; construct it before the engine's first invoke_round.
  /// `alive(es)` is the kill rule: true while the edge stays live.
  LiveEdges(mrc::Engine& engine, const graph::Graph& g, Alive alive)
      : engine_(engine),
        g_(g),
        alive_(alive),
        machines_(engine.num_machines()),
        edge_slots_(g.num_edges(), machines_),
        incidences_(g.num_vertices(), machines_,
                    [&](std::uint64_t v) {
                      return g.degree(static_cast<graph::VertexId>(v));
                    }),
        edge_state_(edge_slots_.size()),
        live_(incidences_.size()),
        footprint_(machines_, 0),
        alive_cnt_(machines_, 0) {
    for (mrc::MachineId o = 0; o < machines_; ++o) {
      const std::uint64_t owned = edge_slots_.end(o) - edge_slots_.begin(o);
      footprint_[o] += 4 * owned;  // id + endpoints + weight
      alive_cnt_[o] = owned;  // first-iteration count is all edges (historic)
    }
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      footprint_[owner_of(v, machines_)] += 1 + g.degree(v);
    }
    // Owned-live count to central; also consumes the death notices
    // the previous iteration's recompute round addressed to vertex
    // owners. A notice names the dead incidence by its slot,
    // (v << 32) | k for the edge at neighbours(v)[k], so clearing it is
    // one write. Iteration 0's count round is also the owner fill: each
    // machine writes its own edge records and incidence flags (no
    // notices are pending then).
    r_count_ = engine.define_round(
        "count|Ei|",
        [this](mrc::MachineContext& ctx, std::span<const mrc::Word> ps) {
          const std::uint64_t n = g_.num_vertices();
          ctx.charge_resident(footprint_[ctx.id()] + 1);
          if (ps[0] == 0) {
            std::uint64_t s = edge_slots_.begin(ctx.id());
            for (std::uint64_t e = ctx.id(); e < g_.num_edges();
                 e += machines_) {
              const auto id = static_cast<graph::EdgeId>(e);
              edge_state_[s++] = {g_.weight(id), {0.0, 0.0}, g_.edge(id).u, 0};
            }
            for (std::uint64_t v = ctx.id(); v < n; v += machines_) {
              char* lv = live_.data() + incidences_.base(v);
              for (const graph::Incidence& inc :
                   g_.neighbours(static_cast<graph::VertexId>(v))) {
                // Both kill rules keep the positive-weight edges while
                // every phi is 0.
                *lv++ = g_.weight(inc.edge) > 0.0 ? 1 : 0;
              }
            }
          }
          for (const mrc::MessageView msg : ctx.messages()) {
            for (const mrc::Word w : msg.payload) {
              const auto v = static_cast<graph::VertexId>(w >> 32);
              const std::uint64_t k = w & 0xFFFFFFFFu;
              MRLR_DEBUG_REQUIRE(owner_of(v, machines_) == ctx.id() &&
                                     v < n && k < g_.degree(v),
                                 "death notice for a slot this machine "
                                 "does not own");
              live_[incidences_.base(v) + k] = 0;
            }
          }
          ctx.send(mrc::kCentral, {alive_cnt_[ctx.id()]});
        });

    // Edge owners record the stacked notices, and vertex owners forward
    // phi along live incidences only, one (edge, (v << 32) | k, phi)
    // triple for the edge at neighbours(v)[k]: the edge owner learns
    // which endpoint's half it is, and the slot to name in a death
    // notice. An edge live at the start of the round gets exactly one
    // triple from each endpoint, 6 |E_i| words in all. The receiver
    // parses a flat run of 3-word records, so the triples bound for one
    // edge owner are coalesced into one message. A send-phi message is
    // a run of (v, phi) pairs or one stacked edge id: its length tells
    // the two apart.
    r_forward_phi_ = engine.define_round(
        "forward-phi",
        [this](mrc::MachineContext& ctx, std::span<const mrc::Word>) {
          ctx.charge_resident(footprint_[ctx.id()]);
          for (const mrc::MessageView msg : ctx.messages()) {
            if (msg.payload.size() == 1) {
              edge_state_[edge_slots_.slot(msg.payload[0])].stacked = 1;
              continue;
            }
            for (std::size_t i = 0; i + 1 < msg.payload.size(); i += 2) {
              const auto v = static_cast<graph::VertexId>(msg.payload[i]);
              const mrc::Word phi_w = msg.payload[i + 1];
              const std::span<const graph::Incidence> nb = g_.neighbours(v);
              const char* lv = live(v);
              for (std::size_t k = 0; k < nb.size(); ++k) {
                if (!lv[k]) continue;
                ctx.send_coalesced(
                    owner_of(nb[k].edge, machines_),
                    {nb[k].edge, (mrc::Word{v} << 32) | k, phi_w});
              }
            }
          }
        });

    // Edge owners refresh the phi halves of their live edges, then apply
    // the kill rule once per triple: a live triple counts half a live
    // edge, and a dead one sends its slot word back to its vertex owner
    // as a death notice — 2 words per edge that died, delivered into the
    // next iteration's count round, which reads them as a flat run of
    // slot words, so they are coalesced. Dead edges get no triples and
    // are never looked at again. Notices are appended a batch at a time,
    // in triple order: appending each one between the scattered
    // edge-record reads made the round about 15% slower.
    r_recompute_ = engine.define_round(
        "recompute-alive",
        [this](mrc::MachineContext& ctx, std::span<const mrc::Word>) {
          ctx.charge_resident(footprint_[ctx.id()]);
          EdgeState* const state = edge_state_.data();
          const OwnerLayout slots = edge_slots_;
          const std::uint64_t machines = machines_;
          for (const mrc::MessageView msg : ctx.messages()) {
            for (std::size_t i = 0; i + 2 < msg.payload.size(); i += 3) {
              const auto v =
                  static_cast<graph::VertexId>(msg.payload[i + 1] >> 32);
              EdgeState& es = state[slots.slot(msg.payload[i])];
              es.phi[es.u == v ? 0 : 1] = unpack_double(msg.payload[i + 2]);
            }
          }
          std::uint64_t live_triples = 0;
          mrc::Word dead[512];
          std::size_t batched = 0;
          const auto send_notices = [&] {
            for (std::size_t j = 0; j < batched; ++j) {
              ctx.send_coalesced(
                  owner_of(static_cast<graph::VertexId>(dead[j] >> 32),
                           machines),
                  {dead[j]});
            }
            batched = 0;
          };
          for (const mrc::MessageView msg : ctx.messages()) {
            for (std::size_t i = 0; i + 2 < msg.payload.size(); i += 3) {
              if (alive_(state[slots.slot(msg.payload[i])])) {
                ++live_triples;
                continue;
              }
              dead[batched++] = msg.payload[i + 1];
              if (batched == std::size(dead)) send_notices();
            }
          }
          send_notices();
          alive_cnt_[ctx.id()] = live_triples / 2;
        });
  }
  LiveEdges(const LiveEdges&) = delete;
  LiveEdges& operator=(const LiveEdges&) = delete;

  /// Words machine o keeps resident: its edges (id, endpoints, weight)
  /// and its vertices' adjacency lists.
  std::uint64_t footprint(mrc::MachineId o) const { return footprint_[o]; }

  /// v's live flags, one per slot of neighbours(v); read by v's owner.
  const char* live(graph::VertexId v) const {
    return live_.data() + incidences_.base(v);
  }

  /// Rounds count|Ei| and sum|Ei|: |E_i|, the number of live edges at
  /// the start of iteration `iter`.
  std::uint64_t count_live(std::uint64_t iter) {
    engine_.invoke_round(r_count_, {iter});
    return mrc::central_sum(engine_, "sum|Ei|");
  }

  /// Rounds send-phi, forward-phi and recompute-alive. The central
  /// machine (charging `central_footprint`) sends phi(v) to every vertex
  /// owner, as one run of (v, phi) pairs per owner, and a one-word
  /// notice to the owner of each edge in `stacked`; the live edges then
  /// learn their new phis and recompute liveness by the kill rule.
  template <class Phi>
  void propagate(std::uint64_t central_footprint, const Phi& phi,
                 std::span<const graph::EdgeId> stacked) {
    engine_.run_central_round("send-phi", [&](mrc::MachineContext& ctx) {
      ctx.charge_resident(central_footprint);
      for (graph::VertexId v = 0; v < g_.num_vertices(); ++v) {
        ctx.send_coalesced(owner_of(v, machines_), {v, pack_double(phi(v))});
      }
      for (const graph::EdgeId e : stacked) {
        ctx.send(owner_of(e, machines_), {e});
      }
    });
    engine_.invoke_round(r_forward_phi_);
    engine_.invoke_round(r_recompute_);
  }

 private:
  mrc::Engine& engine_;
  const graph::Graph& g_;
  const Alive alive_;
  const std::uint64_t machines_;
  // Edge e's record sits at edge_state_[edge_slots_.slot(e)] on
  // owner_of(e); v's flags at live_[incidences_.base(v) + k] on
  // owner_of(v).
  const OwnerLayout edge_slots_;
  const OwnerRuns incidences_;
  OwnerArray<EdgeState> edge_state_;
  OwnerArray<char> live_;
  std::vector<std::uint64_t> footprint_;  // job-immutable
  std::vector<std::uint64_t> alive_cnt_;  // owned live edges, per machine
  mrc::RoundId r_count_;
  mrc::RoundId r_forward_phi_;
  mrc::RoundId r_recompute_;
};

}  // namespace mrlr::core
