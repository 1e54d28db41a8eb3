#include "mrlr/core/rlr_setcover.hpp"

#include <algorithm>
#include <functional>
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

/// Algorithm 1 on `sys`, shared by both drivers. The constructor builds
/// the engine and registers count|Ur| and sample; the driver then
/// registers its own rounds and calls run() with its deactivation step.
class CoverLoop {
 public:
  /// Ships sampled element j (owned by ctx's machine) to central.
  using SendSample = std::function<void(MachineContext&, ElementId)>;
  /// Takes one iteration's newly zeroed sets to the element owners,
  /// which deactivate the elements they cover.
  using Deactivate = std::function<void(const std::vector<SetId>&)>;

  /// Space O(words_factor * n^{1+mu}) per machine (Theorem 2.4: f for
  /// set cover); slack covers the 6*eta sample.
  CoverLoop(const setcover::SetSystem& sys, double words_factor,
            const MrParams& params, SendSample send_sample)
      : sys_(sys),
        params_(params),
        m_(sys.universe_size()),
        sz_(derive_sizes(sys.num_sets(), m_, params.mu)),
        engine_(engine_topology(
            params, sz_.machines,
            static_cast<std::uint64_t>(params.slack * words_factor *
                                       static_cast<double>(sz_.eta)) +
                64,
            sys.num_sets())),
        active_(m_, 1),
        active_count_(sz_.machines, 0),
        footprint_(sz_.machines, 0),
        lr_(sys),
        root_rng_(params.seed) {
    // Worker-resident distributed state: machine o owns element j iff
    // o == owner_of(j, M), and only o's callbacks touch active_[j] or
    // the o-indexed slots. An element holds its id, its bit and T_j:
    // 4 words for an edge (its two endpoints).
    for (ElementId j = 0; j < m_; ++j) {
      const MachineId o = owner_of(j, sz_.machines);
      ++active_count_[o];
      footprint_[o] += 2 + sys.sets_containing(j).size();
    }
    r_count_ = engine_.define_round(
        "count|Ur|", [this](MachineContext& ctx, std::span<const Word>) {
          ctx.charge_resident(1);
          ctx.send(mrc::kCentral, {active_count_[ctx.id()]});
        });
    r_sample_ = engine_.define_round(
        "sample", [this, send_sample = std::move(send_sample)](
                      MachineContext& ctx, std::span<const Word> ps) {
          const std::uint64_t iter = ps[0];
          const double p = unpack_double(ps[1]);
          ctx.charge_resident(footprint_[ctx.id()]);
          Rng rng = root_rng_.stream((iter << 20) ^ ctx.id());
          for (ElementId j = static_cast<ElementId>(ctx.id()); j < m_;
               j = static_cast<ElementId>(j + sz_.machines)) {
            if (!active_[j] || !rng.bernoulli(p)) continue;
            send_sample(ctx, j);
          }
        });
  }

  mrc::Engine& engine() { return engine_; }
  std::uint64_t machines() const { return sz_.machines; }

  bool active(ElementId j) const { return active_[j] != 0; }
  /// Called by j's owner `id`; a no-op once j is covered.
  void deactivate(MachineId id, ElementId j) {
    if (!active_[j]) return;
    active_[j] = 0;
    --active_count_[id];
  }

  /// Words machine o holds besides its inbox; a driver adds its own
  /// per-machine state before run().
  std::uint64_t footprint(MachineId o) const { return footprint_[o]; }
  void add_footprint(MachineId o, std::uint64_t words) {
    footprint_[o] += words;
  }

  /// Words of central state: residual weights plus counters.
  std::uint64_t central_footprint() const { return sys_.num_sets() + 2; }

  /// Runs the iterations until no element is active, the fail line
  /// fires or params.max_iterations pass; returns the outcome.
  MrOutcome run(const Deactivate& deactivate_covered) {
    MrOutcome outcome;
    for (std::uint64_t iter = 0; iter < params_.max_iterations; ++iter) {
      // --- 1. |U_r|: owners report their live counts; central sums. ---
      engine_.invoke_round(r_count_);
      const std::uint64_t ur = mrc::central_sum(engine_, "sum|Ur|");
      if (ur == 0) break;
      ++outcome.iterations;

      const double p = std::min(
          1.0, params_.sample_boost * 2.0 * static_cast<double>(sz_.eta) /
                   static_cast<double>(ur));

      // --- 2. Sampling round: machines ship sampled elements. ---
      // One message per sampled element; sender-id-order merge
      // reproduces the sequential scan order on every backend.
      engine_.invoke_round(r_sample_, {iter, pack_double(p)});

      // Control-plane peek: one message per sampled element, so the
      // fail check runs before the oversized inbox is ever charged.
      const std::uint64_t sampled = engine_.inbox_size(mrc::kCentral);
      const std::uint64_t sample_cap = static_cast<std::uint64_t>(
          6.0 * params_.sample_boost * static_cast<double>(sz_.eta));
      if (sampled > sample_cap) {
        outcome.failed = true;
        break;
      }

      // --- 3. Central local ratio on the sample. ---
      std::vector<SetId> newly_zeroed;
      engine_.run_central_round("local-ratio", [&](MachineContext& ctx) {
        ctx.charge_resident(central_footprint() + ctx.inbox_words());
        for (const mrc::MessageView msg : ctx.messages()) {
          const auto j = static_cast<ElementId>(msg.payload[0]);
          for (const SetId i : lr_.process(j)) newly_zeroed.push_back(i);
        }
      });

      // --- 4. The newly covered sets reach the element owners. ---
      deactivate_covered(newly_zeroed);
    }
    outcome.fill_from(engine_.metrics());
    return outcome;
  }

  /// The central machine's local ratio state (cover and certificate).
  const seq::SetCoverLocalRatio& lr() const { return lr_; }

 private:
  const setcover::SetSystem& sys_;
  const MrParams& params_;
  const std::uint64_t m_;
  const Sizes sz_;
  mrc::Engine engine_;
  std::vector<char> active_;
  std::vector<std::uint64_t> active_count_;
  std::vector<std::uint64_t> footprint_;  // words owned
  // Central is coordinator-resident, so this host object is fine.
  seq::SetCoverLocalRatio lr_;
  const Rng root_rng_;  // immutable; streams only
  mrc::RoundId r_count_ = 0;
  mrc::RoundId r_sample_ = 0;
};

}  // namespace

RlrSetCoverResult rlr_set_cover(const setcover::SetSystem& sys,
                                const MrParams& params) {
  MRLR_REQUIRE(sys.coverable(), "instance has an uncoverable element");
  const std::uint64_t m = sys.universe_size();
  const std::uint64_t f = std::max<std::uint64_t>(1, sys.max_frequency());

  // A sampled element ships {j, |T_j|, T_j...}.
  CoverLoop loop(sys, static_cast<double>(f), params,
                 [&sys](MachineContext& ctx, ElementId j) {
                   thread_local std::vector<Word> msg;
                   const auto owners = sys.sets_containing(j);
                   msg.assign({j, owners.size()});
                   msg.insert(msg.end(), owners.begin(), owners.end());
                   ctx.send(mrc::kCentral, msg);
                 });

  // Tree-broadcast of the newly covered sets; the apply hook marks them
  // in machine o's mirror covered_by[o] (only o's callbacks touch it)
  // and deactivates its covered elements. An element still active here
  // has no previously-zeroed owner (it would have been deactivated the
  // iteration that set was zeroed), so the mirror check is equivalent
  // to a residual_weight scan.
  std::vector<std::vector<char>> covered_by(
      loop.machines(), std::vector<char>(sys.num_sets(), 0));
  mrc::JobBroadcast bcast(
      loop.engine(), "bcast C",
      [&](MachineContext& ctx, std::span<const Word> zeroed) {
        const MachineId id = ctx.id();
        std::vector<char>& covered = covered_by[id];
        for (const Word i : zeroed) covered[static_cast<SetId>(i)] = 1;
        for (ElementId j = static_cast<ElementId>(id); j < m;
             j = static_cast<ElementId>(j + loop.machines())) {
          if (!loop.active(j)) continue;
          const auto owners = sys.sets_containing(j);
          if (std::any_of(owners.begin(), owners.end(),
                          [&](SetId i) { return covered[i]; })) {
            loop.deactivate(id, j);
          }
        }
      });

  RlrSetCoverResult res;
  res.outcome = loop.run([&](const std::vector<SetId>& newly_zeroed) {
    bcast.run(std::vector<Word>(newly_zeroed.begin(), newly_zeroed.end()));
  });
  res.cover = loop.lr().cover();
  res.weight = setcover::cover_weight(sys, res.cover);
  res.lower_bound = loop.lr().lower_bound();
  return res;
}

RlrVertexCoverResult rlr_vertex_cover(const graph::Graph& g,
                                      const std::vector<double>& weights,
                                      const MrParams& params) {
  // Elements are edges, sets are vertices; f = 2. Two forwarding rounds
  // replace the tree broadcast: central -> vertex owner (one word per
  // newly covered vertex), vertex owner -> edge owners (one word per
  // incident edge).
  const std::uint64_t n = g.num_vertices();
  MRLR_REQUIRE(weights.size() == n, "one weight per vertex required");
  const setcover::SetSystem sys =
      setcover::SetSystem::vertex_cover_instance(g, weights);

  // A sampled edge ships {j, u, v}.
  CoverLoop loop(sys, 2.0, params, [&g](MachineContext& ctx, ElementId j) {
    const graph::Edge& e = g.edge(j);
    ctx.send(mrc::kCentral, {j, e.u, e.v});
  });
  const std::uint64_t machines = loop.machines();
  // Vertices (sets) are also distributed: owner stores the adjacency list.
  for (graph::VertexId v = 0; v < n; ++v) {
    loop.add_footprint(owner_of(v, machines), 1 + g.degree(v));
  }

  // Forward round B: vertex owners tell the owners of incident edges,
  // one coalesced run of edge ids per owner.
  const mrc::RoundId r_notify_edges = loop.engine().define_round(
      "notify-edges", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(loop.footprint(ctx.id()));
        for (const mrc::MessageView msg : ctx.messages()) {
          for (const Word vw : msg.payload) {
            const auto v = static_cast<graph::VertexId>(vw);
            for (const graph::Incidence& inc : g.neighbours(v)) {
              ctx.send_coalesced(owner_of(inc.edge, machines), {inc.edge});
            }
          }
        }
      });
  // Drain + deactivate.
  const mrc::RoundId r_deactivate = loop.engine().define_round(
      "deactivate", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(loop.footprint(ctx.id()));
        for (const mrc::MessageView msg : ctx.messages()) {
          for (const Word ew : msg.payload) {
            loop.deactivate(ctx.id(), static_cast<ElementId>(ew));
          }
        }
      });

  RlrVertexCoverResult res;
  res.outcome = loop.run([&](const std::vector<SetId>& newly_zeroed) {
    // Forward round A: central tells each newly covered vertex's owner,
    // one coalesced run of vertex ids per owner.
    loop.engine().run_central_round(
        "notify-vertices", [&](MachineContext& ctx) {
          ctx.charge_resident(loop.central_footprint());
          for (const SetId v : newly_zeroed) {
            ctx.send_coalesced(owner_of(v, machines), {v});
          }
        });
    loop.engine().invoke_round(r_notify_edges);
    loop.engine().invoke_round(r_deactivate);
  });
  for (const SetId i : loop.lr().cover()) {
    res.cover.push_back(static_cast<graph::VertexId>(i));
  }
  res.weight = graph::vertex_set_weight(weights, res.cover);
  res.lower_bound = loop.lr().lower_bound();
  return res;
}

}  // namespace mrlr::core
