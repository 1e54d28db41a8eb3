#include "mrlr/core/hungry_mis.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <utility>

#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/seq/mis.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

using graph::Incidence;
using graph::VertexId;
using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;

namespace {

/// Shared independent-set state: I, the dominated region N+(I), and the
/// residual degrees d_I(v) (0 for dominated vertices). Lives on the
/// central machine (coordinator-resident); the worker machines carry
/// the mirrors maintained by MisJob below.
class MisState {
 public:
  explicit MisState(const graph::Graph& g)
      : g_(g), in_I_(g.num_vertices(), 0), dominated_(g.num_vertices(), 0),
        d_(g.num_vertices(), 0) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) d_[v] = g.degree(v);
  }

  bool alive(VertexId v) const { return !dominated_[v]; }
  std::uint64_t degree(VertexId v) const { return dominated_[v] ? 0 : d_[v]; }
  bool in_set(VertexId v) const { return in_I_[v] != 0; }

  /// Admits v (must be alive); returns the vertices newly dominated.
  std::vector<VertexId> add(VertexId v) {
    MRLR_REQUIRE(alive(v), "cannot add a dominated vertex to I");
    in_I_[v] = 1;
    std::vector<VertexId> newly{v};
    dominated_[v] = 1;
    for (const Incidence& inc : g_.neighbours(v)) {
      if (!dominated_[inc.neighbour]) {
        dominated_[inc.neighbour] = 1;
        newly.push_back(inc.neighbour);
      }
    }
    for (const VertexId w : newly) {
      for (const Incidence& inc : g_.neighbours(w)) {
        if (!dominated_[inc.neighbour] && d_[inc.neighbour] > 0) {
          --d_[inc.neighbour];
        }
      }
    }
    return newly;
  }

  std::vector<VertexId> members() const {
    std::vector<VertexId> out;
    for (VertexId v = 0; v < g_.num_vertices(); ++v) {
      if (in_I_[v]) out.push_back(v);
    }
    return out;
  }

 private:
  const graph::Graph& g_;
  std::vector<char> in_I_;
  std::vector<char> dominated_;
  std::vector<std::uint64_t> d_;
};

struct Cluster {
  std::uint64_t eta = 0;
  std::uint64_t machines = 0;
  std::vector<std::uint64_t> footprint;  // per-machine resident words
};

Cluster make_cluster(const graph::Graph& g, double mu) {
  Cluster cl;
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  cl.eta = ipow_real(n, 1.0 + mu, 1);
  cl.machines = std::max<std::uint64_t>(
      1, ceil_div(std::max<std::uint64_t>(g.num_edges(), 1), cl.eta));
  cl.footprint.assign(cl.machines, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    cl.footprint[owner_of(v, cl.machines)] += 2 + g.degree(v);
  }
  return cl;
}

/// Process-clean distributed side of the hungry-greedy MIS. The central
/// machine holds the authoritative MisState; every machine keeps a full
/// dominated mirror plus the residual degrees of the vertices it owns,
/// and both are refreshed exclusively by the newly-dominated tree
/// broadcast, replaying MisState::add step for step. Sampling moved
/// machine-side: each owner draws its own vertices from a per-(round,
/// machine) RNG stream, so no host randomness has to reach the workers.
class MisJob {
 public:
  // Ship-round modes (params[0]). kModeSample/kModeAll select vertices
  // with degree >= params[2]; kModeClass selects class_of(degree) ==
  // params[2] and samples like kModeSample.
  static constexpr Word kModeSample = 0;  // bernoulli(p) + uniform group
  static constexpr Word kModeAll = 1;     // every heavy vertex, group 0
  static constexpr Word kModeClass = 2;   // degree-class members, sampled

  MisJob(mrc::Engine& engine, const graph::Graph& g, const Cluster& cl,
         std::uint64_t seed,
         std::function<std::uint64_t(std::uint64_t)> class_of,
         std::uint64_t num_classes)
      : engine_(engine),
        g_(g),
        cl_(cl),
        machines_(cl.machines),
        dominated_by_(machines_, std::vector<char>(g.num_vertices(), 0)),
        d_dist_(g.num_vertices(), 0),
        root_(seed),
        class_of_(std::move(class_of)),
        num_classes_(num_classes),
        bcast_(engine, "bcast-dominated",
               [this](MachineContext& ctx, std::span<const Word> newly) {
                 apply_dominated(ctx, newly);
               }) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) d_dist_[v] = g.degree(v);

    // Owners count their heavy vertices (degree >= threshold).
    r_count_heavy_ = engine.define_round(
        "count|VH|", [this](MachineContext& ctx, std::span<const Word> ps) {
          const std::uint64_t threshold = ps[0];
          Word cnt = 0;
          for (VertexId v = static_cast<VertexId>(ctx.id());
               v < g_.num_vertices();
               v = static_cast<VertexId>(v + machines_)) {
            if (degree(ctx.id(), v) >= threshold) ++cnt;
          }
          ctx.charge_resident(1);
          ctx.send(mrc::kCentral, {cnt});
        });

    // Owners report the sum of residual degrees (for |E_k|).
    r_degsum_ = engine.define_round(
        "count|Ek|", [this](MachineContext& ctx, std::span<const Word>) {
          Word sum = 0;
          for (VertexId v = static_cast<VertexId>(ctx.id());
               v < g_.num_vertices();
               v = static_cast<VertexId>(v + machines_)) {
            sum += degree(ctx.id(), v);
          }
          ctx.charge_resident(1);
          ctx.send(mrc::kCentral, {sum});
        });

    // Owners report per-class counts of their alive vertices.
    r_classes_ = engine.define_round(
        "count-classes", [this](MachineContext& ctx, std::span<const Word>) {
          std::vector<Word> counts(num_classes_ + 1, 0);
          for (VertexId v = static_cast<VertexId>(ctx.id());
               v < g_.num_vertices();
               v = static_cast<VertexId>(v + machines_)) {
            const std::uint64_t d = degree(ctx.id(), v);
            if (d == 0) continue;
            ++counts[class_of_(d)];
          }
          ctx.charge_resident(counts.size());
          ctx.send(mrc::kCentral, counts);
        });

    // Sampling + shipping in one round: owners self-select their heavy
    // vertices and ship {group, v, d_I(v), alive neighbours} to central.
    r_ship_ = engine.define_round(
        "ship-sample", [this](MachineContext& ctx, std::span<const Word> ps) {
          const Word mode = ps[0];
          const std::uint64_t salt = ps[1];
          const std::uint64_t sel = ps[2];
          const std::uint64_t num_groups = ps[3];
          const double p_sample = unpack_double(ps[4]);
          const MachineId id = ctx.id();
          ctx.charge_resident(cl_.footprint[id]);
          Rng rng = root_.stream((salt << 20) ^ id);
          thread_local std::vector<Word> msg;
          for (VertexId v = static_cast<VertexId>(id);
               v < g_.num_vertices();
               v = static_cast<VertexId>(v + machines_)) {
            const std::uint64_t d = degree(id, v);
            if (mode == kModeClass) {
              if (d == 0 || class_of_(d) != sel) continue;
            } else if (d < sel) {
              continue;
            }
            Word group = 0;
            if (mode != kModeAll) {
              if (!rng.bernoulli(p_sample)) continue;
              group = rng.uniform(num_groups);
            }
            msg.assign({group, v, degree(id, v)});
            for (const Incidence& inc : g_.neighbours(v)) {
              if (!dominated_by_[id][inc.neighbour]) {
                msg.push_back(inc.neighbour);
              }
            }
            ctx.send(mrc::kCentral, msg);
          }
        });

    // Final step shared by both variants: ship the residual graph (all
    // alive vertices with their alive adjacency, <= ~n^{1+mu} words).
    r_ship_residual_ = engine.define_round(
        "ship-residual", [this](MachineContext& ctx, std::span<const Word>) {
          const MachineId id = ctx.id();
          ctx.charge_resident(cl_.footprint[id]);
          thread_local std::vector<Word> msg;
          for (VertexId v = static_cast<VertexId>(id);
               v < g_.num_vertices();
               v = static_cast<VertexId>(v + machines_)) {
            if (dominated_by_[id][v]) continue;
            msg.assign({v, degree(id, v)});
            for (const Incidence& inc : g_.neighbours(v)) {
              if (!dominated_by_[id][inc.neighbour]) {
                msg.push_back(inc.neighbour);
              }
            }
            ctx.send(mrc::kCentral, msg);
          }
        });
  }

  /// One sweep: ship a sample (selected by `mode`/`sel`), admit
  /// greedily per group on the central machine at `admit_threshold`
  /// (Algorithm 2 lines 8-10), and broadcast the newly dominated
  /// vertices so every mirror replays the admissions. Returns vertices
  /// admitted. With skip_if_empty, an empty sample skips the admit and
  /// broadcast rounds entirely.
  std::uint64_t sweep(Word mode, std::uint64_t salt, std::uint64_t sel,
                      std::uint64_t admit_threshold, std::uint64_t num_groups,
                      double p_sample, bool one_per_group, MisState& state,
                      bool skip_if_empty) {
    engine_.invoke_round(
        r_ship_, {mode, salt, sel, num_groups, pack_double(p_sample)});
    if (skip_if_empty && engine_.inbox_size(mrc::kCentral) == 0) return 0;

    std::uint64_t added = 0;
    std::vector<VertexId> all_newly;
    engine_.run_central_round("admit", [&](MachineContext& ctx) {
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
        if (one_per_group && group_done) continue;
        if (state.alive(v) && state.degree(v) >= admit_threshold) {
          const auto newly = state.add(v);
          all_newly.insert(all_newly.end(), newly.begin(), newly.end());
          ++added;
          group_done = true;
        }
      }
    });

    bcast_.run(std::vector<Word>(all_newly.begin(), all_newly.end()));
    return added;
  }

  /// Ship the residual graph; central finishes greedily.
  void central_finish(MisState& state) {
    engine_.invoke_round(r_ship_residual_);
    engine_.run_central_round("greedy-finish", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words());
      for (VertexId v = 0; v < g_.num_vertices(); ++v) {
        if (state.alive(v)) (void)state.add(v);
      }
    });
  }

  /// Registered counting helpers; each pairs with a central sum round.
  std::uint64_t count_heavy(std::uint64_t threshold) {
    engine_.invoke_round(r_count_heavy_, {threshold});
    return mrc::central_sum(engine_, "sum|VH|");
  }
  std::uint64_t degree_sum() {
    engine_.invoke_round(r_degsum_);
    return mrc::central_sum(engine_, "sum|Ek|");
  }
  std::vector<Word> class_sizes() {
    engine_.invoke_round(r_classes_);
    std::vector<Word> sizes(num_classes_ + 1, 0);
    engine_.run_central_round("sum-classes", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words() + sizes.size());
      for (const mrc::MessageView msg : ctx.messages()) {
        for (std::size_t i = 0;
             i < msg.payload.size() && i < sizes.size(); ++i) {
          sizes[i] += msg.payload[i];
        }
      }
    });
    return sizes;
  }

 private:
  std::uint64_t degree(MachineId id, VertexId v) const {
    return dominated_by_[id][v] ? 0 : d_dist_[v];
  }

  /// Replays MisState::add on the mirrors: mark every newly dominated
  /// vertex first, then apply the per-(w, neighbour) decrements to the
  /// owned residual degrees — identical order of effects, so mirrors
  /// and the central state never diverge.
  void apply_dominated(MachineContext& ctx, std::span<const Word> newly) {
    const MachineId id = ctx.id();
    std::vector<char>& dominated = dominated_by_[id];
    for (const Word ww : newly) dominated[static_cast<VertexId>(ww)] = 1;
    for (const Word ww : newly) {
      const auto w = static_cast<VertexId>(ww);
      for (const Incidence& inc : g_.neighbours(w)) {
        const VertexId x = inc.neighbour;
        if (owner_of(x, machines_) != id) continue;
        if (!dominated[x] && d_dist_[x] > 0) --d_dist_[x];
      }
    }
  }

  mrc::Engine& engine_;
  const graph::Graph& g_;
  const Cluster& cl_;
  std::uint64_t machines_;
  // Per-machine full dominated mirrors; d_dist_ is owner-strided.
  std::vector<std::vector<char>> dominated_by_;
  std::vector<std::uint64_t> d_dist_;
  Rng root_;  // immutable; streams only
  std::function<std::uint64_t(std::uint64_t)> class_of_;
  std::uint64_t num_classes_;
  mrc::JobBroadcast bcast_;
  mrc::RoundId r_count_heavy_;
  mrc::RoundId r_degsum_;
  mrc::RoundId r_classes_;
  mrc::RoundId r_ship_;
  mrc::RoundId r_ship_residual_;
};

}  // namespace

HungryMisResult hungry_mis_simple(const graph::Graph& g,
                                  const MrParams& params) {
  MRLR_REQUIRE(params.mu > 0.0, "hungry-greedy requires mu > 0");
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  const double alpha = params.mu / 2.0;
  const Cluster cl = make_cluster(g, params.mu);

  mrc::Engine engine(engine_topology(
      params, cl.machines,
      static_cast<std::uint64_t>(params.slack * static_cast<double>(cl.eta)) +
          64,
      n));

  MisState state(g);
  HungryMisResult res;
  MisJob job(engine, g, cl, params.seed, nullptr, 0);
  const std::uint64_t group_size =
      std::max<std::uint64_t>(1, ipow_real(n, params.mu / 2.0, 1));

  // Phases lower the threshold n^{1 - i*alpha} until it reaches n^mu,
  // at which point the residual graph fits on the central machine.
  for (std::uint64_t i = 1;; ++i) {
    const double exponent = 1.0 - static_cast<double>(i) * alpha;
    if (exponent < params.mu) break;
    const std::uint64_t threshold = ipow_real(n, exponent, 1);
    const std::uint64_t heavy_cap =
        ipow_real(n, static_cast<double>(i) * alpha, 1);
    const std::uint64_t num_groups = heavy_cap;
    ++res.phases;

    for (std::uint64_t sweep_idx = 0;
         res.outcome.iterations < params.max_iterations; ++sweep_idx) {
      ++res.outcome.iterations;
      const std::uint64_t vh = job.count_heavy(threshold);
      if (vh == 0) break;
      if (vh < heavy_cap) {
        // Mop-up: fewer than n^{i*alpha} heavy vertices remain; they fit
        // on the central machine (<= n^{1+alpha} words), which admits
        // the surviving ones directly so the phase invariant
        // d_I(v) < threshold holds exactly at the next phase.
        res.central_adds += job.sweep(
            MisJob::kModeAll, res.outcome.iterations, threshold, threshold,
            /*num_groups=*/1, /*p_sample=*/1.0,
            /*one_per_group=*/false, state, /*skip_if_empty=*/false);
        break;
      }

      // Heavy vertices self-select into the sample with probability
      // (num_groups * group_size) / |V_H| and draw a uniform group id —
      // an i.i.d. realization of "draw num_groups groups of group_size
      // vertices from V_H".
      const double p_sample = std::min(
          1.0, static_cast<double>(num_groups) *
                   static_cast<double>(group_size) /
                   static_cast<double>(vh));
      res.central_adds += job.sweep(
          MisJob::kModeSample, res.outcome.iterations, threshold, threshold,
          num_groups, p_sample, /*one_per_group=*/true, state,
          /*skip_if_empty=*/false);
    }
  }

  job.central_finish(state);
  res.independent_set = state.members();
  res.outcome.fill_from(engine.metrics());
  return res;
}

HungryMisResult hungry_mis_improved(const graph::Graph& g,
                                    const MrParams& params) {
  MRLR_REQUIRE(params.mu > 0.0, "hungry-greedy requires mu > 0");
  const std::uint64_t n = std::max<std::uint64_t>(g.num_vertices(), 2);
  const double alpha = params.mu / 8.0;
  const auto num_classes =
      static_cast<std::uint64_t>(std::ceil(1.0 / alpha));
  const Cluster cl = make_cluster(g, params.mu);

  mrc::Engine engine(engine_topology(
      params, cl.machines,
      static_cast<std::uint64_t>(params.slack * static_cast<double>(cl.eta)) +
          64,
      n));

  // Degree-class boundaries: class i holds n^{1-i*alpha} <= d < n^{1-(i-1)*alpha}.
  auto class_of = [n, alpha, num_classes](std::uint64_t d) -> std::uint64_t {
    for (std::uint64_t i = 1; i <= num_classes; ++i) {
      if (d >= ipow_real(n, 1.0 - static_cast<double>(i) * alpha, 1)) {
        return i;
      }
    }
    return num_classes;  // degree >= 1 falls in the last class
  };

  MisState state(g);
  HungryMisResult res;
  MisJob job(engine, g, cl, params.seed, class_of, num_classes);
  const std::uint64_t group_size =
      std::max<std::uint64_t>(1, ipow_real(n, params.mu / 2.0, 1));

  while (res.outcome.iterations < params.max_iterations) {
    ++res.outcome.iterations;
    ++res.phases;
    // |E_k| from per-machine alive-degree sums.
    const std::uint64_t ek = job.degree_sum() / 2;
    if (ek < cl.eta) break;

    // Class sizes |V_{k,i}|.
    const std::vector<Word> sizes = job.class_sizes();

    // Per class i (ascending, matching Algorithm 6's loop order): sample
    // n^{(i+1)*alpha} groups of n^{mu/2} from the class and admit at the
    // one-lower threshold d_I(v) >= n^{1-(i+1)*alpha}. Each class is its
    // own sweep against the current state; empty samples skip the admit
    // and broadcast rounds.
    for (std::uint64_t i = 1; i <= num_classes; ++i) {
      if (sizes[i] == 0) continue;
      const std::uint64_t groups =
          ipow_real(n, static_cast<double>(i + 1) * alpha, 1);
      const double p_sample = std::min(
          1.0, static_cast<double>(groups) *
                   static_cast<double>(group_size) /
                   static_cast<double>(sizes[i]));
      const std::uint64_t admit_threshold =
          ipow_real(n, 1.0 - static_cast<double>(i + 1) * alpha, 1);
      // Owners self-select the class members; admission re-checks at
      // the one-lower threshold.
      res.central_adds += job.sweep(
          MisJob::kModeClass,
          (res.outcome.iterations << 8) ^ i, /*sel=*/i, admit_threshold,
          groups, p_sample, /*one_per_group=*/true, state,
          /*skip_if_empty=*/true);
    }
  }

  job.central_finish(state);
  res.independent_set = state.members();
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::core
