#include "mrlr/core/greedy_setcover_mr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;
using setcover::ElementId;
using setcover::SetId;

namespace {

/// Indices of successes among `trials` Bernoulli(p) draws, via geometric
/// skipping: O(successes) expected time.
std::vector<std::uint64_t> binomial_hits(std::uint64_t trials, double p,
                                         Rng& rng) {
  std::vector<std::uint64_t> hits;
  if (trials == 0 || p <= 0.0) return hits;
  if (p >= 1.0) {
    hits.resize(trials);
    for (std::uint64_t i = 0; i < trials; ++i) hits[i] = i;
    return hits;
  }
  const double log1mp = std::log1p(-p);
  std::uint64_t idx = 0;
  while (true) {
    const double u = std::max(rng.uniform01(), 0x1.0p-53);
    const double skip_f = std::log(u) / log1mp;
    if (skip_f >= static_cast<double>(trials - idx)) break;
    const auto skip = static_cast<std::uint64_t>(skip_f) + 1;
    if (skip > trials - idx) break;
    idx += skip;
    hits.push_back(idx - 1);
    if (idx >= trials) break;
  }
  return hits;
}

}  // namespace

GreedySetCoverMrResult greedy_set_cover_mr(const setcover::SetSystem& sys,
                                           double eps,
                                           const MrParams& params) {
  MRLR_REQUIRE(eps > 0.0, "epsilon must be positive");
  MRLR_REQUIRE(sys.coverable(), "instance has an uncoverable element");
  const std::uint64_t n = sys.num_sets();
  const std::uint64_t m = std::max<std::uint64_t>(sys.universe_size(), 2);
  const double alpha = params.mu / 8.0;
  MRLR_REQUIRE(alpha > 0.0, "mu must be positive");
  const auto num_classes =
      static_cast<std::uint64_t>(std::ceil(1.0 / alpha));
  const std::uint64_t m_mu2 =
      std::max<std::uint64_t>(1, ipow_real(m, params.mu / 2.0, 1));

  // Theorem 4.6 regime: machines store sets, O(m^{1+mu} log n) words each.
  const std::uint64_t cap_base = ipow_real(m, 1.0 + params.mu, 1);
  const double logn = std::log2(static_cast<double>(std::max<std::uint64_t>(n, 2))) + 1.0;
  mrc::Topology topo;
  topo.num_machines = std::max<std::uint64_t>(
      1, ceil_div(sys.total_incidences() + n, cap_base));
  topo.words_per_machine =
      static_cast<std::uint64_t>(params.slack * logn *
                                 static_cast<double>(cap_base)) +
      64;
  topo.fanout = std::max<std::uint64_t>(2, ipow_real(m, params.mu, 2));
  topo.enforce = params.enforce_space;
  topo.num_threads = params.num_threads;
  topo.num_shards = std::max<std::uint64_t>(1, params.num_shards);
  mrc::Engine engine(topo);
  const std::uint64_t machines = topo.num_machines;

  std::vector<std::uint64_t> footprint(machines, 0);
  for (SetId l = 0; l < n; ++l) {
    footprint[owner_of(l, machines)] += 3 + sys.set(l).size();
  }

  // Host (central) algorithm state.
  std::vector<char> covered(sys.universe_size(), 0);
  std::uint64_t covered_count = 0;
  std::vector<std::uint64_t> residual(n);  // |S_l \ C|
  for (SetId l = 0; l < n; ++l) residual[l] = sys.set(l).size();
  std::vector<char> taken(n, 0);
  std::vector<char> excluded(n, 0);

  GreedySetCoverMrResult res;

  auto take_set = [&](SetId l) -> std::vector<ElementId> {
    std::vector<ElementId> newly;
    taken[l] = 1;
    res.cover.push_back(l);
    res.weight += sys.weight(l);
    for (const ElementId j : sys.set(l)) {
      if (!covered[j]) {
        covered[j] = 1;
        ++covered_count;
        newly.push_back(j);
        for (const SetId l2 : sys.sets_containing(j)) {
          if (residual[l2] > 0) --residual[l2];
        }
      }
    }
    return newly;
  };

  // ---- Remark 4.7 preprocessing. gamma = max_j min_{S: j in S} w(S). --
  // Runs before the job starts; the worker mirrors below snapshot the
  // post-preprocessing state when the first round ships.
  double gamma = 0.0;
  for (ElementId j = 0; j < sys.universe_size(); ++j) {
    double mn = std::numeric_limits<double>::infinity();
    for (const SetId l : sys.sets_containing(j)) {
      mn = std::min(mn, sys.weight(l));
    }
    gamma = std::max(gamma, mn);
  }
  const double cheap = gamma * eps / static_cast<double>(std::max<std::uint64_t>(n, 1));
  const double expensive = static_cast<double>(m) * gamma;
  for (SetId l = 0; l < n; ++l) {
    if (sys.weight(l) <= cheap && residual[l] > 0) {
      (void)take_set(l);
      ++res.preprocessed_sets;
    } else if (sys.weight(l) > expensive) {
      excluded[l] = 1;
    }
  }

  auto ratio = [&](SetId l) -> double {
    return static_cast<double>(residual[l]) / sys.weight(l);
  };

  double level = 0.0;
  for (SetId l = 0; l < n; ++l) {
    if (!taken[l] && !excluded[l]) level = std::max(level, ratio(l));
  }

  // Class of a residual size: smallest i >= 1 with r >= m^{1-i*alpha}.
  auto class_of = [&](std::uint64_t r) -> std::uint64_t {
    for (std::uint64_t i = 1; i <= num_classes; ++i) {
      if (r >= ipow_real(m, 1.0 - static_cast<double>(i) * alpha, 1)) {
        return i;
      }
    }
    return num_classes;
  };

  // Dense group layout: class i gets 2*m^{(i+1)*alpha} groups.
  std::vector<std::uint64_t> groups_of_class(num_classes + 1, 0);
  std::vector<std::uint64_t> base_of_class(num_classes + 1, 0);
  std::uint64_t total_groups = 0;
  for (std::uint64_t i = 1; i <= num_classes; ++i) {
    base_of_class[i] = total_groups;
    groups_of_class[i] =
        2 * ipow_real(m, static_cast<double>(i + 1) * alpha, 1);
    total_groups += groups_of_class[i];
  }

  const double qualify_factor = 1.0 / (1.0 + eps);
  const Rng root(params.seed);

  // Worker mirrors, snapshotted post-preprocessing: per-machine covered
  // mirrors and the owner-strided residual counts. A taken set has
  // residual 0, so the mirrors need no separate taken array; `excluded`
  // is immutable once preprocessing ends.
  std::vector<std::vector<char>> covered_by(machines, covered);
  std::vector<std::uint64_t> residual_dist = residual;

  // Newly covered elements go down the fanout tree; owners update their
  // residual counts via the dual incidence lists.
  mrc::JobBroadcast bcast(
      engine, "bcast dC",
      [&](MachineContext& ctx, std::span<const Word> elements) {
        const MachineId id = ctx.id();
        std::vector<char>& cov = covered_by[id];
        for (const Word jw : elements) {
          const auto j = static_cast<ElementId>(jw);
          if (cov[j]) continue;
          cov[j] = 1;
          for (const SetId l2 : sys.sets_containing(j)) {
            if (owner_of(l2, machines) != id) continue;
            if (residual_dist[l2] > 0) --residual_dist[l2];
          }
        }
      });

  // Round accounting for the preprocessing broadcast (tree, both ways).
  const mrc::RoundId r_preprocess = engine.define_round(
      "preprocess-gamma", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(1);
        ctx.send(mrc::kCentral, {1});
      });

  // Owners count their qualifying sets per class.
  const mrc::RoundId r_count = engine.define_round(
      "count-classes", [&](MachineContext& ctx, std::span<const Word> ps) {
        const double threshold = unpack_double(ps[0]);
        const MachineId id = ctx.id();
        std::vector<Word> counts(num_classes + 1, 0);
        for (SetId l = static_cast<SetId>(id); l < n;
             l = static_cast<SetId>(l + machines)) {
          if (excluded[l] || residual_dist[l] == 0) continue;
          const double r = static_cast<double>(residual_dist[l]) /
                           sys.weight(l);
          if (r >= threshold && threshold > 0.0) {
            ++counts[class_of(residual_dist[l])];
          }
        }
        ctx.charge_resident(counts.size());
        ctx.send(mrc::kCentral, counts);
      });

  // Group membership draws for one iteration: set l in class i joins
  // each of the class's groups independently with probability
  // min(1, boost * m^{mu/2} / |class i|). The draws come from a per-set
  // stream, so the keys round and the ship round reproduce the same
  // sample independently.
  const auto sample_groups = [&](std::uint64_t iter, SetId l,
                                 std::uint64_t i, Word size_i) {
    const double p =
        std::min(1.0, params.sample_boost * static_cast<double>(m_mu2) /
                          static_cast<double>(size_i));
    Rng set_rng = root.stream((iter << 32) ^ l);
    return binomial_hits(groups_of_class[i], p, set_rng);
  };

  // Owners ship their sampled (group, set) keys to central so the fail
  // check (any group over 4*m^{mu/2}?) happens before the heavy lists
  // move. params: {threshold, iter, sizes...}.
  const mrc::RoundId r_keys = engine.define_round(
      "check|X|", [&](MachineContext& ctx, std::span<const Word> ps) {
        const double threshold = unpack_double(ps[0]);
        const std::uint64_t iter = ps[1];
        const std::span<const Word> sizes = ps.subspan(2);
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id]);
        thread_local std::vector<Word> msg;
        msg.clear();
        for (SetId l = static_cast<SetId>(id); l < n;
             l = static_cast<SetId>(l + machines)) {
          if (excluded[l] || residual_dist[l] == 0) continue;
          const double r = static_cast<double>(residual_dist[l]) /
                           sys.weight(l);
          if (r < threshold || threshold <= 0.0) continue;
          const std::uint64_t i = class_of(residual_dist[l]);
          if (sizes[i] == 0) continue;
          for (const std::uint64_t j : sample_groups(iter, l, i, sizes[i])) {
            msg.push_back(base_of_class[i] + j);
            msg.push_back(l);
          }
        }
        if (!msg.empty()) ctx.send(mrc::kCentral, msg);
      });

  // Ship the sampled sets' residual element lists to central (only
  // reached when the fail check passed; same draws as r_keys).
  const mrc::RoundId r_ship = engine.define_round(
      "ship-sample", [&](MachineContext& ctx, std::span<const Word> ps) {
        const double threshold = unpack_double(ps[0]);
        const std::uint64_t iter = ps[1];
        const std::span<const Word> sizes = ps.subspan(2);
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id]);
        const std::vector<char>& cov = covered_by[id];
        thread_local std::vector<Word> msg;
        for (SetId l = static_cast<SetId>(id); l < n;
             l = static_cast<SetId>(l + machines)) {
          if (excluded[l] || residual_dist[l] == 0) continue;
          const double r = static_cast<double>(residual_dist[l]) /
                           sys.weight(l);
          if (r < threshold || threshold <= 0.0) continue;
          const std::uint64_t i = class_of(residual_dist[l]);
          if (sizes[i] == 0) continue;
          for (const std::uint64_t j : sample_groups(iter, l, i, sizes[i])) {
            msg.assign({base_of_class[i] + j, l, pack_double(sys.weight(l)),
                        residual_dist[l]});
            for (const ElementId jj : sys.set(l)) {
              if (!cov[jj]) msg.push_back(jj);
            }
            ctx.send(mrc::kCentral, msg);
          }
        }
      });

  engine.invoke_round(r_preprocess);
  engine.run_central_round("sum-preprocess", [&](MachineContext& ctx) {
    ctx.charge_resident(ctx.inbox_words() + 1);
  });

  std::uint64_t iter_guard = 0;

  while (covered_count < sys.universe_size() &&
         iter_guard < params.max_iterations) {
    // ---- Inner while: exhaust the current level. ----
    while (iter_guard < params.max_iterations) {
      ++iter_guard;
      ++res.outcome.iterations;
      const double threshold = level * qualify_factor;

      // Count qualifying sets per class (converge-cast of one vector
      // per machine).
      engine.invoke_round(r_count, {pack_double(threshold)});
      std::vector<Word> sizes(num_classes + 1, 0);
      engine.run_central_round("sum-classes", [&](MachineContext& ctx) {
        ctx.charge_resident(ctx.inbox_words() + sizes.size());
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t i = 0;
               i < msg.payload.size() && i < sizes.size(); ++i) {
            sizes[i] += msg.payload[i];
          }
        }
      });
      std::uint64_t total_qualifying = 0;
      for (const Word s : sizes) total_qualifying += s;
      if (total_qualifying == 0) break;

      std::vector<Word> sample_params;
      sample_params.reserve(2 + sizes.size());
      sample_params.push_back(pack_double(threshold));
      sample_params.push_back(iter_guard);
      sample_params.insert(sample_params.end(), sizes.begin(), sizes.end());

      // Fail check: collect the (group, set) keys and reject the
      // iteration if any group exceeds 4*m^{mu/2}.
      engine.invoke_round(r_keys, sample_params);
      std::vector<std::pair<std::uint64_t, SetId>> sample;
      bool failed = false;
      const std::uint64_t group_cap = static_cast<std::uint64_t>(
          4.0 * params.sample_boost * static_cast<double>(m_mu2));
      engine.run_central_round("group-load", [&](MachineContext& ctx) {
        ctx.charge_resident(ctx.inbox_words() + total_groups);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t k = 0; k + 1 < msg.payload.size(); k += 2) {
            sample.emplace_back(msg.payload[k],
                                static_cast<SetId>(msg.payload[k + 1]));
          }
        }
        std::vector<std::uint64_t> group_load(total_groups, 0);
        for (const auto& [key, l] : sample) ++group_load[key];
        failed = std::any_of(
            group_load.begin(), group_load.end(),
            [&](std::uint64_t gl) { return gl > group_cap; });
      });
      if (failed) {
        ++res.sampling_failures;
        continue;  // k <- k+1; next inner iteration (Algorithm 3 line 16)
      }

      // Ship sampled sets (residual element lists) to central.
      std::sort(sample.begin(), sample.end());
      engine.invoke_round(r_ship, sample_params);

      // Central: scan groups in (class, group) order; admit per group one
      // set with residual >= m^{1-(i+1)*alpha}/2 and ratio >= threshold.
      std::vector<ElementId> newly_covered;
      engine.run_central_round("admit", [&](MachineContext& ctx) {
        ctx.charge_resident(ctx.inbox_words() + 4);
        std::uint64_t current_group = ~std::uint64_t{0};
        bool group_done = false;
        for (const auto& [group_key, set] : sample) {
          if (group_key != current_group) {
            current_group = group_key;
            group_done = false;
          }
          if (group_done || taken[set]) continue;
          // Recover the class from the dense group key.
          std::uint64_t i = 1;
          while (i < num_classes &&
                 group_key >= base_of_class[i] + groups_of_class[i]) {
            ++i;
          }
          const std::uint64_t size_floor = std::max<std::uint64_t>(
              1, ipow_real(m, 1.0 - static_cast<double>(i + 1) * alpha, 1) /
                     2);
          if (residual[set] >= size_floor && ratio(set) >= threshold) {
            const auto newly = take_set(set);
            newly_covered.insert(newly_covered.end(), newly.begin(),
                                 newly.end());
            group_done = true;
          }
        }
      });

      // Broadcast the newly covered elements down the tree; owners
      // update their residual counts in the apply hook.
      bcast.run(std::vector<Word>(newly_covered.begin(),
                                  newly_covered.end()));
      if (covered_count >= sys.universe_size()) break;
    }

    if (covered_count >= sys.universe_size()) break;
    level /= (1.0 + eps);
    ++res.level_drops;
    // Safety: if the level underflows, fall back to taking any set
    // covering an uncovered element (cannot happen on well-formed
    // instances before max_iterations, but keeps the loop total).
    if (level <= std::numeric_limits<double>::min()) {
      for (ElementId j = 0; j < sys.universe_size(); ++j) {
        if (covered[j]) continue;
        const auto owners = sys.sets_containing(j);
        SetId best = owners[0];
        for (const SetId l : owners) {
          if (sys.weight(l) < sys.weight(best)) best = l;
        }
        (void)take_set(best);
      }
      break;
    }
  }

  res.outcome.failed = covered_count < sys.universe_size();
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::core
