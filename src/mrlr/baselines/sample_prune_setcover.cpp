#include "mrlr/baselines/sample_prune_setcover.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::baselines {

using core::MrParams;
using core::owner_of;
using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;
using setcover::ElementId;
using setcover::SetId;

SamplePruneResult sample_prune_set_cover(const setcover::SetSystem& sys,
                                         double eps,
                                         const MrParams& params) {
  MRLR_REQUIRE(eps > 0.0, "epsilon must be positive");
  MRLR_REQUIRE(sys.coverable(), "instance has an uncoverable element");
  const std::uint64_t n = sys.num_sets();
  const std::uint64_t m = std::max<std::uint64_t>(sys.universe_size(), 2);
  const std::uint64_t cap_base = ipow_real(m, 1.0 + params.mu, 1);

  mrc::Topology topo;
  topo.num_machines = std::max<std::uint64_t>(
      1, ceil_div(sys.total_incidences() + n, cap_base));
  topo.words_per_machine = static_cast<std::uint64_t>(
                               params.slack *
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
  std::vector<std::uint64_t> residual(n);
  for (SetId l = 0; l < n; ++l) residual[l] = sys.set(l).size();
  std::vector<char> taken(n, 0);

  SamplePruneResult res;
  auto take_set = [&](SetId l) {
    taken[l] = 1;
    res.cover.push_back(l);
    res.weight += sys.weight(l);
    for (const ElementId j : sys.set(l)) {
      if (!covered[j]) {
        covered[j] = 1;
        ++covered_count;
        for (const SetId l2 : sys.sets_containing(j)) {
          if (residual[l2] > 0) --residual[l2];
        }
      }
    }
  };
  auto ratio = [&](SetId l) {
    return static_cast<double>(residual[l]) / sys.weight(l);
  };

  double level = 0.0;
  for (SetId l = 0; l < n; ++l) level = std::max(level, ratio(l));

  const Rng root(params.seed);
  // Sample budget per round: one machine's worth of sets.
  const std::uint64_t budget = std::max<std::uint64_t>(1, cap_base /
                                   std::max<std::uint64_t>(1, sys.max_set_size() + 3));

  // Worker mirrors: per-machine covered mirrors plus the owner-strided
  // residual counts, refreshed only by the covered-element broadcast. A
  // taken set has residual 0, so no separate taken mirror is needed.
  std::vector<std::vector<char>> covered_by(
      machines, std::vector<char>(sys.universe_size(), 0));
  std::vector<std::uint64_t> residual_dist = residual;

  mrc::JobBroadcast bcast(
      engine, "bcast covered",
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

  // Owners count their qualifying sets.
  const mrc::RoundId r_count = engine.define_round(
      "count-qualifying", [&](MachineContext& ctx, std::span<const Word> ps) {
        const double threshold = core::unpack_double(ps[0]);
        Word cnt = 0;
        for (SetId l = static_cast<SetId>(ctx.id()); l < n;
             l = static_cast<SetId>(l + machines)) {
          if (residual_dist[l] == 0 || threshold <= 0.0) continue;
          const double r = static_cast<double>(residual_dist[l]) /
                           sys.weight(l);
          if (r >= threshold) ++cnt;
        }
        ctx.charge_resident(1);
        ctx.send(mrc::kCentral, {cnt});
      });

  // Qualifying sets self-select with probability p and ship their
  // residual element lists to central. One message per set; messages
  // merge in sender-id order, then per-machine in ascending set order,
  // so the central prune scans the same order on every backend.
  const mrc::RoundId r_sample = engine.define_round(
      "sample", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t guard = ps[0];
        const double threshold = core::unpack_double(ps[1]);
        const double p = core::unpack_double(ps[2]);
        const MachineId id = ctx.id();
        ctx.charge_resident(footprint[id]);
        const std::vector<char>& cov = covered_by[id];
        Rng rng = root.stream((guard << 20) ^ id);
        thread_local std::vector<Word> msg;
        for (SetId l = static_cast<SetId>(id); l < n;
             l = static_cast<SetId>(l + machines)) {
          if (residual_dist[l] == 0 || threshold <= 0.0) continue;
          const double r = static_cast<double>(residual_dist[l]) /
                           sys.weight(l);
          if (r < threshold) continue;
          if (!rng.bernoulli(p)) continue;
          msg.assign({l, core::pack_double(sys.weight(l))});
          for (const ElementId j : sys.set(l)) {
            if (!cov[j]) msg.push_back(j);
          }
          ctx.send(mrc::kCentral, msg);
        }
      });

  std::uint64_t guard = 0;

  while (covered_count < sys.universe_size() &&
         guard < params.max_iterations) {
    const double threshold = level / (1.0 + eps);
    while (guard < params.max_iterations) {
      ++guard;
      ++res.outcome.iterations;
      engine.invoke_round(r_count, {core::pack_double(threshold)});
      std::uint64_t qualifying = 0;
      engine.run_central_round("sum-qualifying", [&](MachineContext& ctx) {
        ctx.charge_resident(ctx.inbox_words() + 1);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (const Word w : msg.payload) qualifying += w;
        }
      });
      if (qualifying == 0) break;

      const double p = std::min(1.0, static_cast<double>(budget) /
                                         static_cast<double>(qualifying));
      engine.invoke_round(r_sample, {guard, core::pack_double(threshold),
                                     core::pack_double(p)});

      std::vector<ElementId> newly;
      engine.run_central_round("prune", [&](MachineContext& ctx) {
        ctx.charge_resident(ctx.inbox_words());
        for (const mrc::MessageView msg : ctx.messages()) {
          const auto l = static_cast<SetId>(msg.payload[0]);
          if (!taken[l] && residual[l] > 0 && ratio(l) >= threshold) {
            take_set(l);
          }
        }
        for (ElementId j = 0; j < sys.universe_size(); ++j) {
          if (covered[j]) newly.push_back(j);
        }
      });

      // Broadcast covered elements so owners prune (tree).
      bcast.run(std::vector<Word>(newly.begin(), newly.end()));
      if (covered_count >= sys.universe_size()) break;
    }
    if (covered_count >= sys.universe_size()) break;
    level /= (1.0 + eps);
    ++res.level_drops;
    if (level <= std::numeric_limits<double>::min()) break;
  }

  res.outcome.failed = covered_count < sys.universe_size();
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::baselines
