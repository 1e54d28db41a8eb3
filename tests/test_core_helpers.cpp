// Direct unit tests for the core-module helpers and parameter plumbing
// (owner_of, pack_double, MrParams, MrOutcome), which the algorithm
// suites only exercise indirectly.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>

#include "mrlr/core/params.hpp"

namespace mrlr::core {
namespace {

mrc::Topology topo(std::uint64_t machines) {
  mrc::Topology t;
  t.num_machines = machines;
  t.words_per_machine = 1 << 20;
  t.fanout = 2;
  return t;
}

TEST(OwnerOf, RoundRobinBalanced) {
  const std::uint64_t machines = 7;
  std::vector<std::uint64_t> load(machines, 0);
  for (std::uint64_t item = 0; item < 700; ++item) {
    const auto o = owner_of(item, machines);
    ASSERT_LT(o, machines);
    ++load[o];
  }
  for (const auto l : load) EXPECT_EQ(l, 100u);
}

TEST(PackDouble, BitExactRoundTrip) {
  for (const double x :
       {0.0, 1.0, -1.0, 3.141592653589793, 1e-300, 1e300,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(unpack_double(pack_double(x)), x);
  }
  // NaN round-trips bit-exactly even though NaN != NaN.
  const double nan = std::nan("");
  EXPECT_TRUE(std::isnan(unpack_double(pack_double(nan))));
}

TEST(MrParams, DefaultsAreSane) {
  const MrParams p;
  EXPECT_GT(p.mu, 0.0);
  EXPECT_LT(p.c, 0.0);  // derive-from-instance sentinel
  EXPECT_GT(p.slack, 1.0);
  EXPECT_TRUE(p.enforce_space);
  EXPECT_DOUBLE_EQ(p.sample_boost, 1.0);
}

TEST(MrOutcome, FillFromMetrics) {
  mrc::Engine engine(topo(3));
  const mrc::RoundId r = engine.define_round(
      "r", [](mrc::MachineContext& ctx, std::span<const mrc::Word>) {
        if (ctx.id() == 1) ctx.send(0, {1, 2, 3});
        ctx.charge_resident(42);
      });
  engine.invoke_round(r);
  engine.run_central_round("r", [](mrc::MachineContext&) {});
  MrOutcome o;
  o.fill_from(engine.metrics());
  EXPECT_EQ(o.rounds, 2u);
  EXPECT_EQ(o.total_communication, 3u);
  EXPECT_EQ(o.max_central_inbox, 3u);
  EXPECT_GE(o.max_machine_words, 42u);
  EXPECT_EQ(o.space_violations, 0u);
}

}  // namespace
}  // namespace mrlr::core
