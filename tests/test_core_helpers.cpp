// Direct unit tests for the core-module helpers and parameter plumbing
// (owner_of, the owner-major slot layouts, pack_double, MrParams,
// MrOutcome), which the algorithm suites only exercise indirectly.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "mrlr/core/owner_slots.hpp"
#include "mrlr/core/params.hpp"
#include "mrlr/obs/telemetry.hpp"

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

TEST(OwnerLayout, EveryItemHasOneSlotInItsOwnersRange) {
  // m divisible by M, not divisible, M = 1, and fewer items than
  // machines.
  for (const auto& [items, machines] :
       {std::pair{12ull, 4ull}, {13ull, 4ull}, {1000ull, 7ull},
        {9ull, 1ull}, {3ull, 5ull}, {0ull, 3ull}}) {
    const OwnerLayout layout(items, machines);
    std::vector<int> hits(layout.size(), 0);
    for (std::uint64_t i = 0; i < items; ++i) {
      const auto o = owner_of(i, machines);
      const std::uint64_t s = layout.slot(i);
      ASSERT_GE(s, layout.begin(o)) << items << "/" << machines;
      ASSERT_LT(s, layout.end(o)) << items << "/" << machines;
      ++hits[s];
    }
    std::uint64_t owned = 0;
    for (mrc::MachineId o = 0; o < machines; ++o) {
      ASSERT_LE(layout.end(o), layout.size());
      if (o + 1 < machines) {
        ASSERT_LE(layout.end(o), layout.begin(o + 1));
      }
      // The range is exactly the owner's items: each slot hit once.
      for (std::uint64_t s = layout.begin(o); s < layout.end(o); ++s) {
        EXPECT_EQ(hits[s], 1) << items << "/" << machines << " slot " << s;
      }
      owned += layout.end(o) - layout.begin(o);
    }
    EXPECT_EQ(owned, items);
  }
}

TEST(OwnerRuns, EachMachinesRunsAreContiguous) {
  for (const auto& [items, machines] :
       {std::pair{12ull, 4ull}, {13ull, 4ull}, {9ull, 1ull}, {3ull, 5ull}}) {
    // Runs of 0 to 3 slots: a size-0 item owns no slot.
    const auto size = [](std::uint64_t i) { return (i * 7) % 4; };
    const OwnerRuns runs(items, machines, size);
    // Machine-major: machine 0's items o = 0, M, 2M, ..., then machine
    // 1's, each run starting where the previous one ended.
    std::uint64_t next = 0;
    for (std::uint64_t o = 0; o < machines; ++o) {
      for (std::uint64_t i = o; i < items; i += machines) {
        EXPECT_EQ(runs.base(i), next) << items << "/" << machines;
        next += size(i);
      }
    }
    EXPECT_EQ(runs.size(), next);
  }
}

TEST(OwnerArray, MapsWithoutTouchingAndReadsZeroUntilFilled) {
  // 16 MiB the host never writes: mapping it faults no page in, so a
  // forked worker inherits no copy-on-write pages of it.
  constexpr std::uint64_t kBytes = 16ull << 20;
  const std::uint64_t before = obs::minor_faults();
  OwnerArray<char> slots(kBytes);
  EXPECT_LT(obs::minor_faults() - before, 64u);
  EXPECT_EQ(slots.size(), kBytes);
  EXPECT_EQ(slots[kBytes - 1], 0);
  slots[12345] = 7;
  EXPECT_EQ(slots[12345], 7);
  const OwnerArray<double> empty(0);
  EXPECT_EQ(empty.size(), 0u);
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
