// Unit tests for the util module: RNG, math helpers, statistics, tables,
// the text codec's number grammar, the fork-safety thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <set>
#include <sstream>
#include <thread>

#include "mrlr/util/math.hpp"
#include "mrlr/util/rng.hpp"
#include "mrlr/util/stats.hpp"
#include "mrlr/util/table.hpp"
#include "mrlr/util/text.hpp"
#include "mrlr/util/threads.hpp"

namespace mrlr {
namespace {

// ---------------------------------------------------------------- RNG --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitmixAdvances) {
  std::uint64_t s = 7;
  const auto a = splitmix64_next(s);
  const auto b = splitmix64_next(s);
  EXPECT_NE(a, b);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformHitsAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(11);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    lo_hit |= (x == -3);
    hi_hit |= (x == 3);
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(17);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.uniform01());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(29);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.exponential(2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
}

TEST(Rng, ForkProducesDistinctStreams) {
  Rng parent(31);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(37);
  for (const std::uint64_t n : {10, 100, 1000}) {
    for (const std::uint64_t k :
         std::initializer_list<std::uint64_t>{0, 1, n / 2, n}) {
      const auto s = rng.sample_without_replacement(n, k);
      ASSERT_EQ(s.size(), k);
      std::set<std::uint64_t> distinct(s.begin(), s.end());
      EXPECT_EQ(distinct.size(), k);
      for (const auto x : s) EXPECT_LT(x, n);
    }
  }
}

TEST(Rng, SampleWithoutReplacementUnbiased) {
  // Element 0 of [4] should appear in a 2-subset about half the time.
  Rng rng(41);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto s = rng.sample_without_replacement(4, 2);
    for (const auto x : s) hits += (x == 0);
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.5, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(43);
  const auto p = rng.permutation(100);
  std::set<std::uint64_t> distinct(p.begin(), p.end());
  EXPECT_EQ(distinct.size(), 100u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(47);
  std::vector<int> v{1, 2, 2, 3, 5, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

// --------------------------------------------------------------- math --

TEST(Math, HarmonicSmallValues) {
  EXPECT_DOUBLE_EQ(harmonic(0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_DOUBLE_EQ(harmonic(2), 1.5);
  EXPECT_NEAR(harmonic(10), 2.9289682539682538, 1e-12);
}

TEST(Math, HarmonicAsymptoticMatchesExact) {
  // The asymptotic branch (k > 2^20) should agree with log-based growth.
  const double h = harmonic((1ull << 20) + 5);
  EXPECT_NEAR(h, std::log((1ull << 20) + 5.0) + 0.5772156649, 1e-6);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0u);
  EXPECT_EQ(ceil_div(1, 3), 1u);
  EXPECT_EQ(ceil_div(3, 3), 1u);
  EXPECT_EQ(ceil_div(4, 3), 2u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(1024), 10u);
  EXPECT_EQ(floor_log2((1ull << 63) + 5), 63u);
}

TEST(Math, CeilLog) {
  EXPECT_EQ(ceil_log(1, 2), 0u);
  EXPECT_EQ(ceil_log(2, 2), 1u);
  EXPECT_EQ(ceil_log(3, 2), 2u);
  EXPECT_EQ(ceil_log(8, 2), 3u);
  EXPECT_EQ(ceil_log(9, 2), 4u);
  EXPECT_EQ(ceil_log(1000, 10), 3u);
  EXPECT_EQ(ceil_log(1001, 10), 4u);
}

TEST(Math, IpowRealBasics) {
  EXPECT_EQ(ipow_real(10, 2.0), 100u);
  EXPECT_EQ(ipow_real(10, 0.0), 1u);
  EXPECT_EQ(ipow_real(100, 0.5), 10u);
  EXPECT_EQ(ipow_real(10, -1.0, 5), 5u);  // clamped to min_value
  EXPECT_EQ(ipow_real(0, 3.0, 7), 7u);
}

TEST(Math, IpowSaturates) {
  EXPECT_EQ(ipow(2, 3), 8u);
  EXPECT_EQ(ipow(10, 0), 1u);
  EXPECT_EQ(ipow(1ull << 32, 3), ~0ull);  // saturation
}

TEST(Math, DensityExponent) {
  // m = n^{1+c}: n=100, m=100^{1.5}=1000 -> c=0.5.
  EXPECT_NEAR(density_exponent(100, 1000), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(density_exponent(1, 10), 0.0);
  EXPECT_DOUBLE_EQ(density_exponent(100, 10), 0.0);  // clamped at 0
}

// -------------------------------------------------------------- stats --

TEST(Stats, AccumulatorBasics) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  a.add(2.0);
  a.add(4.0);
  a.add(6.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_DOUBLE_EQ(a.variance(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
  EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
}

TEST(Stats, FitLineRecoversSlope) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const auto f = fit_line(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, FitLineConstantData) {
  std::vector<double> x{1, 2, 3}, y{5, 5, 5};
  const auto f = fit_line(x, y);
  EXPECT_NEAR(f.slope, 0.0, 1e-12);
  EXPECT_NEAR(f.intercept, 5.0, 1e-12);
}

TEST(Stats, FormatSi) {
  EXPECT_EQ(format_si(950), "950");
  EXPECT_EQ(format_si(1500), "1.5k");
  EXPECT_EQ(format_si(2.5e6), "2.5M");
  EXPECT_EQ(format_si(3e9), "3G");
}

// -------------------------------------------------------------- table --

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("x").cell(std::uint64_t{42});
  t.row().cell("longer").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 3.14  |"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell(std::uint64_t{1}).cell(std::uint64_t{2});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, NumRows) {
  Table t({"a"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.row().cell("x");
  EXPECT_EQ(t.num_rows(), 1u);
}

// --------------------------------------------------------------- text --

TEST(TextNumbers, WholeTokensOnly) {
  using text::parse_number;
  EXPECT_EQ(parse_number<std::uint64_t>("300"), 300u);
  EXPECT_EQ(parse_number<std::uint64_t>("+300"), 300u);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            ~std::uint64_t{0});
  EXPECT_EQ(parse_number<double>("0.3"), 0.3);
  EXPECT_EQ(parse_number<double>("-0.5"), -0.5);
  EXPECT_EQ(parse_number<double>("+1e-3"), 1e-3);
  EXPECT_EQ(parse_number<std::uint16_t>("65535"), 65535u);
  for (const char* bad : {"", "+", "300x", " 300", "300 ", "-1", "+-1",
                          "++1", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(parse_number<std::uint64_t>(bad)) << '"' << bad << '"';
  }
  for (const char* bad : {"0.3abc", "+-0.5", "inf", "nan", "1e400", "."}) {
    EXPECT_FALSE(parse_number<double>(bad)) << '"' << bad << '"';
  }
  EXPECT_FALSE(parse_number<std::uint32_t>("4294967298"));
  EXPECT_FALSE(parse_number<std::uint16_t>("65536"));
}

// ------------------------------------------------------------ threads --

TEST(Threads, CountsLiveThreads) {
#ifdef __SANITIZE_THREAD__
  GTEST_SKIP() << "TSan's runtime adds a thread of its own";
#endif
  ASSERT_EQ(thread_count(), 1u);
  EXPECT_TRUE(single_threaded());
  std::promise<void> release;
  std::thread t([f = release.get_future()]() mutable { f.wait(); });
  EXPECT_EQ(thread_count(), 2u);
  EXPECT_FALSE(single_threaded());
  release.set_value();
  t.join();
  EXPECT_TRUE(single_threaded());  // a joined thread may linger briefly
}

}  // namespace
}  // namespace mrlr
