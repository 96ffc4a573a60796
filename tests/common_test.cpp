// Unit tests for ssr/common: rng, distributions, stats, tables, slot sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include "ssr/common/check.h"
#include "ssr/common/distributions.h"
#include "ssr/common/rng.h"
#include "ssr/common/slot_set.h"
#include "ssr/common/stats.h"
#include "ssr/common/table.h"

namespace ssr {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkedStreamsAreIndependentOfParentDraws) {
  Rng parent1(7);
  Rng parent2(7);
  // Consume from parent1 before forking; fork seeds must not depend on how
  // many draws the parent made.
  (void)parent1.uniform(0, 1);
  (void)parent1.uniform(0, 1);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child1.uniform(0, 1), child2.uniform(0, 1));
  }
}

TEST(Rng, ParetoSamplesRespectScaleMinimum) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(1.6, 2.0), 2.0);
  }
}

TEST(Rng, ParetoSampleMeanMatchesAnalytic) {
  Rng rng(5);
  const double alpha = 2.5, scale = 1.0;
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.pareto(alpha, scale));
  const double expected = alpha * scale / (alpha - 1.0);
  EXPECT_NEAR(stats.mean(), expected, 0.03 * expected);
}

TEST(Distributions, FixedAlwaysSame) {
  Rng rng(1);
  auto d = fixed_duration(3.5);
  EXPECT_DOUBLE_EQ(d->sample(rng), 3.5);
  EXPECT_DOUBLE_EQ(d->mean(), 3.5);
}

TEST(Distributions, UniformWithinBounds) {
  Rng rng(1);
  auto d = uniform_duration(2.0, 4.0);
  for (int i = 0; i < 1000; ++i) {
    const double x = d->sample(rng);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 4.0);
  }
  EXPECT_DOUBLE_EQ(d->mean(), 3.0);
}

TEST(Distributions, ParetoWithMeanHitsRequestedMean) {
  Rng rng(9);
  auto d = pareto_duration_with_mean(1.6, 10.0);
  EXPECT_DOUBLE_EQ(d->mean(), 10.0);
  OnlineStats stats;
  for (int i = 0; i < 500000; ++i) stats.add(d->sample(rng));
  // alpha = 1.6 has infinite variance; allow a loose Monte-Carlo band.
  EXPECT_NEAR(stats.mean(), 10.0, 1.5);
}

TEST(Distributions, LognormalMeanAnalytic) {
  Rng rng(4);
  auto d = lognormal_duration(5.0, 0.4);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(d->sample(rng));
  EXPECT_NEAR(stats.mean(), d->mean(), 0.05 * d->mean());
  EXPECT_NEAR(d->mean(), 5.0 * std::exp(0.5 * 0.4 * 0.4), 1e-9);
}

TEST(Distributions, EmpiricalSamplesFromList) {
  Rng rng(2);
  auto d = empirical_duration({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(d->mean(), 2.0);
  for (int i = 0; i < 100; ++i) {
    const double x = d->sample(rng);
    EXPECT_TRUE(x == 1.0 || x == 2.0 || x == 3.0);
  }
}

TEST(Distributions, ScaledMultiplies) {
  Rng rng(2);
  auto d = scaled_duration(fixed_duration(4.0), 2.5);
  EXPECT_DOUBLE_EQ(d->sample(rng), 10.0);
  EXPECT_DOUBLE_EQ(d->mean(), 10.0);
}

TEST(Distributions, RejectsInvalidParameters) {
  EXPECT_THROW(fixed_duration(0.0), CheckError);
  EXPECT_THROW(uniform_duration(-1.0, 2.0), CheckError);
  EXPECT_THROW(pareto_duration(0.9, 1.0), CheckError);
  EXPECT_THROW(pareto_duration(1.6, 0.0), CheckError);
  EXPECT_THROW(empirical_duration({}), CheckError);
  EXPECT_THROW(scaled_duration(fixed_duration(1.0), 0.0), CheckError);
}

TEST(Stats, WelfordMatchesDirectComputation) {
  OnlineStats s;
  const std::vector<double> xs = {1, 2, 3, 4, 100};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 22.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  // Sample variance: sum((x-22)^2)/4
  double acc = 0;
  for (double x : xs) acc += (x - 22.0) * (x - 22.0);
  EXPECT_NEAR(s.variance(), acc / 4.0, 1e-9);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_THROW(percentile({}, 0.5), CheckError);
  EXPECT_THROW(percentile(xs, 1.5), CheckError);
}

TEST(Table, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", TablePrinter::num(1.2345, 2)});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), CheckError);
}

TEST(Check, MacrosThrowWithContext) {
  try {
    SSR_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

TEST(Check, MsgAcceptsStreamedExpressions) {
  const int wanted = 3;
  const int got = 7;
  try {
    SSR_CHECK_MSG(wanted == got, "wanted " << wanted << " but got " << got);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("wanted 3 but got 7"),
              std::string::npos)
        << e.what();
  }
}

TEST(Check, MsgStreamIsLazilyEvaluated) {
  // The message chain must only run on failure; a passing check with a
  // side-effecting message must not observe the side effect.
  int calls = 0;
  auto expensive = [&calls] {
    ++calls;
    return std::string("never shown");
  };
  SSR_CHECK_MSG(true, expensive());
  EXPECT_EQ(calls, 0);
}

TEST(Check, OpMacroPrintsBothOperands) {
  const std::size_t lhs = 4;
  try {
    SSR_CHECK_EQ(lhs, 9u);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lhs == 9u"), std::string::npos) << what;
    EXPECT_NE(what.find("operands were 4 == 9"), std::string::npos) << what;
  }
}

TEST(Check, OpMacroEvaluatesOperandsOnce) {
  int evaluations = 0;
  auto next = [&evaluations] { return ++evaluations; };
  SSR_CHECK_LE(next(), 5);
  EXPECT_EQ(evaluations, 1);
}

TEST(Check, OpMacroVariantsPass) {
  SSR_CHECK_EQ(2, 2);
  SSR_CHECK_NE(2, 3);
  SSR_CHECK_LT(2, 3);
  SSR_CHECK_LE(3, 3);
  SSR_CHECK_GT(4, 3);
  SSR_CHECK_GE(4.0, 4.0);
  EXPECT_THROW(SSR_CHECK_GT(1, 2), CheckError);
  EXPECT_THROW(SSR_CHECK_NE(5, 5), CheckError);
}

// --- SlotSet ----------------------------------------------------------------

static_assert(std::forward_iterator<SlotSet::const_iterator>);

std::vector<std::uint32_t> ids_of(const SlotSet& set) {
  std::vector<std::uint32_t> out;
  for (SlotId s : set) out.push_back(s.v);
  return out;
}

TEST(SlotSet, EmptySetHasNothingToIterate) {
  const SlotSet none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.begin(), none.end());
  EXPECT_FALSE(none.contains(SlotId{0}));

  const SlotSet sized(130);
  EXPECT_TRUE(sized.empty());
  EXPECT_EQ(sized.begin(), sized.end());
  EXPECT_FALSE(sized.contains(SlotId{129}));
  EXPECT_FALSE(sized.contains(SlotId{5000}));  // past capacity: absent
}

TEST(SlotSet, WordBoundariesIterateInIdOrder) {
  constexpr std::uint32_t kLast = 129;  // capacity 130 spans three words
  SlotSet set(kLast + 1);
  for (std::uint32_t id : {kLast, 65u, 0u, 64u, 63u}) {
    EXPECT_TRUE(set.insert(SlotId{id}));
  }
  EXPECT_EQ(ids_of(set), (std::vector<std::uint32_t>{0, 63, 64, 65, kLast}));
  EXPECT_EQ(set.size(), 5u);
  for (std::uint32_t id : {0u, 63u, 64u, 65u, kLast}) {
    EXPECT_TRUE(set.contains(SlotId{id})) << id;
  }
  for (std::uint32_t id : {1u, 62u, 66u, 127u, 128u}) {
    EXPECT_FALSE(set.contains(SlotId{id})) << id;
  }
  EXPECT_EQ(*set.begin(), SlotId{0});

  EXPECT_TRUE(set.erase(SlotId{0}));
  EXPECT_TRUE(set.erase(SlotId{64}));
  EXPECT_EQ(ids_of(set), (std::vector<std::uint32_t>{63, 65, kLast}));
  EXPECT_TRUE(set.erase(SlotId{63}));
  EXPECT_TRUE(set.erase(SlotId{65}));
  EXPECT_EQ(ids_of(set), (std::vector<std::uint32_t>{kLast}));
  EXPECT_TRUE(set.erase(SlotId{kLast}));
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.begin(), set.end());
}

TEST(SlotSet, RepeatedInsertAndEraseKeepTheCount) {
  SlotSet set(64);
  EXPECT_TRUE(set.insert(SlotId{63}));
  EXPECT_FALSE(set.insert(SlotId{63}));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_FALSE(set.empty());
  EXPECT_TRUE(set.erase(SlotId{63}));
  EXPECT_FALSE(set.erase(SlotId{63}));
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.erase(SlotId{7}));  // never inserted
  EXPECT_TRUE(set.empty());
}

TEST(SlotSet, OutOfCapacityInsertOrEraseThrows) {
  SlotSet set(64);
  EXPECT_THROW(set.insert(SlotId{64}), CheckError);
  EXPECT_THROW(set.erase(SlotId{64}), CheckError);
  EXPECT_TRUE(set.empty());
}

TEST(SlotSet, RandomOperationsMatchStdSet) {
  constexpr std::uint32_t kCapacity = 300;  // five words, the last partial
  Rng rng(20240917);
  SlotSet set(kCapacity);
  std::set<SlotId> reference;
  for (int op = 0; op < 10000; ++op) {
    const SlotId id{
        static_cast<std::uint32_t>(rng.uniform_int(0, kCapacity - 1))};
    if (rng.bernoulli(0.55)) {
      EXPECT_EQ(set.insert(id), reference.insert(id).second);
    } else {
      EXPECT_EQ(set.erase(id), reference.erase(id) == 1);
    }
    ASSERT_EQ(set.size(), reference.size());
    ASSERT_EQ(set.empty(), reference.empty());
    if (op % 97 == 0) {
      ASSERT_TRUE(std::equal(set.begin(), set.end(), reference.begin(),
                             reference.end()))
          << "after operation " << op;
    }
  }
  EXPECT_TRUE(std::equal(set.begin(), set.end(), reference.begin(),
                         reference.end()));
  for (std::uint32_t id = 0; id < kCapacity; ++id) {
    EXPECT_EQ(set.contains(SlotId{id}), reference.contains(SlotId{id}));
  }
}

}  // namespace
}  // namespace ssr
