// Unit tests for src/util: RNG, TopK, ScoreMap, stats, tables, timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_map>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/score_map.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/top_k.hpp"

namespace snaple {
namespace {

// ---------- RNG ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroIsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(13);
  std::array<int, 10> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% relative
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto x = rng.next_in_range(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(21);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitProducesDecorrelatedStreams) {
  Rng parent(99);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  const auto original = v;
  Rng rng(17);
  shuffle(v, rng);
  EXPECT_NE(v, original);  // astronomically unlikely to match
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(Rng, ShuffleTinyInputs) {
  std::vector<int> empty;
  std::vector<int> one{42};
  Rng rng(1);
  shuffle(empty, rng);
  shuffle(one, rng);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one, std::vector<int>{42});
}

// ---------- TopK ----------

TEST(TopK, KeepsBestK) {
  TopK<int, double> top(3);
  top.offer(1, 0.5);
  top.offer(2, 0.9);
  top.offer(3, 0.1);
  top.offer(4, 0.7);
  top.offer(5, 0.3);
  EXPECT_EQ(top.take_items(), (std::vector<int>{2, 4, 1}));
}

// Regression: an inverted comparator once made TopK keep the k WORST
// items after the heap filled — silently wrecking every recall number.
TEST(TopK, RegressionDoesNotKeepWorst) {
  TopK<int, double> top(2);
  top.offer(10, 0.1);
  top.offer(20, 0.2);  // heap now full with {0.1, 0.2}
  top.offer(30, 0.9);  // must evict 0.1
  top.offer(40, 0.8);  // must evict 0.2
  EXPECT_EQ(top.take_items(), (std::vector<int>{30, 40}));
}

TEST(TopK, MatchesFullSortOnRandomInput) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::pair<int, double>> items;
    for (int i = 0; i < 200; ++i) {
      items.emplace_back(i, rng.next_double());
    }
    TopK<int, double> top(10);
    for (const auto& [id, s] : items) top.offer(id, s);
    const auto got = top.take_items();

    auto expect = items;
    std::sort(expect.begin(), expect.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], expect[i].first);
  }
}

TEST(TopK, DeterministicTieBreakPrefersSmallerItem) {
  TopK<int, double> top(2);
  top.offer(9, 0.5);
  top.offer(3, 0.5);
  top.offer(7, 0.5);
  EXPECT_EQ(top.take_items(), (std::vector<int>{3, 7}));
}

TEST(TopK, FewerItemsThanK) {
  TopK<int, double> top(10);
  top.offer(1, 0.3);
  top.offer(2, 0.6);
  EXPECT_EQ(top.take_items(), (std::vector<int>{2, 1}));
}

TEST(TopK, ZeroCapacity) {
  TopK<int, double> top(0);
  top.offer(1, 0.5);
  EXPECT_TRUE(top.take_items().empty());
}

TEST(TopK, TakeSortedDescending) {
  TopK<int, double> top(4);
  for (int i = 0; i < 20; ++i) top.offer(i, static_cast<double>(i % 7));
  const auto entries = top.take_sorted();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].score, entries[i].score);
  }
  EXPECT_TRUE(top.empty());  // take_* leaves the selector reusable
}

// ---------- ScoreMap ----------

TEST(ScoreMap, AccumulateSumsAndCounts) {
  ScoreMap m;
  auto plus = [](float a, float b) { return a + b; };
  m.accumulate(5, 1.0f, 1, plus);
  m.accumulate(5, 2.0f, 1, plus);
  m.accumulate(7, 4.0f, 3, plus);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_FLOAT_EQ(m.find(5)->score, 3.0f);
  EXPECT_EQ(m.find(5)->count, 2u);
  EXPECT_FLOAT_EQ(m.find(7)->score, 4.0f);
  EXPECT_EQ(m.find(7)->count, 3u);
  EXPECT_EQ(m.find(9), nullptr);
  EXPECT_EQ(m.size(), 2u);
}

TEST(ScoreMap, ProductPreOp) {
  ScoreMap m;
  auto times = [](float a, float b) { return a * b; };
  m.accumulate(1, 0.5f, 1, times);
  m.accumulate(1, 0.5f, 1, times);
  EXPECT_FLOAT_EQ(m.find(1)->score, 0.25f);
}

TEST(ScoreMap, GrowsPastInitialCapacity) {
  ScoreMap m(4);
  auto plus = [](float a, float b) { return a + b; };
  for (std::uint32_t k = 0; k < 1000; ++k) m.accumulate(k, 1.0f, 1, plus);
  EXPECT_EQ(m.size(), 1000u);
  for (std::uint32_t k = 0; k < 1000; ++k) {
    ASSERT_NE(m.find(k), nullptr) << k;
  }
}

TEST(ScoreMap, ClearKeepsMemoryAndEmpties) {
  ScoreMap m;
  auto plus = [](float a, float b) { return a + b; };
  for (std::uint32_t k = 0; k < 100; ++k) m.accumulate(k, 1.0f, 1, plus);
  const auto bytes = m.memory_bytes();
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.memory_bytes(), bytes);
  EXPECT_EQ(m.find(5), nullptr);
}

TEST(ScoreMap, MatchesUnorderedMapReference) {
  Rng rng(77);
  auto plus = [](float a, float b) { return a + b; };
  for (int trial = 0; trial < 10; ++trial) {
    ScoreMap m;
    std::unordered_map<std::uint32_t, std::pair<float, std::uint32_t>> ref;
    for (int i = 0; i < 3000; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.next_below(500));
      const auto val = static_cast<float>(rng.next_double());
      m.accumulate(key, val, 1, plus);
      auto [it, inserted] = ref.try_emplace(key, val, 1);
      if (!inserted) {
        it->second.first += val;
        it->second.second += 1;
      }
    }
    EXPECT_EQ(m.size(), ref.size());
    std::size_t visited = 0;
    m.for_each([&](std::uint32_t k, float s, std::uint32_t n) {
      ++visited;
      ASSERT_TRUE(ref.count(k));
      EXPECT_NEAR(s, ref[k].first, 1e-3);
      EXPECT_EQ(n, ref[k].second);
    });
    EXPECT_EQ(visited, ref.size());
  }
}

TEST(ScoreMap, DefaultConstructionIsLazy) {
  ScoreMap m;
  EXPECT_EQ(m.memory_bytes(), 0u);  // no table until the first entry
  EXPECT_EQ(m.find(3), nullptr);
  m.clear();  // no-op on the lazy-empty state
  auto plus = [](float a, float b) { return a + b; };
  m.accumulate(3, 1.0f, 1, plus);
  EXPECT_GT(m.memory_bytes(), 0u);
  EXPECT_FLOAT_EQ(m.find(3)->score, 1.0f);
}

TEST(ScoreMap, ExportSealedAppendsEntriesAndResetsSource) {
  ScoreMap m;
  auto plus = [](float a, float b) { return a + b; };
  for (std::uint32_t k = 0; k < 50; ++k) m.accumulate(k, 1.0f, 1, plus);
  const auto bytes = m.memory_bytes();
  std::vector<ScoreMap::Slot> run{ScoreMap::Slot{99, 1.0f, 1}};
  m.export_sealed(run);
  // Source is empty but keeps its table for the next vertex.
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.memory_bytes(), bytes);
  // The run gained exactly the entries, densely, after what it held.
  ASSERT_EQ(run.size(), 51u);
  EXPECT_EQ(run.front().key, 99u);
  ScoreMap sealed;
  sealed.adopt_sealed(std::span(run).subspan(1));
  EXPECT_EQ(sealed.size(), 50u);
  EXPECT_EQ(sealed.memory_bytes(), 50 * sizeof(ScoreMap::Slot));
  std::size_t visited = 0;
  sealed.for_each([&](std::uint32_t k, float s, std::uint32_t n) {
    ++visited;
    EXPECT_LT(k, 50u);
    EXPECT_FLOAT_EQ(s, 1.0f);
    EXPECT_EQ(n, 1u);
  });
  EXPECT_EQ(visited, 50u);
  // The source map is immediately reusable.
  m.accumulate(7, 2.0f, 1, plus);
  EXPECT_FLOAT_EQ(m.find(7)->score, 2.0f);
}

TEST(ScoreMap, SealedRunVisitsInTableSlotOrder) {
  ScoreMap m;
  auto plus = [](float a, float b) { return a + b; };
  for (std::uint32_t k = 0; k < 40; ++k) m.accumulate(k * 7, 1.0f, k, plus);
  std::vector<std::uint32_t> table_order;
  m.for_each([&](std::uint32_t k, float, std::uint32_t) {
    table_order.push_back(k);
  });
  // slots() with its holes skipped is the same walk as for_each().
  std::vector<std::uint32_t> slot_order;
  ScoreMap::for_each_slot(m.slots(), [&](std::uint32_t k, float,
                                         std::uint32_t) {
    slot_order.push_back(k);
  });
  EXPECT_EQ(slot_order, table_order);
  std::vector<ScoreMap::Slot> run;
  m.export_sealed(run);
  ScoreMap sealed;
  sealed.adopt_sealed(run);
  std::vector<std::uint32_t> sealed_order;
  sealed.for_each([&](std::uint32_t k, float, std::uint32_t) {
    sealed_order.push_back(k);
  });
  EXPECT_EQ(sealed_order, table_order);
}

TEST(ScoreMap, AccumulateIntoSealedMapSelfHeals) {
  ScoreMap m;
  auto plus = [](float a, float b) { return a + b; };
  for (std::uint32_t k = 0; k < 20; ++k) m.accumulate(k, 1.0f, 1, plus);
  std::vector<ScoreMap::Slot> run;
  m.export_sealed(run);
  ScoreMap sealed;
  sealed.adopt_sealed(run);
  // Folding into a sealed map rebuilds a real probing table first.
  sealed.accumulate(5, 2.0f, 1, plus);
  sealed.accumulate(100, 1.0f, 1, plus);
  EXPECT_EQ(sealed.size(), 21u);
  EXPECT_FLOAT_EQ(sealed.find(5)->score, 3.0f);
  EXPECT_FLOAT_EQ(sealed.find(100)->score, 1.0f);
}

TEST(ScoreMap, ClearOnSealedMapRestoresLazyEmpty) {
  ScoreMap m;
  auto plus = [](float a, float b) { return a + b; };
  for (std::uint32_t k = 0; k < 30; ++k) m.accumulate(k, 1.0f, 1, plus);
  std::vector<ScoreMap::Slot> run;
  m.export_sealed(run);
  ScoreMap sealed;
  sealed.adopt_sealed(run);
  sealed.clear();
  EXPECT_TRUE(sealed.empty());
  EXPECT_EQ(sealed.find(3), nullptr);
  for (std::uint32_t k = 0; k < 40; ++k) sealed.accumulate(k, 1.0f, 1, plus);
  EXPECT_EQ(sealed.size(), 40u);
  for (std::uint32_t k = 0; k < 40; ++k) {
    ASSERT_NE(sealed.find(k), nullptr) << k;
  }
}

TEST(ScoreMap, ShrinksLogicalTableAfterHubVertex) {
  ScoreMap m;
  auto plus = [](float a, float b) { return a + b; };
  // A hub inflates the table…
  for (std::uint32_t k = 0; k < 5000; ++k) m.accumulate(k, 1.0f, 1, plus);
  const auto hub_bytes = m.memory_bytes();
  // …then a clear after a small occupancy shrinks the logical table so
  // later clears stop sweeping a hub-sized array.
  m.clear();
  for (std::uint32_t k = 0; k < 8; ++k) m.accumulate(k, 1.0f, 1, plus);
  m.clear();
  EXPECT_LT(m.memory_bytes(), hub_bytes);
  // Still a fully working map afterwards.
  for (std::uint32_t k = 0; k < 300; ++k) m.accumulate(k, 2.0f, 1, plus);
  EXPECT_EQ(m.size(), 300u);
  EXPECT_FLOAT_EQ(m.find(123)->score, 2.0f);
}

// ---------- Stats ----------

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-9);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(EmpiricalCdf, StepFunction) {
  EmpiricalCdf cdf({1.0, 2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(3.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdf, Quantile) {
  EmpiricalCdf cdf({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 40.0);
}

TEST(Percentile, InterpolatesAndHandlesEdges) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 3.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
}

// ---------- Table / formatting ----------

TEST(Table, AlignsAndPrints) {
  Table t({"name", "value"});
  t.add_row({"x", Table::fmt(1.5)});
  t.add_row({"long-name", Table::fmt_int(42)});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"a", "b"});
  t.add_row({"has,comma", "has\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  EXPECT_THROW(t.add_row({"a", "b"}), CheckError);
}

TEST(Table, PadsMissingCells) {
  Table t({"a", "b"});
  t.add_row({"x"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(FormatDuration, PaperStyle) {
  EXPECT_EQ(format_duration(45.8), "45.80s");
  EXPECT_EQ(format_duration(177.0), "2min57s");
  EXPECT_EQ(format_duration(600.7), "10min00s");
  EXPECT_EQ(format_duration(-1.0), "0.00s");
}

TEST(WallTimer, MeasuresForwardTime) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  t.restart();
  EXPECT_LT(t.seconds(), 1.0);
}

// ---------- check macros ----------

TEST(Check, ThrowsWithMessage) {
  try {
    SNAPLE_CHECK_MSG(false, "context here");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(SNAPLE_CHECK(1 + 1 == 2));
}

}  // namespace
}  // namespace snaple
