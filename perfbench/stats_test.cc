// Tests of the benchmark's statistics helpers (stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> values;
  for (int i = 0; i < n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(QuantileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(Ramp(101), 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(TailPercentileTest, PicksHighestPercentileWithTenSamplesBeyond) {
  struct Case {
    int n;
    double percentile;
  };
  for (const Case& c : {Case{20, 50.0}, Case{39, 50.0}, Case{40, 75.0},
                        Case{100, 90.0}, Case{199, 90.0}, Case{200, 95.0},
                        Case{999, 95.0}, Case{1000, 99.0}, Case{9999, 99.0},
                        Case{10000, 99.9}, Case{50000, 99.9}}) {
    const auto tail = TailPercentile(Ramp(c.n));
    ASSERT_TRUE(tail.has_value()) << c.n;
    EXPECT_DOUBLE_EQ(tail->percentile, c.percentile) << c.n;
    // At least ten samples lie above the reported value.
    int beyond = 0;
    for (double v : Ramp(c.n)) beyond += v > tail->value ? 1 : 0;
    EXPECT_GE(beyond, 10) << c.n;
  }
}

TEST(TailPercentileTest, TooFewSamplesGiveNoTail) {
  EXPECT_FALSE(TailPercentile(Ramp(19)).has_value());
  EXPECT_FALSE(TailPercentile({}).has_value());
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  EXPECT_EQ(PoissonSchedule(7, 500.0, 2.0), PoissonSchedule(7, 500.0, 2.0));
  EXPECT_NE(PoissonSchedule(7, 500.0, 2.0), PoissonSchedule(8, 500.0, 2.0));
}

TEST(PoissonScheduleTest, AscendingWithinDurationAtTheRequestedRate) {
  const std::vector<int64_t> due = PoissonSchedule(3, 1000.0, 10.0);
  ASSERT_FALSE(due.empty());
  for (size_t i = 1; i < due.size(); ++i) EXPECT_GE(due[i], due[i - 1]);
  EXPECT_GE(due.front(), 0);
  EXPECT_LT(due.back(), int64_t{10'000'000'000});
  // 10000 expected arrivals; Poisson sd = 100, so 5 sd is +-500.
  EXPECT_NEAR(static_cast<double>(due.size()), 10000.0, 500.0);
}

TEST(PoissonScheduleTest, DegenerateInputsGiveNoArrivals) {
  EXPECT_TRUE(PoissonSchedule(1, 0.0, 1.0).empty());
  EXPECT_TRUE(PoissonSchedule(1, 100.0, 0.0).empty());
}

}  // namespace
}  // namespace perfbench
