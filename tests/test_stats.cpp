// Unit tests for the statistics toolkit (src/core/stats.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "core/common.hpp"

namespace ppsim {
namespace {

TEST(RunningStats, MatchesHandComputedMoments) {
    RunningStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
    EXPECT_EQ(stats.count(), 8U);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    // Sample variance of the classic dataset: Σ(x−5)² = 32, / 7.
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingletonAreSafe) {
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0U);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.sem(), 0.0);
    stats.add(3.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequentialAccumulation) {
    RunningStats all;
    RunningStats left;
    RunningStats right;
    for (int i = 0; i < 100; ++i) {
        const double x = std::sin(i) * 10.0;
        all.add(x);
        (i % 2 == 0 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySidesIsIdentity) {
    RunningStats a;
    a.add(1.0);
    a.add(2.0);
    RunningStats empty;
    RunningStats b = a;
    b.merge(empty);
    EXPECT_DOUBLE_EQ(b.mean(), a.mean());
    empty.merge(a);
    EXPECT_DOUBLE_EQ(empty.mean(), a.mean());
}

TEST(RunningStats, CiHalfWidthLevels) {
    RunningStats stats;
    for (int i = 0; i < 100; ++i) stats.add(static_cast<double>(i % 10));
    const double ci90 = stats.ci_half_width(0.90);
    const double ci95 = stats.ci_half_width(0.95);
    const double ci99 = stats.ci_half_width(0.99);
    EXPECT_LT(ci90, ci95);
    EXPECT_LT(ci95, ci99);
    EXPECT_THROW((void)stats.ci_half_width(0.5), InvalidArgument);
}

TEST(SampleSet, PercentilesInterpolate) {
    SampleSet s;
    for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 40.0);
    EXPECT_DOUBLE_EQ(s.median(), 25.0);
    EXPECT_DOUBLE_EQ(s.percentile(25.0), 17.5);
}

TEST(SampleSet, GuardsDegenerateInput) {
    SampleSet s;
    EXPECT_THROW((void)s.percentile(50.0), InvalidArgument);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 5.0);
    EXPECT_THROW((void)s.percentile(101.0), InvalidArgument);
}

TEST(SampleSet, MeanAndVarianceAgreeWithRunningStats) {
    SampleSet s;
    RunningStats r;
    for (int i = 0; i < 57; ++i) {
        const double x = std::cos(i) * 3.0 + i;
        s.add(x);
        r.add(x);
    }
    EXPECT_NEAR(s.mean(), r.mean(), 1e-9);
    EXPECT_NEAR(s.variance(), r.variance(), 1e-9);
}

TEST(FrequencyTable, CountsAndFractions) {
    FrequencyTable t;
    t.add(1);
    t.add(1);
    t.add(3);
    EXPECT_EQ(t.total(), 3U);
    EXPECT_EQ(t.count(1), 2U);
    EXPECT_EQ(t.count(2), 0U);
    EXPECT_EQ(t.count(99), 0U);
    EXPECT_DOUBLE_EQ(t.fraction(1), 2.0 / 3.0);
    EXPECT_EQ(t.max_key(), 3U);
}

TEST(LinearFit, RecoversExactLine) {
    std::vector<double> x{1, 2, 3, 4, 5};
    std::vector<double> y{3, 5, 7, 9, 11};  // y = 2x + 1
    const LinearFit fit = fit_linear(x, y);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, RejectsMismatchedOrTinyInput) {
    std::vector<double> x{1, 2};
    std::vector<double> y{1};
    EXPECT_THROW((void)fit_linear(x, y), InvalidArgument);
    std::vector<double> one{1};
    EXPECT_THROW((void)fit_linear(one, one), InvalidArgument);
}

TEST(FitLog2, RecoversLogarithmicGrowth) {
    // y = 4·log2(x) + 2 — the shape of Theorem 1's stabilisation time.
    std::vector<double> x{16, 64, 256, 1024, 4096};
    std::vector<double> y;
    for (double v : x) y.push_back(4.0 * std::log2(v) + 2.0);
    const LinearFit fit = fit_log2(x, y);
    EXPECT_NEAR(fit.slope, 4.0, 1e-9);
    EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitPowerLaw, RecoversExponent) {
    // y = 0.5·x^1.0 — the shape of the Ω(n) lower bound on [Ang+06].
    std::vector<double> x{100, 200, 400, 800};
    std::vector<double> y;
    for (double v : x) y.push_back(0.5 * v);
    const LinearFit fit = fit_power_law(x, y);
    EXPECT_NEAR(fit.slope, 1.0, 1e-9);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(WilsonInterval, BracketsTheEstimate) {
    const ProportionCi ci = wilson_interval(50, 100);
    EXPECT_NEAR(ci.estimate, 0.5, 1e-12);
    EXPECT_LT(ci.lower, 0.5);
    EXPECT_GT(ci.upper, 0.5);
    EXPECT_GT(ci.lower, 0.38);
    EXPECT_LT(ci.upper, 0.62);
}

TEST(WilsonInterval, HandlesExtremesAndRejectsBadInput) {
    const ProportionCi none = wilson_interval(0, 50);
    EXPECT_DOUBLE_EQ(none.estimate, 0.0);
    EXPECT_GE(none.lower, 0.0);
    EXPECT_GT(none.upper, 0.0);
    const ProportionCi all = wilson_interval(50, 50);
    EXPECT_LE(all.upper, 1.0);
    EXPECT_LT(all.lower, 1.0);
    EXPECT_THROW((void)wilson_interval(1, 0), InvalidArgument);
    EXPECT_THROW((void)wilson_interval(5, 4), InvalidArgument);
}

TEST(KsTest, StatisticMatchesHandComputedCdfGap) {
    // F_a jumps at 1,2,3,4 (¼ each); F_b jumps at 3,4,5,6. The largest CDF
    // gap is at x ∈ [2, 3): F_a = ½, F_b = 0.
    const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> b = {3.0, 4.0, 5.0, 6.0};
    EXPECT_DOUBLE_EQ(ks_statistic(a, b), 0.5);
    // Identical samples have zero distance and p-value 1.
    EXPECT_DOUBLE_EQ(ks_statistic(a, a), 0.0);
    EXPECT_DOUBLE_EQ(ks_two_sample(a, a).p_value, 1.0);
}

TEST(KsTest, TiesAcrossSamplesDoNotInflateTheStatistic) {
    // Every value tied between the samples: the CDFs coincide at every
    // observation point, so D must be 0 (a one-sided walk would report ½).
    const std::vector<double> a = {1.0, 1.0, 2.0};
    const std::vector<double> b = {1.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(ks_statistic(a, b), 0.0);
}

TEST(KsTest, DetectsAShiftedDistribution) {
    // Two large samples offset by one standard-deviation-ish shift: the test
    // must reject at any sane level.
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 400; ++i) {
        const double u = (static_cast<double>(i) + 0.5) / 400.0;
        a.push_back(u);
        b.push_back(u + 0.3);
    }
    const KsTestResult r = ks_two_sample(a, b);
    EXPECT_NEAR(r.statistic, 0.3, 0.01);
    EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTest, AcceptsSamplesFromTheSameDistribution) {
    // Interleaved quantiles of the same uniform grid: tiny D, p ≈ 1.
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 500; ++i) {
        const double u = (static_cast<double>(i) + 0.5) / 500.0;
        ((i % 2) == 0 ? a : b).push_back(u);
    }
    const KsTestResult r = ks_two_sample(a, b);
    EXPECT_LT(r.statistic, 0.01);
    EXPECT_GT(r.p_value, 0.99);
}

TEST(KsTest, NearIdenticalLargeSamplesReportNoDifference) {
    // λ ≈ 0.005 with huge samples: the Kolmogorov series does not converge
    // within its term budget; the NR probks convention applies (p = 1)
    // instead of returning a truncated, deflated sum.
    EXPECT_GT(ks_p_value(1e-5, 200000, 200000), 0.999);
    // And a large-sample near-tie through the full two-sample path.
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 50000; ++i) {
        const double u = (static_cast<double>(i) + 0.5) / 50000.0;
        a.push_back(u);
        b.push_back(u + 1e-7);
    }
    EXPECT_GT(ks_two_sample(a, b).p_value, 0.999);
}

TEST(KsTest, PValueIsMonotoneInTheStatistic) {
    EXPECT_GT(ks_p_value(0.05, 200, 200), ks_p_value(0.10, 200, 200));
    EXPECT_GT(ks_p_value(0.10, 200, 200), ks_p_value(0.20, 200, 200));
    EXPECT_DOUBLE_EQ(ks_p_value(0.0, 200, 200), 1.0);
    const std::vector<double> empty;
    const std::vector<double> one = {1.0};
    EXPECT_THROW((void)ks_statistic(empty, one), InvalidArgument);
}

TEST(CommonHelpers, CeilAndFloorLog2) {
    EXPECT_EQ(ceil_log2(1), 0U);
    EXPECT_EQ(ceil_log2(2), 1U);
    EXPECT_EQ(ceil_log2(3), 2U);
    EXPECT_EQ(ceil_log2(1024), 10U);
    EXPECT_EQ(ceil_log2(1025), 11U);
    EXPECT_EQ(floor_log2(1), 0U);
    EXPECT_EQ(floor_log2(1023), 9U);
    EXPECT_EQ(floor_log2(1024), 10U);
}

TEST(CommonHelpers, RequireThrowsTheMessageAloneEnsureNamesItsSource) {
    // require reports a caller's error: the message is all users read.
    try {
        require(false, "--n must be positive");
        FAIL() << "require(false, ...) did not throw";
    } catch (const InvalidArgument& e) {
        EXPECT_STREQ(e.what(), "--n must be positive");
    }
    // ensure reports a library bug: the file's name and line lead, with no
    // directory, so the text does not depend on where the code was built.
    const std::string line = std::to_string(__LINE__ + 2);
    try {
        ensure(false, "invariant broken");
        FAIL() << "ensure(false, ...) did not throw";
    } catch (const InvariantViolation& e) {
        EXPECT_EQ(std::string(e.what()), "test_stats.cpp:" + line + ": invariant broken");
    }
}

TEST(CommonHelpers, ParallelTimeConversion) {
    EXPECT_DOUBLE_EQ(to_parallel_time(1000, 100), 10.0);
    EXPECT_DOUBLE_EQ(to_parallel_time(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(to_parallel_time(5, 0), 0.0);
}

}  // namespace
}  // namespace ppsim
