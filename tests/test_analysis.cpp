// Tests for the analysis layer: experiment driver, state-space counter,
// estimators and report rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/estimators.hpp"
#include "analysis/experiment.hpp"
#include "analysis/report.hpp"
#include "analysis/statespace.hpp"

namespace ppsim {
namespace {

TEST(StepBudget, ScalesAsDocumented) {
    EXPECT_EQ(StepBudget::n_log_n(1024, 1.0), 1024U * 10U);
    EXPECT_EQ(StepBudget::n_squared(100, 2.0), 20'000U);
}

TEST(Experiment, SweepProducesAggregatedPoints) {
    SweepConfig config;
    config.protocol = "pll";
    config.sizes = {32, 64};
    config.repetitions = 8;
    config.seed = 99;
    config.threads = 2;
    const SweepResult result = run_sweep(config);
    ASSERT_EQ(result.points.size(), 2U);
    for (const SweepPoint& p : result.points) {
        EXPECT_EQ(p.repetitions, 8U);
        EXPECT_EQ(p.failures + p.parallel_time.count(), 8U);
        EXPECT_GT(p.parallel_time.mean(), 0.0);
    }
    const LinearFit fit = result.fit_vs_log_n();
    EXPECT_TRUE(std::isfinite(fit.slope));
}

/// Writes its repetition's stabilisation step into a slot of its own when
/// the run finishes: a per-repetition record that merge order cannot shuffle.
class StabilizationSlot final : public SimulationObserver {
public:
    explicit StabilizationSlot(std::optional<StepCount>& slot) : slot_(slot) {}
    [[nodiscard]] StepCount next_due() const noexcept override { return no_deadline; }
    void observe(const Simulation&) override {}
    void finish(const Simulation& sim) override { slot_ = sim.stabilization_step(); }

private:
    std::optional<StepCount>& slot_;
};

TEST(Experiment, SweepIsDeterministicForEqualSeeds) {
    // Each repetition is one sequential run seeded from (seed, n, rep), so
    // the repetition concurrency must not change any run. Samples merge in
    // completion order and are compared sorted; the slots pin every
    // repetition's stabilisation step individually.
    SweepConfig config;
    config.protocol = "angluin06";
    config.sizes = {24};
    config.repetitions = 12;
    config.seed = 7;
    config.budget = [](std::size_t n) { return StepBudget::n_squared(n); };
    using Steps = std::vector<std::optional<StepCount>>;
    const auto run_at = [&config](std::size_t threads, Steps& steps) {
        steps.assign(config.repetitions, std::nullopt);
        SweepConfig at = config;
        at.threads = threads;
        at.make_observer = [&steps](std::size_t, std::size_t rep) {
            return std::make_unique<StabilizationSlot>(steps[rep]);
        };
        const SweepResult result = run_sweep(at);
        const std::span<const double> samples = result.points[0].samples.samples();
        std::vector<double> sorted(samples.begin(), samples.end());
        std::sort(sorted.begin(), sorted.end());
        return sorted;
    };

    Steps reference_steps;
    const std::vector<double> reference = run_at(1, reference_steps);
    ASSERT_EQ(reference.size(), config.repetitions);  // every repetition converged
    for (const std::optional<StepCount>& step : reference_steps) ASSERT_TRUE(step);
    for (const std::size_t threads : {std::size_t{3}, std::size_t{0}}) {
        Steps steps;
        EXPECT_EQ(run_at(threads, steps), reference) << "threads = " << threads;
        EXPECT_EQ(steps, reference_steps) << "threads = " << threads;
    }
}

TEST(Experiment, SweepValidatesConfig) {
    SweepConfig bad;
    bad.protocol = "unknown";
    bad.sizes = {16};
    EXPECT_THROW((void)run_sweep(bad), InvalidArgument);
    SweepConfig empty;
    empty.protocol = "pll";
    EXPECT_THROW((void)run_sweep(empty), InvalidArgument);
}

TEST(Experiment, TightBudgetReportsFailuresInsteadOfThrowing) {
    SweepConfig config;
    config.protocol = "angluin06";
    config.sizes = {128};
    config.repetitions = 4;
    config.budget = [](std::size_t) { return StepCount{10}; };  // far too small
    const SweepResult result = run_sweep(config);
    EXPECT_EQ(result.points[0].failures, 4U);
}

TEST(StateSpace, AngluinHasExactlyTwoStates) {
    const StateSpaceReport report = count_reachable_states("angluin06", 32, 2, 5);
    EXPECT_EQ(report.distinct_states, 2U);
    EXPECT_EQ(report.declared_bound, 2U);
    EXPECT_GT(report.steps_explored, 0U);
}

TEST(StateSpace, LotteryStaysWithinDeclaredBound) {
    const StateSpaceReport report = count_reachable_states("lottery", 128, 3, 6);
    EXPECT_GT(report.distinct_states, 4U);
    EXPECT_LE(report.distinct_states, report.declared_bound);
}

TEST(StateSpace, PllStaysWithinDeclaredBoundAndGrowsSlowly) {
    const StateSpaceReport small = count_reachable_states("pll", 64, 2, 7);
    EXPECT_GT(small.distinct_states, 10U);
    EXPECT_LE(small.distinct_states, small.declared_bound);
    const StateSpaceReport large = count_reachable_states("pll", 512, 2, 7);
    EXPECT_LE(large.distinct_states, large.declared_bound);
    // O(log n) states: ×8 the population must far less than ×8 the states.
    EXPECT_LT(static_cast<double>(large.distinct_states),
              4.0 * static_cast<double>(small.distinct_states));
}

TEST(Estimators, QuickEliminationObservationIsWellFormed) {
    const QuickElimObservation obs = observe_quick_elimination(128, 11);
    EXPECT_GE(obs.leaders, 1U);
    EXPECT_LE(obs.leaders, 128U);
}

TEST(Estimators, SurvivorDistributionMatchesLemma7Shape) {
    // Lemma 7: P(|VL| = i) ≤ 2^{1−i} + εᵢ. With 200 runs the empirical
    // fractions should respect a loosened version of the bound.
    const SurvivorDistribution dist = survivor_distribution(128, 200, 21);
    EXPECT_EQ(dist.counts.total(), 200U);
    EXPECT_GE(dist.counts.count(1), 1U);  // a unique survivor happens often
    for (std::uint64_t i = 3; i <= dist.counts.max_key(); ++i) {
        const double bound = std::pow(2.0, 1.0 - static_cast<double>(i));
        EXPECT_LE(dist.counts.fraction(i), bound + 0.12)
            << "survivors = " << i << " too frequent";
    }
}

TEST(Estimators, SynchronizerReachesAllEpochs) {
    const std::size_t n = 128;
    const SyncObservation obs = observe_synchronizer(n, 13, 100'000'000);
    ASSERT_TRUE(obs.all_in_epoch[0].has_value());  // everyone reached epoch 2
    ASSERT_TRUE(obs.all_in_epoch[1].has_value());
    ASSERT_TRUE(obs.all_in_epoch[2].has_value());
    EXPECT_LT(*obs.all_in_epoch[0], *obs.all_in_epoch[1]);
    EXPECT_LT(*obs.all_in_epoch[1], *obs.all_in_epoch[2]);
    EXPECT_GT(obs.first_color_change, 0U);
    // P1 of Lemma 6: the first colour change must not be too early — use a
    // quarter of the ⌊21·n·ln n⌋ horizon as a loose floor.
    const double horizon = 21.0 * n * std::log(static_cast<double>(n));
    EXPECT_GT(static_cast<double>(obs.first_color_change), horizon / 4.0);
}

TEST(Estimators, SymmetricCoinsAreFairAndBalanced) {
    const CoinFairnessReport report = measure_symmetric_coins(256, 400'000, 17);
    ASSERT_GT(report.flips, 100U);
    EXPECT_TRUE(report.f0_f1_always_equal);
    EXPECT_NEAR(report.head_fraction, 0.5, 0.05);
    EXPECT_NEAR(report.lag1_correlation, 0.0, 0.08);
}

TEST(Report, RendersSweepTables) {
    SweepConfig config;
    config.protocol = "pll";
    config.sizes = {32};
    config.repetitions = 4;
    const SweepResult sweep = run_sweep(config);
    const std::string table = render_sweep_table(sweep, "PLL sweep");
    EXPECT_NE(table.find("PLL sweep"), std::string::npos);
    EXPECT_NE(table.find("32"), std::string::npos);
    const std::string comparison = render_comparison_table({sweep}, "cmp");
    EXPECT_NE(comparison.find("pll"), std::string::npos);
    const JsonValue json = sweep_to_json(sweep);
    EXPECT_NE(json.dump().find("\"protocol\": \"pll\""), std::string::npos);
}

TEST(Report, ReproScaleDefaultsToOne) {
    // The test environment does not set REPRO_SCALE.
    EXPECT_GE(repro_scale(), 1U);
}

}  // namespace
}  // namespace ppsim
