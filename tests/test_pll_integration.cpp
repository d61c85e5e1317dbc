// Integration tests: full PLL elections across population sizes, with
// post-convergence stability verification (the absorbing-state certificate).
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "protocols/pll.hpp"

namespace ppsim {
namespace {

StepCount generous_budget(std::size_t n) {
    const double lg = std::max(1.0, std::log2(static_cast<double>(n)));
    // PLL stabilises in O(n log n) interactions in expectation; 400× margin
    // keeps flaky failures out of CI while still catching livelock bugs.
    return static_cast<StepCount>(400.0 * static_cast<double>(n) * lg);
}

class PllElection : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PllElection, ElectsExactlyOneLeader) {
    const std::size_t n = GetParam();
    Engine<Pll> engine(Pll::for_population(n), n, /*seed=*/0xE1EC + n);
    const RunResult result = engine.run_until_one_leader(generous_budget(n));
    ASSERT_TRUE(result.converged) << "no single leader within budget at n = " << n;
    EXPECT_EQ(result.leader_count, 1U);
    ASSERT_TRUE(result.stabilization_step.has_value());
    // The single-leader configuration must be absorbing: outputs never
    // change again over a long verification suffix.
    EXPECT_TRUE(engine.verify_outputs_stable(20 * static_cast<StepCount>(n)));
}

INSTANTIATE_TEST_SUITE_P(PopulationSizes, PllElection,
                         ::testing::Values(2, 3, 4, 5, 8, 16, 33, 64, 100, 128, 256, 513,
                                           1024, 4096));

class PllSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PllSeeds, ElectionSucceedsAcrossSeeds) {
    const std::size_t n = 200;
    Engine<Pll> engine(Pll::for_population(n), n, GetParam());
    const RunResult result = engine.run_until_one_leader(generous_budget(n));
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(engine.recount_leaders(), 1U);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PllSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

TEST(PllIntegration, SameSeedReproducesExactExecution) {
    const std::size_t n = 300;
    Engine<Pll> a(Pll::for_population(n), n, 777);
    Engine<Pll> b(Pll::for_population(n), n, 777);
    const RunResult ra = a.run_until_one_leader(generous_budget(n));
    const RunResult rb = b.run_until_one_leader(generous_budget(n));
    ASSERT_TRUE(ra.converged);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.stabilization_step, rb.stabilization_step);
    // Full configurations match, not just summary statistics.
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(a.population()[static_cast<AgentId>(i)],
                  b.population()[static_cast<AgentId>(i)]);
    }
}

TEST(PllIntegration, OversizedKnowledgeParameterStillElects) {
    // m only needs to be Ω(log n); a larger m slows the timers but must not
    // break correctness.
    const std::size_t n = 64;
    PllConfig cfg;
    cfg.m = 40;  // ≫ log2(64) = 6
    Engine<Pll> engine(Pll(cfg), n, 4242);
    const RunResult result =
        engine.run_until_one_leader(4000U * static_cast<StepCount>(n));
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(engine.verify_outputs_stable(10 * static_cast<StepCount>(n)));
}

TEST(PllIntegration, UndersizedKnowledgeParameterStillElectsEventually) {
    // Ablation D5 (`PllConfig::m`, as in bench_ablation): with m < log2(n)
    // the whp analysis of the fast path breaks, but BackUp guarantees
    // elections with probability 1 — stabilisation may just be slower.
    // Correctness must be preserved.
    const std::size_t n = 512;
    PllConfig cfg;
    cfg.m = 4;  // < log2(512) = 9 — violates the paper's requirement
    EXPECT_THROW(cfg.validate(n), InvalidArgument);
    Engine<Pll> engine(Pll(cfg), n, 99);
    const RunResult result =
        engine.run_until_one_leader(6000U * static_cast<StepCount>(n));
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(engine.leader_count(), 1U);
}

TEST(PllIntegration, StabilizationTimeGrowsFarSlowerThanLinearly) {
    // A coarse Theorem-1 smoke check (the full experiment is E4). PLL's
    // per-run time is bimodal — cheap when QuickElimination already leaves a
    // unique leader, timer-paced (≈ cmax/2 = 20.5·m parallel time per epoch)
    // when Tournament must run — so per-run variance is large; the robust
    // smoke property is distance from linear growth: ×16 the population must
    // cost far less than ×16 the time.
    const auto mean_time = [](std::size_t n) {
        double total = 0.0;
        const int reps = 10;
        for (int rep = 0; rep < reps; ++rep) {
            Engine<Pll> engine(Pll::for_population(n), n, 1000 + 17 * rep);
            const RunResult r = engine.run_until_one_leader(generous_budget(n));
            EXPECT_TRUE(r.converged);
            total += r.stabilization_parallel_time(n);
        }
        return total / reps;
    };
    const double t128 = mean_time(128);
    const double t2048 = mean_time(2048);
    EXPECT_LT(t2048, 6.0 * t128) << "growth looks super-logarithmic";
}

}  // namespace
}  // namespace ppsim
