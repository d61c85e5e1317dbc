// Unit and integration tests for the simulation engine (src/core/engine.hpp)
// using the two-state Angluin protocol as the simplest host.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/engine.hpp"
#include "core/population.hpp"
#include "protocols/angluin.hpp"

namespace ppsim {
namespace {

TEST(Population, ConstructsAndResets) {
    Population<int> pop(4, 7);
    EXPECT_EQ(pop.size(), 4U);
    EXPECT_EQ(pop[2], 7);
    pop[2] = 9;
    EXPECT_EQ(pop.count_if([](int x) { return x == 9; }), 1U);
    pop.reset(1);
    EXPECT_EQ(pop.count_if([](int x) { return x == 1; }), 4U);
    EXPECT_THROW(Population<int>(1, 0), InvalidArgument);
}

TEST(Population, RejectsSizesPastTheAgentIdCeiling) {
    // Both checks run before the state vector grows: nothing is allocated.
    constexpr std::size_t huge = std::numeric_limits<std::size_t>::max();
    EXPECT_THROW(Population<int>(huge, 0), InvalidArgument);
    EXPECT_THROW(Engine<Angluin>(Angluin{}, huge, 1), InvalidArgument);
    Population<int> pop(2, 0);
    EXPECT_THROW(pop.append(0, huge), InvalidArgument);
    EXPECT_EQ(pop.size(), 2U);
}

TEST(Population, RejoinPastTheAgentIdCeilingThrows) {
    // One agent past max_agent_population = 2^32 − 1, so the check must fire
    // before ~2^32 states are allocated. A count that would wrap n + k
    // around 2^64 is past the ceiling too.
    Engine<Angluin> engine(Angluin{}, 256, 7);
    EXPECT_THROW(engine.apply_fault(FaultAction::rejoin_count(max_agent_population - 255)),
                 InvalidArgument);
    EXPECT_THROW(engine.apply_fault(FaultAction::rejoin_count(~std::uint64_t{0})),
                 InvalidArgument);
    EXPECT_EQ(engine.population_size(), 256U);
    EXPECT_EQ(engine.leader_count(), 256U);
}

TEST(Engine, StartsWithAllLeaders) {
    Engine<Angluin> engine(Angluin{}, 10, 1);
    EXPECT_EQ(engine.leader_count(), 10U);
    EXPECT_EQ(engine.steps(), 0U);
    EXPECT_EQ(engine.population_size(), 10U);
}

TEST(Engine, AppliesSpecificInteractions) {
    Engine<Angluin> engine(Angluin{}, 4, 1);
    engine.apply(Interaction{0, 1});  // L×L → L×F
    EXPECT_EQ(engine.leader_count(), 3U);
    EXPECT_EQ(engine.role_of(0), Role::leader);
    EXPECT_EQ(engine.role_of(1), Role::follower);
    engine.apply(Interaction{1, 2});  // F×L → unchanged
    EXPECT_EQ(engine.leader_count(), 3U);
    EXPECT_EQ(engine.steps(), 2U);
}

TEST(Engine, IncrementalLeaderCountMatchesRecount) {
    Engine<Angluin> engine(Angluin{}, 50, 3);
    for (int i = 0; i < 2000; ++i) {
        engine.step();
        if (i % 100 == 0) {
            const std::size_t incremental = engine.leader_count();
            EXPECT_EQ(incremental, engine.recount_leaders());
        }
    }
}

TEST(Engine, AppliesRecordedSchedule) {
    RecordedSchedule schedule;
    schedule.append(0, 1);
    schedule.append(0, 2);
    schedule.append(0, 3);
    Engine<Angluin> engine(Angluin{}, 4, 1);
    engine.apply(schedule);
    EXPECT_EQ(engine.leader_count(), 1U);
    EXPECT_EQ(engine.steps(), 3U);
    EXPECT_EQ(*engine.stabilization_step(), 3U);
}

TEST(Engine, RunUntilOneLeaderConverges) {
    Engine<Angluin> engine(Angluin{}, 64, 7);
    const RunResult result = engine.run_until_one_leader(1'000'000);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.leader_count, 1U);
    ASSERT_TRUE(result.stabilization_step.has_value());
    EXPECT_GT(*result.stabilization_step, 0U);
    EXPECT_DOUBLE_EQ(result.parallel_time, static_cast<double>(result.steps) / 64.0);
}

TEST(Engine, RunUntilHonoursBudget) {
    Engine<Angluin> engine(Angluin{}, 256, 7);
    const RunResult result = engine.run_until_one_leader(10);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.steps, 10U);
    EXPECT_GT(result.leader_count, 1U);
}

TEST(Engine, RunUntilCustomPredicate) {
    Engine<Angluin> engine(Angluin{}, 64, 9);
    const RunResult result = engine.run_until(
        1'000'000, [](const Engine<Angluin>& e) { return e.leader_count() <= 32; });
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.leader_count, 32U);
}

TEST(Engine, StabilityVerificationHoldsAfterConvergence) {
    Engine<Angluin> engine(Angluin{}, 32, 11);
    ASSERT_TRUE(engine.run_until_one_leader(1'000'000).converged);
    EXPECT_TRUE(engine.verify_outputs_stable(50'000));
    EXPECT_EQ(engine.leader_count(), 1U);
}

TEST(Engine, EqualSeedsGiveIdenticalExecutions) {
    Engine<Angluin> a(Angluin{}, 128, 42);
    Engine<Angluin> b(Angluin{}, 128, 42);
    const RunResult ra = a.run_until_one_leader(10'000'000);
    const RunResult rb = b.run_until_one_leader(10'000'000);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.stabilization_step, rb.stabilization_step);
}

TEST(Engine, DistinctSeedsDiverge) {
    const RunResult ra = simulate_to_single_leader(Angluin{}, 128, 1, 10'000'000);
    const RunResult rb = simulate_to_single_leader(Angluin{}, 128, 2, 10'000'000);
    EXPECT_TRUE(ra.converged);
    EXPECT_TRUE(rb.converged);
    EXPECT_NE(ra.stabilization_step, rb.stabilization_step);  // astronomically unlikely
}

TEST(Engine, StabilizationParallelTimeIsNanWithoutConvergence) {
    Engine<Angluin> engine(Angluin{}, 256, 5);
    const RunResult result = engine.run_until_one_leader(5);
    EXPECT_TRUE(std::isnan(result.stabilization_parallel_time(256)));
}

}  // namespace
}  // namespace ppsim
