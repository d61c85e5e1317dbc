// Boundary tests for the time-driven observers (src/core/observer.hpp):
// DeadlineObserver (one-shot model-time census) and TimedSnapshotRecorder
// (full censuses at a list of model-time points), across the engines.
//
// The load-bearing property is *exact* deadline placement: the run layer
// slices the step budget at observer deadlines and every engine clamps its
// rounds (batches, leaps, geometric skips) to the requested chunk, so a
// deadline at step k observes the configuration after exactly k
// interactions — on the agent, batched and gillespie back-ends alike. The
// boundary cases pinned here: a deadline before the first interaction
// (model time 0), a deadline landing exactly on a step inside a run, and a
// deadline past stabilisation (the run ends first; finish() reports the
// absorbing final configuration with reached_deadline = false).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/observer.hpp"
#include "core/simulation.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

const std::vector<EngineKind> kEngines = {EngineKind::agent, EngineKind::batched,
                                          EngineKind::gillespie};

TEST(DeadlineObserver, DeadlineBeforeFirstEventReportsInitialConfiguration) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 128;
    for (const EngineKind engine : kEngines) {
        const auto sim = registry.make_simulation("angluin06", n, 7, engine);
        DeadlineObserver deadline(/*model_time=*/0.0, n);
        EXPECT_EQ(deadline.deadline_step(), 0U);
        sim->add_observer(deadline);
        const RunResult r = sim->run_until_one_leader(1'000'000);
        ASSERT_TRUE(r.converged) << to_string(engine);
        ASSERT_TRUE(deadline.report().has_value()) << to_string(engine);
        const DeadlineReport& report = *deadline.report();
        EXPECT_EQ(report.step, 0U) << to_string(engine);
        EXPECT_EQ(report.leader_count, n) << to_string(engine);  // all start leaders
        EXPECT_EQ(report.live_states, 1U) << to_string(engine);
        EXPECT_TRUE(report.reached_deadline) << to_string(engine);
        EXPECT_FALSE(report.stabilized) << to_string(engine);
        EXPECT_EQ(deadline.next_due(), SimulationObserver::no_deadline);
    }
}

TEST(DeadlineObserver, LandsExactlyOnItsStepOnEveryEngine) {
    // Mid-run deadline: the report's step must equal the deadline step
    // exactly — batches, leaps and geometric null-skips all clamp to it.
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 256;
    const StepCount target = 1000;
    for (const EngineKind engine : kEngines) {
        const auto sim = registry.make_simulation("lottery", n, 11, engine);
        DeadlineObserver deadline = DeadlineObserver::at_step(target);
        sim->add_observer(deadline);
        (void)sim->run_for(5000);
        ASSERT_TRUE(deadline.report().has_value()) << to_string(engine);
        const DeadlineReport& report = *deadline.report();
        EXPECT_EQ(report.step, target) << to_string(engine);
        EXPECT_TRUE(report.reached_deadline) << to_string(engine);
    }
}

TEST(DeadlineObserver, ModelTimeConvertsByCeilingTimesPopulation) {
    DeadlineObserver half(0.5, 1000);
    EXPECT_EQ(half.deadline_step(), 500U);
    DeadlineObserver frac(0.0015, 1000);
    EXPECT_EQ(frac.deadline_step(), 2U);  // ⌈1.5⌉
}

TEST(DeadlineObserver, DeadlinePastStabilizationReportsFinalAbsorbingState) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 64;
    for (const EngineKind engine : kEngines) {
        const auto sim = registry.make_simulation("angluin06", n, 3, engine);
        // Far beyond the Θ(n) stabilisation time: the run ends first.
        DeadlineObserver deadline(/*model_time=*/1e6, n);
        sim->add_observer(deadline);
        const RunResult r = sim->run_until_one_leader(50'000'000);
        ASSERT_TRUE(r.converged) << to_string(engine);
        ASSERT_TRUE(deadline.report().has_value()) << to_string(engine);
        const DeadlineReport& report = *deadline.report();
        EXPECT_FALSE(report.reached_deadline) << to_string(engine);
        EXPECT_TRUE(report.stabilized) << to_string(engine);
        EXPECT_EQ(report.leader_count, 1U) << to_string(engine);
        EXPECT_LT(report.step, deadline.deadline_step()) << to_string(engine);
    }
}

TEST(DeadlineObserver, CensusAgreesAcrossEnginesInExpectation) {
    // At a fixed model time mid-election the surviving-candidate census of
    // angluin06 is a time-sensitive quantity: an engine that mis-counts
    // steps or parallel time moves it, so the engine means must agree.
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 512;
    const int reps = 24;
    const double time = 2.0;
    std::vector<double> means;
    for (const EngineKind engine : kEngines) {
        double total = 0.0;
        for (int rep = 0; rep < reps; ++rep) {
            const auto sim = registry.make_simulation(
                "angluin06", n, derive_seed(900 + rep, static_cast<std::uint64_t>(engine)),
                engine);
            DeadlineObserver deadline(time, n);
            sim->add_observer(deadline);
            (void)sim->run_until_one_leader(50'000'000);
            ASSERT_TRUE(deadline.report().has_value());
            total += static_cast<double>(deadline.report()->leader_count);
        }
        means.push_back(total / reps);
    }
    for (std::size_t i = 1; i < means.size(); ++i) {
        EXPECT_NEAR(means[i], means[0], 0.15 * means[0])
            << to_string(kEngines[i]) << " vs " << to_string(kEngines[0]);
    }
}

TEST(TimedSnapshotRecorder, CapturesEachPointAtItsExactStep) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 256;
    for (const EngineDescriptor& d : engine_table) {
        const auto sim = registry.make_simulation("lottery", n, 5, d.kind);
        TimedSnapshotRecorder recorder({0.0, 0.5, 2.0}, n);
        sim->add_observer(recorder);
        (void)sim->run_for(static_cast<StepCount>(n) * 4);
        ASSERT_EQ(recorder.captured_count(), 3U) << d.name;
        const std::vector<TimedSnapshot>& snaps = recorder.snapshots();
        EXPECT_EQ(snaps[0].snapshot.step, 0U) << d.name;
        EXPECT_EQ(snaps[1].snapshot.step, n / 2) << d.name;
        EXPECT_EQ(snaps[2].snapshot.step, 2 * n) << d.name;
        for (const TimedSnapshot& entry : snaps) {
            EXPECT_TRUE(entry.reached) << d.name;
            EXPECT_EQ(entry.snapshot.total(), n) << d.name;
        }
        // A census's leader tally matches the engine's incremental count.
        EXPECT_EQ(snaps[0].snapshot.leaders(), n) << d.name;
        EXPECT_EQ(sim->state_counts().leaders(), sim->leader_count()) << d.name;
    }
}

TEST(TimedSnapshotRecorder, FillsUnreachedPointsAtRunEnd) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 64;
    const auto sim = registry.make_simulation("angluin06", n, 13, EngineKind::batched);
    TimedSnapshotRecorder recorder({0.5, 1e7}, n);
    sim->add_observer(recorder);
    const RunResult r = sim->run_until_one_leader(50'000'000);
    ASSERT_TRUE(r.converged);
    ASSERT_EQ(recorder.captured_count(), 2U);
    EXPECT_TRUE(recorder.snapshots()[0].reached);
    EXPECT_FALSE(recorder.snapshots()[1].reached);  // run stabilised first
    EXPECT_EQ(recorder.snapshots()[1].snapshot.leaders(), 1U);
    EXPECT_EQ(recorder.snapshots()[1].snapshot.total(), n);
}

TEST(TimedSnapshotRecorder, DuplicatePointsShareOneCensus) {
    const std::size_t n = 128;
    const auto sim = ProtocolRegistry::instance().make_simulation(
        "angluin06", n, 17, EngineKind::gillespie);
    TimedSnapshotRecorder recorder({1.0, 1.0}, n);
    sim->add_observer(recorder);
    (void)sim->run_for(static_cast<StepCount>(n) * 2);
    ASSERT_EQ(recorder.captured_count(), 2U);
    EXPECT_EQ(recorder.snapshots()[0].snapshot.step, recorder.snapshots()[1].snapshot.step);
    EXPECT_EQ(recorder.snapshots()[0].snapshot.counts.size(),
              recorder.snapshots()[1].snapshot.counts.size());
}

TEST(TimedSnapshotRecorder, WritesLongFormCsv) {
    const std::size_t n = 64;
    const auto sim = ProtocolRegistry::instance().make_simulation(
        "angluin06", n, 19, EngineKind::batched);
    TimedSnapshotRecorder recorder({0.0}, n);
    sim->add_observer(recorder);
    (void)sim->run_for(4);
    std::ostringstream out;
    recorder.write_csv(out);
    const std::string csv = out.str();
    EXPECT_NE(csv.find("requested_time,step,state_key,count,role"), std::string::npos);
    EXPECT_NE(csv.find("0,0,1,64,leader"), std::string::npos);  // all-leader census
}

TEST(RunSweep, AggregatesDeadlineCensusAcrossRepetitions) {
    SweepConfig config;
    config.protocol = "lottery";
    config.sizes = {128};
    config.repetitions = 6;
    config.seed = 0xDEAD;
    config.engine = EngineKind::gillespie;
    config.deadline_time = 1.0;
    const SweepResult sweep = run_sweep(config);
    ASSERT_EQ(sweep.points.size(), 1U);
    const SweepPoint& point = sweep.points.front();
    EXPECT_EQ(point.deadline_leaders.count(), 6U);
    EXPECT_GE(point.deadline_leaders.mean(), 1.0);
    EXPECT_LE(point.deadline_stabilized, point.repetitions);
}

}  // namespace
}  // namespace ppsim
