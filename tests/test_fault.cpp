// Fault-injection tests: spec parsing, exact count surgery on every engine,
// boundary cases (t=0, post-stabilisation faults, crash to n=2), silence
// windows, seeded determinism of post-fault streams, recovery measurement,
// and golden-seed pins of whole chaos scenarios per engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/scenario.hpp"
#include "core/batched_engine.hpp"
#include "core/engine.hpp"
#include "core/fault.hpp"
#include "core/gillespie_engine.hpp"
#include "core/observer.hpp"
#include "core/simulation.hpp"
#include "protocols/lottery.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

constexpr std::array<EngineKind, 3> kEngines = {EngineKind::agent, EngineKind::batched,
                                                EngineKind::gillespie};

std::unique_ptr<Simulation> make_lottery(std::size_t n, std::uint64_t seed,
                                         EngineKind kind) {
    return ProtocolRegistry::instance().make_simulation("lottery", n, seed, kind);
}

// --- spec parsing -----------------------------------------------------------

TEST(FaultSpec, ParsesEveryActionForm) {
    const TimedFault crash_frac = parse_fault_spec("t=5:crash=0.3");
    EXPECT_DOUBLE_EQ(crash_frac.time, 5.0);
    EXPECT_EQ(crash_frac.action.kind, FaultKind::crash);
    EXPECT_DOUBLE_EQ(crash_frac.action.fraction, 0.3);
    EXPECT_EQ(crash_frac.action.count, 0U);

    const TimedFault crash_count = parse_fault_spec("t=2:crash=10");
    EXPECT_EQ(crash_count.action.count, 10U);
    EXPECT_DOUBLE_EQ(crash_count.action.fraction, 0.0);

    const TimedFault rejoin = parse_fault_spec("t=0:rejoin=4");
    EXPECT_DOUBLE_EQ(rejoin.time, 0.0);
    EXPECT_EQ(rejoin.action.kind, FaultKind::rejoin);
    EXPECT_EQ(rejoin.action.count, 4U);

    const TimedFault reset = parse_fault_spec("t=1.5:reset=0.25");
    EXPECT_EQ(reset.action.kind, FaultKind::reset);
    EXPECT_DOUBLE_EQ(reset.action.fraction, 0.25);

    const TimedFault silence = parse_fault_spec("t=3:silence=0.75");
    EXPECT_EQ(silence.action.kind, FaultKind::silence);
    EXPECT_DOUBLE_EQ(silence.action.duration, 0.75);
    // An integer silence value is a duration, not a count.
    EXPECT_DOUBLE_EQ(parse_fault_spec("t=3:silence=2").action.duration, 2.0);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
    EXPECT_THROW((void)parse_fault_spec("bogus"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("time=1:crash=0.5"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:crash"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:crash="), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:explode=0.5"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=-1:crash=0.5"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=x:crash=0.5"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:crash=zero"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:crash=0"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:crash=1.5"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:rejoin=0.5"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:rejoin=0"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:silence=0"), InvalidArgument);
    // Partial parses and sign wrap-around must fail, not run a different plan.
    EXPECT_THROW((void)parse_fault_spec("t=1:crash=3x"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1x:crash=0.5"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:rejoin=-5"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=1:crash=0.5e"), InvalidArgument);
    EXPECT_THROW((void)parse_fault_spec("t=nan:crash=0.5"), InvalidArgument);
}

TEST(FaultSpec, ResolvesCountsAgainstThePopulation) {
    EXPECT_EQ(resolve_fault_count(FaultAction::crash_count(7), 100), 7U);
    EXPECT_EQ(resolve_fault_count(FaultAction::crash_fraction(0.5), 100), 50U);
    EXPECT_EQ(resolve_fault_count(FaultAction::reset_fraction(0.3), 10), 3U);
    // Tiny fractions floor at one agent.
    EXPECT_EQ(resolve_fault_count(FaultAction::crash_fraction(0.001), 100), 1U);
    // A crash leaves at least the two agents an interaction needs; a reset
    // may touch every agent.
    EXPECT_EQ(resolve_fault_count(FaultAction::crash_fraction(1.0), 32), 30U);
    EXPECT_EQ(resolve_fault_count(FaultAction::crash_count(5), 3), 1U);
    EXPECT_EQ(resolve_fault_count(FaultAction::crash_count(1), 2), 0U);
    EXPECT_EQ(resolve_fault_count(FaultAction::crash_fraction(0.001), 2), 0U);
    EXPECT_EQ(resolve_fault_count(FaultAction::reset_fraction(1.0), 32), 32U);
    EXPECT_EQ(resolve_fault_count(FaultAction::reset_count(50), 32), 32U);
}

// --- count surgery ----------------------------------------------------------

/// Census invariants after surgery, via the type-erased snapshot: totals
/// conserve the expected population and the leader census matches the
/// engine's incremental count.
void expect_census_consistent(Simulation& sim, std::uint64_t expected_total) {
    const ConfigurationSnapshot census = sim.state_counts();
    EXPECT_EQ(census.total(), expected_total);
    EXPECT_EQ(census.leaders(), sim.leader_count());
    EXPECT_EQ(sim.population_size(), expected_total);
}

TEST(FaultSurgery, CrashRejoinResetConserveCountsOnEveryEngine) {
    const std::size_t n = 100;
    for (const EngineKind kind : kEngines) {
        SCOPED_TRACE(to_string(kind));
        const auto sim = make_lottery(n, 905, kind);
        FaultPlan plan;
        plan.add(0.5, FaultAction::crash_fraction(0.3));  // 100 → 70
        plan.add(1.0, FaultAction::rejoin_count(25));     // 70 → 95
        plan.add(1.5, FaultAction::reset_fraction(0.1));  // 95 agents, 10 reset
        sim->set_fault_plan(plan);
        ASSERT_EQ(sim->fault_count(), 3U);

        (void)sim->run_for(n / 2);  // past t=0.5
        EXPECT_EQ(sim->faults_applied(), 1U);
        expect_census_consistent(*sim, 70);

        (void)sim->run_for(n);  // past t=1.0 and t=1.5
        EXPECT_EQ(sim->faults_applied(), 3U);
        expect_census_consistent(*sim, 95);
    }
}

TEST(FaultSurgery, RejoinReopensTheRace) {
    // Lottery's initial state is a fresh contender: after stabilising on one
    // leader, a rejoin wave must raise the leader count again.
    const std::size_t n = 64;
    for (const EngineKind kind : kEngines) {
        SCOPED_TRACE(to_string(kind));
        const auto sim = make_lottery(n, 906, kind);
        const RunResult settled =
            sim->run_until_one_leader(StepBudget::n_squared(n, 50.0));
        ASSERT_TRUE(settled.converged);
        // Engine-level rejoin, mid-run: the Simulation plan path is covered
        // above; this pins the action semantics themselves.
        FaultPlan plan;  // (not attachable mid-run — assert that contract too)
        plan.add(0.0, FaultAction::rejoin_count(8));
        EXPECT_THROW(sim->set_fault_plan(plan), InvalidArgument);
    }
    for (const EngineKind kind : kEngines) {
        SCOPED_TRACE(to_string(kind));
        const auto sim = make_lottery(n, 906, kind);
        FaultPlan plan;
        plan.add(30.0, FaultAction::rejoin_count(8));  // far past stabilisation
        sim->set_fault_plan(plan);
        (void)sim->run_for(30 * n);
        EXPECT_EQ(sim->faults_applied(), 1U);
        EXPECT_EQ(sim->population_size(), n + 8);
        EXPECT_GE(sim->leader_count(), 1U);
        expect_census_consistent(*sim, n + 8);
    }
}

// --- boundary cases ---------------------------------------------------------

TEST(FaultBoundary, TimeZeroFaultAppliesBeforeTheFirstInteraction) {
    const std::size_t n = 90;
    for (const EngineKind kind : kEngines) {
        SCOPED_TRACE(to_string(kind));
        const auto sim = make_lottery(n, 907, kind);
        FaultPlan plan;
        plan.add(0.0, FaultAction::crash_count(10));
        sim->set_fault_plan(plan);
        (void)sim->run_for(0);  // zero budget still fires due faults
        EXPECT_EQ(sim->faults_applied(), 1U);
        EXPECT_EQ(sim->steps(), 0U);
        expect_census_consistent(*sim, n - 10);
    }
}

TEST(FaultBoundary, FaultAfterStabilizationForcesReelection) {
    const std::size_t n = 64;
    const double fault_time = 50.0;  // well past lottery's typical ~12
    for (const EngineKind kind : kEngines) {
        SCOPED_TRACE(to_string(kind));
        const auto sim = make_lottery(n, 908, kind);
        FaultPlan plan;
        plan.add(fault_time, FaultAction::reset_fraction(0.5));
        sim->set_fault_plan(plan);
        const RunResult run =
            sim->run_until_one_leader(StepBudget::n_squared(n, 50.0));
        // The run may not stop at the pre-fault stabilisation: the fault
        // must fire, and the election settle again afterwards.
        ASSERT_TRUE(run.converged);
        EXPECT_EQ(sim->faults_applied(), 1U);
        ASSERT_TRUE(sim->stabilization_step().has_value());
        EXPECT_GE(*sim->stabilization_step(),
                  model_time_to_step(fault_time, n));
        EXPECT_EQ(sim->leader_count(), 1U);
    }
}

TEST(FaultBoundary, CrashLeavesTwoAgents) {
    const std::size_t n = 32;
    for (const EngineDescriptor& engine : engine_table) {
        SCOPED_TRACE(engine.name);
        const auto sim = make_lottery(n, 909, engine.kind);
        FaultPlan plan;
        plan.add(1.0, FaultAction::crash_fraction(1.0));  // resolves to n − 2 victims
        plan.add(3.0, FaultAction::crash_count(5));       // removes no one at n = 2
        sim->set_fault_plan(plan);
        const StepCount budget = 2 * static_cast<StepCount>(n);
        (void)sim->run_for(budget);
        EXPECT_EQ(sim->faults_applied(), 1U);
        EXPECT_EQ(sim->population_size(), 2U);
        EXPECT_EQ(sim->state_counts().total(), 2U);
        EXPECT_EQ(sim->steps(), budget);  // two agents still interact
        EXPECT_LE(sim->leader_count(), 2U);

        (void)sim->run_for(budget);
        EXPECT_EQ(sim->faults_applied(), 2U);
        EXPECT_EQ(sim->population_size(), 2U);
        EXPECT_EQ(sim->state_counts().total(), 2U);
        EXPECT_EQ(sim->steps(), 2 * budget);
        EXPECT_LE(sim->leader_count(), 2U);
    }
}

TEST(FaultBoundary, SilenceFreezesTheConfigurationWhileTimePasses) {
    const std::size_t n = 100;
    for (const EngineKind kind : kEngines) {
        SCOPED_TRACE(to_string(kind));
        const auto sim = make_lottery(n, 910, kind);
        FaultPlan plan;
        plan.add(1.0, FaultAction::transient_silence(1.0));
        sim->set_fault_plan(plan);
        (void)sim->run_for(n);  // exactly to the silence window
        EXPECT_EQ(sim->faults_applied(), 1U);
        const ConfigurationSnapshot at_start = sim->state_counts();
        (void)sim->run_for(n / 2);  // inside the window: nothing may react
        EXPECT_EQ(sim->steps(), n + n / 2);
        const ConfigurationSnapshot frozen = sim->state_counts();
        ASSERT_EQ(frozen.counts.size(), at_start.counts.size());
        for (std::size_t i = 0; i < frozen.counts.size(); ++i) {
            EXPECT_EQ(frozen.counts[i].key, at_start.counts[i].key);
            EXPECT_EQ(frozen.counts[i].count, at_start.counts[i].count);
        }
        (void)sim->run_for(n);  // leaves the window and reacts again
        EXPECT_EQ(sim->steps(), 2 * n + n / 2);
    }
}

// --- determinism ------------------------------------------------------------

ConfigurationSnapshot run_with_plan(std::size_t n, std::uint64_t seed,
                                    EngineKind kind, const FaultPlan& plan,
                                    StepCount budget, RunResult& out) {
    const auto sim = make_lottery(n, seed, kind);
    sim->set_fault_plan(plan);
    out = sim->run_until_one_leader(budget);
    return sim->state_counts();
}

TEST(FaultDeterminism, SameSeedAndPlanReplayIdentically) {
    const std::size_t n = 128;
    FaultPlan plan;
    plan.add(2.0, FaultAction::crash_fraction(0.3));
    plan.add(5.0, FaultAction::rejoin_count(38));
    plan.add(8.0, FaultAction::reset_fraction(0.15));
    const StepCount budget = StepBudget::n_squared(n, 50.0);
    for (const EngineKind kind : kEngines) {
        SCOPED_TRACE(to_string(kind));
        RunResult first_run;
        RunResult second_run;
        const ConfigurationSnapshot a = run_with_plan(n, 911, kind, plan, budget,
                                                      first_run);
        const ConfigurationSnapshot b = run_with_plan(n, 911, kind, plan, budget,
                                                      second_run);
        EXPECT_EQ(first_run.steps, second_run.steps);
        EXPECT_EQ(first_run.converged, second_run.converged);
        ASSERT_EQ(a.counts.size(), b.counts.size());
        for (std::size_t i = 0; i < a.counts.size(); ++i) {
            EXPECT_EQ(a.counts[i].key, b.counts[i].key);
            EXPECT_EQ(a.counts[i].count, b.counts[i].count);
        }
    }
}

TEST(FaultDeterminism, AgentEngineFaultRunIsSliceInvariant) {
    // The agent engine advances one interaction at a time, so chunking the
    // run differently must not change the post-fault stream. (The count
    // engines legitimately resample per requested round, so slice
    // invariance is an agent-engine property.)
    const std::size_t n = 96;
    FaultPlan plan;
    plan.add(1.0, FaultAction::crash_fraction(0.25));
    plan.add(3.0, FaultAction::rejoin_count(12));
    const StepCount total = 8 * static_cast<StepCount>(n);

    const auto one_shot = make_lottery(n, 912, EngineKind::agent);
    one_shot->set_fault_plan(plan);
    (void)one_shot->run_for(total);

    const auto sliced = make_lottery(n, 912, EngineKind::agent);
    sliced->set_fault_plan(plan);
    for (StepCount done = 0; done < total; done += 37) {
        (void)sliced->run_for(std::min<StepCount>(37, total - done));
    }
    EXPECT_EQ(one_shot->steps(), sliced->steps());
    const ConfigurationSnapshot a = one_shot->state_counts();
    const ConfigurationSnapshot b = sliced->state_counts();
    ASSERT_EQ(a.counts.size(), b.counts.size());
    for (std::size_t i = 0; i < a.counts.size(); ++i) {
        EXPECT_EQ(a.counts[i].key, b.counts[i].key);
        EXPECT_EQ(a.counts[i].count, b.counts[i].count);
    }
}

// --- recovery measurement ---------------------------------------------------

TEST(RecoveryObserver, MeasuresTimeToRestabilization) {
    const std::size_t n = 64;
    const auto sim = make_lottery(n, 913, EngineKind::agent);
    FaultPlan plan;
    plan.add(2.0, FaultAction::crash_fraction(0.3));
    plan.add(40.0, FaultAction::reset_fraction(0.25));
    plan.add(41.0, FaultAction::transient_silence(0.5));  // no recovery record
    sim->set_fault_plan(plan);
    RecoveryObserver recovery(n);
    sim->add_observer(recovery);
    const RunResult run = sim->run_until_one_leader(StepBudget::n_squared(n, 80.0));
    ASSERT_TRUE(run.converged);
    ASSERT_EQ(recovery.records().size(), 2U);  // silence excluded
    for (const RecoveryRecord& record : recovery.records()) {
        ASSERT_TRUE(record.recovery_step.has_value());
        EXPECT_GE(*record.recovery_step, record.fault_step);
        const auto span = record.recovery_time(n);
        ASSERT_TRUE(span.has_value());
        EXPECT_GE(*span, 0.0);
    }
    EXPECT_DOUBLE_EQ(recovery.records()[0].fault_time, 2.0);
    EXPECT_DOUBLE_EQ(recovery.records()[1].fault_time, 40.0);
    EXPECT_EQ(recovery.records()[0].fault_step, model_time_to_step(2.0, n));
}

TEST(RecoveryObserver, UnrecoveredFaultStaysOpenOnBudgetExhaustion) {
    const std::size_t n = 64;
    const auto sim = make_lottery(n, 914, EngineKind::agent);
    FaultPlan plan;
    plan.add(0.5, FaultAction::crash_fraction(0.2));
    sim->set_fault_plan(plan);
    RecoveryObserver recovery(n);
    sim->add_observer(recovery);
    // A budget too small to re-stabilise: the record must stay open.
    const RunResult run = sim->run_until_one_leader(n);
    EXPECT_FALSE(run.converged);
    ASSERT_EQ(recovery.records().size(), 1U);
    EXPECT_FALSE(recovery.records()[0].recovery_step.has_value());
}

TEST(RecoverySweep, AggregatesRecoveryAcrossRepetitions) {
    SweepConfig config;
    config.protocol = "lottery";
    config.sizes = {64};
    config.repetitions = 4;
    config.seed = 915;
    config.engine = EngineKind::batched;
    config.budget = [](std::size_t n) { return StepBudget::n_squared(n, 50.0); };
    config.fault_plan.add(2.0, FaultAction::crash_fraction(0.3));
    config.fault_plan.add(5.0, FaultAction::rejoin_count(19));
    const SweepResult sweep = run_sweep(config);
    ASSERT_EQ(sweep.points.size(), 1U);
    const SweepPoint& point = sweep.points[0];
    EXPECT_EQ(point.recovery_rows.size(), 2U * config.repetitions);
    EXPECT_EQ(point.recovery_events + point.unrecovered_faults,
              point.recovery_rows.size());
    for (std::size_t i = 1; i < point.recovery_rows.size(); ++i) {
        const RecoveryRow& prev = point.recovery_rows[i - 1];
        const RecoveryRow& row = point.recovery_rows[i];
        EXPECT_TRUE(prev.rep < row.rep ||
                    (prev.rep == row.rep && prev.fault_index < row.fault_index));
    }
}

TEST(RunSweep, RethrowsARepetitionsErrorAfterEveryRepetitionStops) {
    // Eight concurrent repetitions each try to rejoin 2^64 - 1 agents at
    // t = 1, past the agent engine's ceiling: the sweep must fail on its
    // caller with that error, not abort or outlive its configuration.
    SweepConfig config;
    config.protocol = "lottery";
    config.sizes = {256};
    config.repetitions = 8;
    config.seed = 7;
    config.threads = 0;
    config.engine = EngineKind::agent;
    config.fault_plan.add(1.0, FaultAction::rejoin_count(~std::uint64_t{0}));
    try {
        (void)run_sweep(config);
        FAIL() << "a rejoin past the agent ceiling must throw";
    } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("holds at most 2^32 - 1 agents"),
                  std::string::npos)
            << e.what();
    }
}

// --- golden-seed pins -------------------------------------------------------

// Exact stabilisation steps of the registered chaos scenarios, one cell per
// (scenario, engine), all at n = 128 / seed = 2019 / budget 50n². These pin
// the full fault pipeline — plan resolution, step anchoring, count surgery,
// fault-stream draws — on every engine: any change to fault semantics shows
// up as a changed constant and must be updated deliberately (same policy as
// test_golden_seeds.cpp; values assume glibc libm).
struct FaultGoldenCell {
    const char* scenario;
    EngineKind engine;
    StepCount stabilization_step;
};

constexpr std::array<FaultGoldenCell, 6> kFaultGoldenCells = {{
    {"churn_election", EngineKind::agent, 1752},
    {"churn_election", EngineKind::batched, 1973},
    {"churn_election", EngineKind::gillespie, 2070},
    {"reset_epidemic", EngineKind::agent, 8745},
    {"reset_epidemic", EngineKind::batched, 21735},
    {"reset_epidemic", EngineKind::gillespie, 9777},
}};

TEST(FaultGoldenSeeds, ScenarioStreamsAreBitStable) {
    const std::size_t n = 128;
    for (const FaultGoldenCell& cell : kFaultGoldenCells) {
        SCOPED_TRACE(std::string(cell.scenario) + "/" +
                     std::string(to_string(cell.engine)));
        const ChaosScenario& scenario = find_chaos_scenario(cell.scenario);
        const auto sim = ProtocolRegistry::instance().make_simulation(
            scenario.protocol, n, 2019, cell.engine);
        sim->set_fault_plan(scenario.make_plan(n));
        const RunResult run =
            sim->run_until_one_leader(StepBudget::n_squared(n, 50.0));
        ASSERT_TRUE(run.converged);
        ASSERT_TRUE(sim->stabilization_step().has_value());
        EXPECT_EQ(*sim->stabilization_step(), cell.stabilization_step);
    }
}

}  // namespace
}  // namespace ppsim
