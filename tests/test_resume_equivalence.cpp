// Resume-equivalence tests: the checkpoint/resume correctness contract
// (docs/ARCHITECTURE.md "Checkpoint format & resume-equivalence contract").
//
// The contract: checkpoint a run at step k, rebuild the simulation from the
// checkpoint, and the continued run is *bit-identical* to the uninterrupted
// run at the same seed — same census, same counters, and
// (the strongest form checked here) the same serialised run state byte for
// byte, which pins every PRNG stream position, the interned state-id order,
// the fault-plan progress and every observer's recorded history.
//
// Pausing is part of the stream contract: stopping a count engine at step k
// clamps a round there, so the "uninterrupted" reference below is the *same*
// simulation object pausing at the same k (write_checkpoint is const —
// taking the checkpoint never perturbs the run) and then continuing
// in-process, while the resumed run continues from a freshly constructed
// simulation restored from the file.
//
// Grid cells run every engine (agent, batched, gillespie, hybrid);
// leap-regime cases resume a τ-leaping gillespie engine (including its
// separable leaps) and restore into an engine that ran another seed;
// dedicated cases cover hybrid mid-switch checkpoints (a forced engine handoff before the checkpoint),
// checkpoints taken mid-fault-plan (inside a silence window, with faults
// both applied and pending), periodic-cadence checkpoints, observer
// progress across the resume boundary (DeadlineObserver fires exactly once,
// RecoveryObserver resolves identically), and loud rejection of mismatched
// resumes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>

#include "core/engine.hpp"
#include "core/fault.hpp"
#include "core/gillespie_engine.hpp"
#include "core/observer.hpp"
#include "core/persist.hpp"
#include "core/simulation.hpp"
#include "protocols/pll.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
}

/// The full serialised run state — every PRNG position, the census, the
/// counters, the fault progress and all observer payloads.
std::string full_state(const Simulation& sim) {
    CheckpointWriter w;
    sim.save_checkpoint(w);
    return w.take();
}

/// The resumed run must be indistinguishable from the reference: readable
/// field comparisons first (so a failure names what diverged), then the
/// byte-for-byte claim over the complete serialised state.
void expect_same_run_state(const Simulation& resumed, const Simulation& reference) {
    EXPECT_EQ(resumed.steps(), reference.steps());
    EXPECT_EQ(resumed.leader_count(), reference.leader_count());
    EXPECT_EQ(resumed.stabilization_step(), reference.stabilization_step());
    EXPECT_EQ(resumed.population_size(), reference.population_size());
    const ConfigurationSnapshot a = resumed.state_counts();
    const ConfigurationSnapshot b = reference.state_counts();
    ASSERT_EQ(a.counts.size(), b.counts.size()) << "census width diverged";
    for (std::size_t i = 0; i < a.counts.size(); ++i) {
        EXPECT_EQ(a.counts[i].key, b.counts[i].key) << "census entry " << i;
        EXPECT_EQ(a.counts[i].count, b.counts[i].count) << "census entry " << i;
        EXPECT_EQ(a.counts[i].role, b.counts[i].role) << "census entry " << i;
    }
    EXPECT_EQ(full_state(resumed), full_state(reference))
        << "serialised run states differ: a PRNG stream, id order or counter "
           "diverged after resume";
}

// --- the protocol × engine grid ---------------------------------------------

struct ResumeCell {
    const char* protocol;
    EngineKind engine;
    StepCount pause;  // the step the checkpoint is taken at
};

/// Prints a cell as "pll/agent@500". gtest appends this text to each
/// discovered test id; without a printer it would append the struct's raw
/// bytes, which start with the run-time address of the protocol name.
void PrintTo(const ResumeCell& cell, std::ostream* os) {
    *os << cell.protocol << "/" << to_string(cell.engine) << "@" << cell.pause;
}

// All cells: n = 128, seed = 2019, pause at step 500, budget 50·n².
constexpr ResumeCell resume_cells[] = {
    {"pll", EngineKind::agent, 500},
    {"pll", EngineKind::batched, 500},
    {"pll", EngineKind::gillespie, 500},
    {"pll", EngineKind::hybrid, 500},
    {"lottery", EngineKind::agent, 500},
    {"lottery", EngineKind::batched, 500},
    {"lottery", EngineKind::gillespie, 500},
    {"lottery", EngineKind::hybrid, 500},
    {"angluin06", EngineKind::agent, 500},
    {"angluin06", EngineKind::batched, 500},
    // Continues through the hybrid engine's first evaluation (step 16384),
    // where the rule hands the run from agent to gillespie.
    {"angluin06", EngineKind::hybrid, 500},
};

class ResumeEquivalence : public ::testing::TestWithParam<ResumeCell> {};

TEST_P(ResumeEquivalence, ContinuedRunIsBitIdentical) {
    const ResumeCell& cell = GetParam();

    const std::size_t n = 128;
    const std::uint64_t seed = 2019;
    const StepCount pause = cell.pause;
    const auto budget = static_cast<StepCount>(n) * n * 50;
    const ProtocolRegistry& registry = ProtocolRegistry::instance();

    const auto reference = registry.make_simulation(cell.protocol, n, seed, cell.engine);
    (void)reference->run_for(pause);

    const std::string path = temp_path(std::string("ppsim_resume_") + cell.protocol + "_" +
                                       std::string(to_string(cell.engine)) + ".ppck");
    reference->write_checkpoint(path);

    const auto resumed = registry.resume_simulation(path);
    EXPECT_EQ(resumed->steps(), pause);
    expect_same_run_state(*resumed, *reference);  // identical at the checkpoint

    (void)reference->run_until_one_leader(budget);
    (void)resumed->run_until_one_leader(budget);
    expect_same_run_state(*resumed, *reference);  // and after continuing
    std::filesystem::remove(path);
}

std::string cell_name(const ::testing::TestParamInfo<ResumeCell>& info) {
    return std::string(info.param.protocol) + "_" + std::string(to_string(info.param.engine));
}

INSTANTIATE_TEST_SUITE_P(Cells, ResumeEquivalence, ::testing::ValuesIn(resume_cells),
                         cell_name);

// --- the τ-leap regime ------------------------------------------------------

// The grid above runs below GillespieEngine::leap_min_population, where the
// gillespie engine is an exact SSA. These cases resume a τ-leaping engine:
// pll at 2^20 on a seed whose election waits for the count-up timer
// (stabilising at t ≈ 365), paused once in QuickElimination and once in the
// timer wait, where nearly every leap is separable. The factorisation count
// behind that choice is not checkpointed; a resumed engine rebuilds it from
// the live set and must decide every later leap as the uninterrupted run
// did.
constexpr std::size_t leap_regime_n = std::size_t{1} << 20U;
constexpr std::uint64_t timer_election_seed = 2023;

void expect_leap_regime_resume(double pause_time, const std::string& tag) {
    const std::size_t n = leap_regime_n;
    const auto budget = static_cast<StepCount>(n) * 2000;
    const ProtocolRegistry& registry = ProtocolRegistry::instance();

    const auto reference =
        registry.make_simulation("pll", n, timer_election_seed, EngineKind::gillespie);
    (void)reference->run_for(model_time_to_step(pause_time, n));
    ASSERT_GE(reference->leader_count(), 2U) << "the election must still be open at the pause";

    const std::string path = temp_path("ppsim_resume_leap_" + tag + ".ppck");
    reference->write_checkpoint(path);
    const auto resumed = registry.resume_simulation(path);
    expect_same_run_state(*resumed, *reference);

    const RunResult expected = reference->run_until_one_leader(budget);
    const RunResult actual = resumed->run_until_one_leader(budget);
    ASSERT_TRUE(expected.converged);
    EXPECT_EQ(actual.stabilization_step, expected.stabilization_step);
    expect_same_run_state(*resumed, *reference);
    std::filesystem::remove(path);
}

TEST(ResumeEquivalenceLeapRegime, PllGillespiePausedInQuickElimination) {
    expect_leap_regime_resume(8.0, "quick_elimination");
}

TEST(ResumeEquivalenceLeapRegime, PllGillespiePausedInTheTimerWait) {
    expect_leap_regime_resume(160.0, "timer_wait");
}

TEST(ResumeEquivalenceLeapRegime, RestoreIntoAnEngineThatRanAnotherSeed) {
    // restore_state must drop the factorisation count with the transition
    // cache: an engine whose count covers its own run's state ids restores
    // another run's payload, re-assigning those ids, and must continue
    // exactly as the checkpointed engine does.
    const std::size_t n = leap_regime_n;
    const StepCount pause = model_time_to_step(120.0, n);
    const auto payload_of = [](const GillespieEngine<Pll>& engine) {
        CheckpointWriter w;
        engine.save_state(w);
        return w.take();
    };

    GillespieEngine<Pll> original(Pll::for_population(n), n, timer_election_seed);
    (void)original.run_for(pause);
    GillespieEngine<Pll> other(Pll::for_population(n), n, 7);
    (void)other.run_for(pause);
    ASSERT_GT(other.separable_leaps(), 0U);
    CheckpointReader r(payload_of(original));
    other.restore_state(r);
    EXPECT_EQ(other.separable_leaps(), 0U);
    EXPECT_EQ(payload_of(other), payload_of(original));

    const StepCount more = model_time_to_step(60.0, n);
    (void)original.run_for(more);
    (void)other.run_for(more);
    EXPECT_GT(other.separable_leaps(), 0U);
    EXPECT_EQ(payload_of(other), payload_of(original))
        << "the restored engine diverged from the checkpointed one";
}

// --- hybrid mid-switch checkpoints ------------------------------------------

TEST(ResumeEquivalenceHybrid, MidSwitchCheckpointResumesOnTheSameSegmentStream) {
    const std::size_t n = 128;
    const std::uint64_t seed = 77;
    using Sim = detail::HybridSimulation<Pll>;

    // Reference: run in the initial mode, force a mid-run engine handoff
    // (segment 1, a fresh stream split), run further, checkpoint.
    Sim reference(Pll::for_population(n), n, seed);
    (void)reference.run_for(300);
    reference.engine().force_mode(EngineKind::gillespie);
    ASSERT_EQ(reference.engine().switches(), 1U);
    (void)reference.run_for(200);

    const std::string path = temp_path("ppsim_resume_hybrid_midswitch.ppck");
    reference.write_checkpoint(path);

    // Resumed: a fresh hybrid simulation (same protocol and seed)
    // restored from the file must come back in the post-switch mode, on the
    // post-switch segment stream, and continue bit-identically.
    Sim resumed(Pll::for_population(n), n, seed);
    resumed.restore_checkpoint_file(path);
    EXPECT_EQ(resumed.engine().mode(), EngineKind::gillespie);
    EXPECT_EQ(resumed.engine().switches(), 1U);
    EXPECT_EQ(resumed.steps(), 500U);
    expect_same_run_state(resumed, reference);

    (void)reference.run_for(2000);
    (void)resumed.run_for(2000);
    expect_same_run_state(resumed, reference);
    std::filesystem::remove(path);
}

// --- checkpoints under a fault plan -----------------------------------------

TEST(ResumeEquivalenceFaults, MidPlanCheckpointResumesRemainingFaults) {
    // Checkpoint *inside* a silence window, after a crash was applied, with
    // a rejoin and a reset still pending: the resumed run must hold the
    // silence to its end and fire the remaining faults at identical steps.
    const std::size_t n = 128;
    const std::uint64_t seed = 5;
    const auto budget = static_cast<StepCount>(n) * n * 50;
    FaultPlan plan;
    plan.add(1.0, FaultAction::crash_fraction(0.25));      // step 128
    plan.add(4.0, FaultAction::transient_silence(2.0));    // steps [512, 768)
    plan.add(8.0, FaultAction::rejoin_count(32));          // step 1024
    plan.add(12.0, FaultAction::reset_fraction(0.5));      // step 1536

    const EngineKind engines[] = {EngineKind::agent, EngineKind::batched,
                                  EngineKind::gillespie, EngineKind::hybrid};
    for (const EngineKind engine : engines) {
        const ProtocolRegistry& registry = ProtocolRegistry::instance();
        const auto reference = registry.make_simulation("pll", n, seed, engine);
        reference->set_fault_plan(plan);
        (void)reference->run_for(600);  // mid-silence: crash + silence applied
        ASSERT_EQ(reference->faults_applied(), 2U)
            << "on engine " << to_string(engine);

        const std::string path =
            temp_path(std::string("ppsim_resume_faults_") +
                      std::string(to_string(engine)) + ".ppck");
        reference->write_checkpoint(path);

        const auto resumed = registry.resume_simulation(path);
        EXPECT_EQ(resumed->faults_applied(), 2U);
        EXPECT_EQ(resumed->fault_count(), 4U);
        EXPECT_EQ(resumed->fault_initial_population(), n);
        expect_same_run_state(*resumed, *reference);

        (void)reference->run_until_one_leader(budget);
        (void)resumed->run_until_one_leader(budget);
        EXPECT_EQ(resumed->faults_applied(), 4U)
            << "on engine " << to_string(engine);
        expect_same_run_state(*resumed, *reference);
        std::filesystem::remove(path);
    }
}

// --- periodic cadence checkpoints -------------------------------------------

TEST(ResumeEquivalencePeriodic, CadenceCheckpointResumesBitIdentically) {
    // set_checkpoint(path, every): the run rewrites `path` at every cadence
    // multiple. Resuming the last write and continuing on the same cadence
    // matches the reference continuing in-process (the cadence is part of
    // the stream contract — both runs slice rounds at the same multiples).
    const std::size_t n = 128;
    const StepCount cadence = 256;
    const std::string path = temp_path("ppsim_resume_periodic.ppck");
    const std::string path2 = temp_path("ppsim_resume_periodic_b.ppck");
    const ProtocolRegistry& registry = ProtocolRegistry::instance();

    const auto reference =
        registry.make_simulation("pll", n, /*seed=*/4242, EngineKind::batched);
    reference->set_checkpoint(path, cadence);
    (void)reference->run_for(1024);  // writes at 256, 512, 768, 1024
    ASSERT_TRUE(std::filesystem::exists(path));

    const auto resumed = registry.resume_simulation(path);
    EXPECT_EQ(resumed->steps(), 1024U);  // the last cadence multiple
    expect_same_run_state(*resumed, *reference);

    resumed->set_checkpoint(path2, cadence);
    (void)reference->run_for(512);
    (void)resumed->run_for(512);
    expect_same_run_state(*resumed, *reference);
    std::filesystem::remove(path);
    std::filesystem::remove(path2);
}

// --- observers across the resume boundary -----------------------------------

TEST(ResumeEquivalenceObservers, PendingDeadlineFiresOnceAtTheExactStep) {
    // Deadline still ahead of the checkpoint: the resumed run must fire it
    // exactly once, at the same step as the uninterrupted run.
    const std::size_t n = 128;
    const double deadline_time = 8.0;  // step 1024 > pause 600
    const auto budget = static_cast<StepCount>(n) * n * 50;
    const ProtocolRegistry& registry = ProtocolRegistry::instance();

    const auto reference = registry.make_simulation("pll", n, /*seed=*/9, EngineKind::batched);
    DeadlineObserver reference_obs(deadline_time, n);
    reference->add_observer(reference_obs);
    (void)reference->run_for(600);
    ASSERT_FALSE(reference_obs.report().has_value());

    const std::string path = temp_path("ppsim_resume_deadline_pending.ppck");
    reference->write_checkpoint(path);

    std::string payload;
    const CheckpointHeader header = load_checkpoint(path, payload);
    const auto resumed = registry.make_simulation(header);
    DeadlineObserver resumed_obs(deadline_time, n);
    resumed->add_observer(resumed_obs);  // attach before restoring
    resumed->restore_checkpoint_file(path);
    EXPECT_FALSE(resumed_obs.report().has_value());

    (void)reference->run_until_one_leader(budget);
    (void)resumed->run_until_one_leader(budget);
    ASSERT_TRUE(reference_obs.report().has_value());
    ASSERT_TRUE(resumed_obs.report().has_value());
    EXPECT_EQ(resumed_obs.report()->step, reference_obs.report()->step);
    EXPECT_EQ(resumed_obs.report()->leader_count,
              reference_obs.report()->leader_count);
    EXPECT_EQ(resumed_obs.report()->live_states, reference_obs.report()->live_states);
    EXPECT_EQ(resumed_obs.report()->reached_deadline,
              reference_obs.report()->reached_deadline);
    EXPECT_EQ(resumed_obs.report()->stabilized, reference_obs.report()->stabilized);
    expect_same_run_state(*resumed, *reference);
    std::filesystem::remove(path);
}

TEST(ResumeEquivalenceObservers, FiredDeadlineDoesNotFireAgainAfterResume) {
    // Deadline already behind the checkpoint: the restored observer carries
    // the report and must never record a second one.
    const std::size_t n = 128;
    const double deadline_time = 2.0;  // step 256 < pause 600
    const auto budget = static_cast<StepCount>(n) * n * 50;
    const ProtocolRegistry& registry = ProtocolRegistry::instance();

    const auto reference = registry.make_simulation("pll", n, /*seed=*/9, EngineKind::agent);
    DeadlineObserver reference_obs(deadline_time, n);
    reference->add_observer(reference_obs);
    (void)reference->run_for(600);
    ASSERT_TRUE(reference_obs.report().has_value());
    ASSERT_EQ(reference_obs.report()->step, 256U);

    const std::string path = temp_path("ppsim_resume_deadline_fired.ppck");
    reference->write_checkpoint(path);

    std::string payload;
    const CheckpointHeader header = load_checkpoint(path, payload);
    const auto resumed = registry.make_simulation(header);
    DeadlineObserver resumed_obs(deadline_time, n);
    resumed->add_observer(resumed_obs);
    resumed->restore_checkpoint_file(path);
    ASSERT_TRUE(resumed_obs.report().has_value());
    EXPECT_EQ(resumed_obs.report()->step, 256U);
    EXPECT_EQ(resumed_obs.report()->leader_count,
              reference_obs.report()->leader_count);

    (void)reference->run_until_one_leader(budget);
    (void)resumed->run_until_one_leader(budget);
    // Still the original report — fired exactly once across the boundary.
    EXPECT_EQ(resumed_obs.report()->step, 256U);
    EXPECT_EQ(reference_obs.report()->step, 256U);
    expect_same_run_state(*resumed, *reference);
    std::filesystem::remove(path);
}

TEST(ResumeEquivalenceObservers, RecoveryObserverResolvesIdenticallyAcrossResume) {
    const std::size_t n = 128;
    const auto budget = static_cast<StepCount>(n) * n * 50;
    FaultPlan plan;
    plan.add(1.0, FaultAction::crash_fraction(0.25));  // step 128
    plan.add(10.0, FaultAction::reset_fraction(0.5));  // step 1280
    const ProtocolRegistry& registry = ProtocolRegistry::instance();

    const auto reference =
        registry.make_simulation("pll", n, /*seed=*/31, EngineKind::batched);
    reference->set_fault_plan(plan);
    RecoveryObserver reference_obs(n);
    reference->add_observer(reference_obs);
    (void)reference->run_for(600);  // first fault applied, second pending
    ASSERT_EQ(reference_obs.records().size(), 1U);

    const std::string path = temp_path("ppsim_resume_recovery.ppck");
    reference->write_checkpoint(path);

    std::string payload;
    const CheckpointHeader header = load_checkpoint(path, payload);
    const auto resumed = registry.make_simulation(header);
    RecoveryObserver resumed_obs(n);
    resumed->add_observer(resumed_obs);
    resumed->restore_checkpoint_file(path);
    ASSERT_EQ(resumed_obs.records().size(), 1U);
    EXPECT_EQ(resumed_obs.records()[0].fault_step,
              reference_obs.records()[0].fault_step);

    (void)reference->run_until_one_leader(budget);
    (void)resumed->run_until_one_leader(budget);
    ASSERT_EQ(resumed_obs.records().size(), reference_obs.records().size());
    for (std::size_t i = 0; i < resumed_obs.records().size(); ++i) {
        EXPECT_EQ(resumed_obs.records()[i].fault_index,
                  reference_obs.records()[i].fault_index);
        EXPECT_EQ(resumed_obs.records()[i].fault_step,
                  reference_obs.records()[i].fault_step);
        EXPECT_EQ(resumed_obs.records()[i].recovery_step,
                  reference_obs.records()[i].recovery_step);
    }
    expect_same_run_state(*resumed, *reference);
    std::filesystem::remove(path);
}

// --- mismatched resumes fail loudly -----------------------------------------

TEST(ResumeEquivalenceRejects, MismatchedSimulationOrObserversAreRejected) {
    const std::size_t n = 64;
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const auto original = registry.make_simulation("pll", n, /*seed=*/1, EngineKind::batched);
    (void)original->run_for(200);
    const std::string path = temp_path("ppsim_resume_mismatch.ppck");
    original->write_checkpoint(path);

    // Wrong protocol.
    const auto wrong_protocol = registry.make_simulation("lottery", n, 1, EngineKind::batched);
    EXPECT_THROW(wrong_protocol->restore_checkpoint_file(path), InvalidArgument);

    // Wrong engine.
    const auto wrong_engine = registry.make_simulation("pll", n, 1, EngineKind::gillespie);
    EXPECT_THROW(wrong_engine->restore_checkpoint_file(path), InvalidArgument);

    // Observer-count mismatch: the checkpoint has none attached.
    const auto extra_observer = registry.make_simulation("pll", n, 1, EngineKind::batched);
    DeadlineObserver obs(1.0, n);
    extra_observer->add_observer(obs);
    EXPECT_THROW(extra_observer->restore_checkpoint_file(path), InvalidArgument);

    std::filesystem::remove(path);
}

}  // namespace
}  // namespace ppsim
