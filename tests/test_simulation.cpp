// Tests for the type-erased Simulation run layer (src/core/simulation.hpp)
// and the observer subsystem (src/core/observer.hpp):
//
//  * the engine table is the single source of truth for names;
//  * a protocol without an injective state key runs on the agent engine
//    only: make_simulation names the engine it cannot build;
//  * cross-engine seed determinism: the same (protocol, n, seed) gives an
//    identical RunResult on repeat runs, per engine, through the registry's
//    make_simulation factory;
//  * attaching observers to the agent engine does not perturb the run (the
//    chunked loop consumes the identical scheduler stream);
//  * configuration snapshots from agent and batched runs agree on the
//    initial and final state counts;
//  * trajectory recording samples at the requested cadence and always
//    captures the final configuration;
//  * ConvergenceObserver milestones are monotone in the threshold;
//  * the ppsim_sim --trajectory code path emits a valid leader-count time
//    series on both engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/experiment.hpp"
#include "core/observer.hpp"
#include "core/simulation.hpp"
#include "protocols/angluin.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

constexpr StepCount kBudget = 50'000'000;

TEST(EngineTable, IsTheSingleSourceOfNames) {
    for (const EngineDescriptor& d : engine_table) {
        EXPECT_EQ(to_string(d.kind), d.name);
        EXPECT_EQ(parse_engine_kind(d.name), d.kind);
        EXPECT_NE(engine_kind_list().find(d.name), std::string::npos);
        EXPECT_FALSE(d.summary.empty());
    }
    EXPECT_THROW((void)parse_engine_kind("warp-drive"), InvalidArgument);
}

TEST(Simulation, FactoryBuildsEitherEngine) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const EngineDescriptor& d : engine_table) {
        const auto sim = registry.make_simulation("pll", 64, 7, d.kind);
        EXPECT_EQ(sim->engine_kind(), d.kind);
        EXPECT_EQ(sim->population_size(), 64U);
        EXPECT_EQ(sim->steps(), 0U);
        EXPECT_EQ(sim->protocol_name(), "pll");
    }
    EXPECT_THROW((void)registry.make_simulation("bogus", 64, 7), InvalidArgument);
}

/// Angluin's rule on a 16-byte state with no `state_key`: its states have
/// no injective 64-bit key, so they cannot be interned by the count engines.
struct KeylessWideProtocol {
    struct State {
        std::uint64_t leader = 1;
        std::uint64_t tag = 0;
    };
    [[nodiscard]] std::string_view name() const { return "keyless_wide"; }
    [[nodiscard]] State initial_state() const { return State{}; }
    [[nodiscard]] Role output(const State& s) const {
        return s.leader != 0 ? Role::leader : Role::follower;
    }
    void interact(State& a, State& b) const {
        if (a.leader != 0 && b.leader != 0) b.leader = 0;
    }
};
static_assert(sizeof(KeylessWideProtocol::State) == 16);
static_assert(Protocol<KeylessWideProtocol> && !InternableProtocol<KeylessWideProtocol>);

TEST(Simulation, ProtocolWithoutAStateKeyRunsOnlyOnTheAgentEngine) {
    const auto factory = [](std::size_t) { return KeylessWideProtocol{}; };
    for (const EngineKind kind : {EngineKind::batched, EngineKind::gillespie,
                                  EngineKind::hybrid}) {
        const std::string engine = std::string(to_string(kind)) + " engine";
        try {
            (void)make_simulation(factory, 64, 7, kind);
            ADD_FAILURE() << engine << " was built for a keyless protocol";
        } catch (const InvalidArgument& e) {
            EXPECT_NE(std::string(e.what()).find(engine), std::string::npos) << e.what();
        }
    }
    const auto sim = make_simulation(factory, 64, 7, EngineKind::agent);
    const RunResult r = sim->run_until_one_leader(kBudget);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(sim->leader_count(), 1U);
    // Snapshots key states by their injective key, which this protocol lacks.
    EXPECT_THROW((void)sim->state_counts(), InvalidArgument);
}

TEST(Simulation, SeededRunsAreDeterministicPerEngine) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const EngineDescriptor& d : engine_table) {
        for (const char* protocol : {"angluin06", "lottery", "pll"}) {
            const auto run = [&] {
                const auto sim = registry.make_simulation(protocol, 128, 42, d.kind);
                return run_to_single_leader(*sim, kBudget);
            };
            const RunResult a = run();
            const RunResult b = run();
            EXPECT_EQ(a.converged, b.converged) << protocol << "/" << d.name;
            EXPECT_EQ(a.steps, b.steps) << protocol << "/" << d.name;
            EXPECT_EQ(a.leader_count, b.leader_count) << protocol << "/" << d.name;
            EXPECT_EQ(a.stabilization_step, b.stabilization_step)
                << protocol << "/" << d.name;
            EXPECT_TRUE(a.converged) << protocol << "/" << d.name;
        }
    }
}

TEST(Simulation, StepAndRunForAdvanceExactly) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const EngineDescriptor& d : engine_table) {
        const auto sim = registry.make_simulation("angluin06", 64, 5, d.kind);
        (void)sim->step();
        EXPECT_EQ(sim->steps(), 1U) << d.name;
        (void)sim->run_for(999);
        EXPECT_EQ(sim->steps(), 1000U) << d.name;
    }
}

TEST(Simulation, RunToSingleLeaderVerifiesStability) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const EngineDescriptor& d : engine_table) {
        const auto sim = registry.make_simulation("pll", 128, 9, d.kind);
        const RunResult r = run_to_single_leader(*sim, kBudget, 10'000);
        EXPECT_TRUE(r.converged) << d.name;
        EXPECT_EQ(r.leader_count, 1U) << d.name;
    }
}

TEST(Simulation, ObserversDoNotPerturbTheAgentEngine) {
    // The chunked observed loop must consume the identical scheduler stream:
    // same seed with and without observers gives the same RunResult.
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const auto plain = registry.make_simulation("pll", 128, 31, EngineKind::agent);
    const RunResult expected = plain->run_until_one_leader(kBudget);

    const auto observed = registry.make_simulation("pll", 128, 31, EngineKind::agent);
    TrajectoryRecorder recorder(97);  // deliberately odd stride
    observed->add_observer(recorder);
    const RunResult actual = observed->run_until_one_leader(kBudget);

    EXPECT_EQ(expected.steps, actual.steps);
    EXPECT_EQ(expected.stabilization_step, actual.stabilization_step);
    EXPECT_EQ(expected.leader_count, actual.leader_count);
    EXPECT_GE(recorder.points().size(), 2U);
}

TEST(Simulation, SnapshotsAgreeAcrossEnginesAtStartAndEnd) {
    // angluin06's initial and final configurations are deterministic (all
    // leaders; one leader + n−1 followers), so the state-count snapshots of
    // every engine must agree exactly at both ends of a converged run.
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 256;
    ConfigurationSnapshot initial[engine_table.size()];
    ConfigurationSnapshot final_[engine_table.size()];
    for (const EngineDescriptor& d : engine_table) {
        const auto sim = registry.make_simulation("angluin06", n, 11, d.kind);
        initial[static_cast<int>(d.kind)] = sim->state_counts();
        const RunResult r = sim->run_until_one_leader(kBudget);
        ASSERT_TRUE(r.converged) << d.name;
        final_[static_cast<int>(d.kind)] = sim->state_counts();
    }
    for (std::size_t e = 0; e < engine_table.size(); ++e) {
        EXPECT_EQ(initial[e].total(), n);
        EXPECT_EQ(initial[e].leaders(), n);
        ASSERT_EQ(initial[e].counts.size(), 1U);
        EXPECT_EQ(final_[e].total(), n);
        EXPECT_EQ(final_[e].leaders(), 1U);
        ASSERT_EQ(final_[e].counts.size(), 2U);
        EXPECT_EQ(initial[0].counts[0].key, initial[e].counts[0].key);
        for (std::size_t i = 0; i < 2; ++i) {
            EXPECT_EQ(final_[0].counts[i].key, final_[e].counts[i].key);
            EXPECT_EQ(final_[0].counts[i].count, final_[e].counts[i].count);
            EXPECT_EQ(final_[0].counts[i].role, final_[e].counts[i].role);
        }
    }
}

TEST(TrajectoryRecorder, SamplesAtTheRequestedCadence) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const EngineDescriptor& d : engine_table) {
        const auto sim = registry.make_simulation("angluin06", 64, 3, d.kind);
        TrajectoryRecorder recorder(100);
        sim->add_observer(recorder);
        (void)sim->run_for(1000);
        const auto& points = recorder.points();
        ASSERT_EQ(points.size(), 11U) << d.name;  // 0, 100, …, 1000
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(points[i].step, 100 * i) << d.name;
            EXPECT_GT(points[i].live_states, 0U) << d.name;
        }
    }
    // A cadence in parallel time: non-finite units are refused, and a
    // stride past the StepCount range saturates instead of overflowing.
    EXPECT_EQ(TrajectoryRecorder::every_parallel_time(1.5, 64).stride(), 96U);
    EXPECT_THROW((void)TrajectoryRecorder::every_parallel_time(
                     std::numeric_limits<double>::infinity(), 64),
                 InvalidArgument);
    EXPECT_EQ(TrajectoryRecorder::every_parallel_time(1e300, 64).stride(),
              std::numeric_limits<StepCount>::max());
}

TEST(TrajectoryRecorder, StepwiseDrivingHonoursTheStride) {
    // Driving the simulation one step at a time from a caller loop must
    // still sample at the stride, not once per step (finish only fires at
    // the end of run_until_one_leader).
    const auto sim = ProtocolRegistry::instance().make_simulation(
        "angluin06", 64, 29, EngineKind::agent);
    TrajectoryRecorder recorder(10);
    sim->add_observer(recorder);
    for (int i = 0; i < 50; ++i) (void)sim->step();
    ASSERT_EQ(recorder.points().size(), 6U);  // 0, 10, 20, 30, 40, 50
    for (std::size_t i = 0; i < recorder.points().size(); ++i) {
        EXPECT_EQ(recorder.points()[i].step, 10 * i);
    }
}

TEST(TrajectoryRecorder, CatchesUpWhenAttachedAfterAnUnobservedRun) {
    // Attaching a small-stride recorder to a simulation that already ran
    // far must not replay the missed deadlines one stride at a time.
    const auto sim = ProtocolRegistry::instance().make_simulation(
        "angluin06", 64, 23, EngineKind::batched);
    (void)sim->run_for(1'000'000);
    TrajectoryRecorder recorder(10);
    sim->add_observer(recorder);
    (void)sim->run_for(30);
    const auto& points = recorder.points();
    ASSERT_EQ(points.size(), 4U);  // 1'000'000 + {0, 10, 20, 30}
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].step, 1'000'000U + 10 * i);
    }
}

TEST(TrajectoryRecorder, AlwaysCapturesTheFinalConfiguration) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const EngineDescriptor& d : engine_table) {
        const auto sim = registry.make_simulation("angluin06", 128, 7, d.kind);
        TrajectoryRecorder recorder(1 << 20);  // stride far beyond the run
        sim->add_observer(recorder);
        const RunResult r = sim->run_until_one_leader(kBudget);
        ASSERT_TRUE(r.converged) << d.name;
        const auto& points = recorder.points();
        ASSERT_GE(points.size(), 2U) << d.name;
        EXPECT_EQ(points.front().step, 0U) << d.name;
        EXPECT_EQ(points.front().leader_count, 128U) << d.name;
        EXPECT_EQ(points.back().step, sim->steps()) << d.name;
        EXPECT_EQ(points.back().leader_count, 1U) << d.name;
    }
}

TEST(TrajectoryRecorder, WritesCsv) {
    TrajectoryRecorder recorder(10);
    const auto sim =
        ProtocolRegistry::instance().make_simulation("angluin06", 16, 1, EngineKind::agent);
    sim->add_observer(recorder);
    (void)sim->run_for(20);
    std::ostringstream out;
    recorder.write_csv(out);
    const std::string csv = out.str();
    EXPECT_NE(csv.find("step,parallel_time,leader_count,live_states"), std::string::npos);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);  // header + 3 samples
}

TEST(ConvergenceObserver, MilestonesAreMonotone) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 256;
    for (const EngineDescriptor& d : engine_table) {
        const auto sim = registry.make_simulation("angluin06", n, 17, d.kind);
        ConvergenceObserver milestones(ConvergenceObserver::halving_thresholds(n), 64);
        sim->add_observer(milestones);
        const RunResult r = sim->run_until_one_leader(kBudget);
        ASSERT_TRUE(r.converged) << d.name;
        StepCount previous = 0;
        for (const std::size_t threshold : milestones.thresholds()) {
            const auto reached = milestones.first_step_at_or_below(threshold);
            ASSERT_TRUE(reached.has_value()) << d.name << " threshold " << threshold;
            EXPECT_GE(*reached, previous) << d.name << " threshold " << threshold;
            previous = *reached;
        }
        EXPECT_FALSE(milestones.first_step_at_or_below(12345).has_value());
    }
}

TEST(RecordTrajectory, EmitsAValidSeriesOnBothEngines) {
    // The library path behind `ppsim_sim --trajectory`, for each engine.
    for (const EngineDescriptor& d : engine_table) {
        const TrajectoryRun run =
            record_trajectory("angluin06", 256, 19, kBudget, 64, d.kind);
        ASSERT_TRUE(run.result.converged) << d.name;
        const auto& points = run.points;
        ASSERT_GE(points.size(), 2U) << d.name;
        EXPECT_EQ(points.front().leader_count, 256U) << d.name;
        EXPECT_EQ(points.back().leader_count, 1U) << d.name;
        for (std::size_t i = 1; i < points.size(); ++i) {
            EXPECT_GT(points[i].step, points[i - 1].step) << d.name;
            EXPECT_LE(points[i].leader_count, 256U) << d.name;
        }
    }
}

TEST(SimulationBatched, SnapshotsAndObserversAgreeWithAgentForAllProtocols) {
    // Every registered protocol on the batched engine: the initial census
    // must equal the agent engine's exactly, the run must converge to one
    // leader with a conserved population, and the recorded trajectory must
    // be a valid monotone-step series ending at one leader.
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 64;
    for (const std::string& name : registry.names()) {
        const auto agent_sim = registry.make_simulation(name, n, 11, EngineKind::agent);
        const ConfigurationSnapshot agent_initial = agent_sim->state_counts();
        const auto sim = registry.make_simulation(name, n, 11, EngineKind::batched);
        const ConfigurationSnapshot initial = sim->state_counts();
        ASSERT_EQ(initial.counts.size(), agent_initial.counts.size()) << name;
        for (std::size_t i = 0; i < initial.counts.size(); ++i) {
            EXPECT_EQ(initial.counts[i].key, agent_initial.counts[i].key) << name;
            EXPECT_EQ(initial.counts[i].count, agent_initial.counts[i].count) << name;
        }
        TrajectoryRecorder recorder(256);
        sim->add_observer(recorder);
        const RunResult r = sim->run_until_one_leader(kBudget);
        ASSERT_TRUE(r.converged) << name;
        const ConfigurationSnapshot final_ = sim->state_counts();
        EXPECT_EQ(final_.total(), n) << name;
        EXPECT_EQ(final_.leaders(), 1U) << name;
        const auto& points = recorder.points();
        ASSERT_GE(points.size(), 2U) << name;
        EXPECT_EQ(points.front().step, 0U) << name;
        EXPECT_EQ(points.back().leader_count, 1U) << name;
        for (std::size_t i = 1; i < points.size(); ++i) {
            EXPECT_GT(points[i].step, points[i - 1].step) << name;
        }
    }
}

TEST(RunSweep, CustomObserverFactoryIsAttachedPerRepetition) {
    SweepConfig config;
    config.protocol = "angluin06";
    config.sizes = {64};
    config.repetitions = 3;
    config.seed = 0xBEE;
    std::atomic<int> built{0};
    config.make_observer = [&built](std::size_t, std::size_t) {
        ++built;
        return std::make_unique<TrajectoryRecorder>(1024);
    };
    (void)run_sweep(config);
    EXPECT_EQ(built.load(), 3);
}

}  // namespace
}  // namespace ppsim
