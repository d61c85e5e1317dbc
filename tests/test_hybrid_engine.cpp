// Tests for the adaptive hybrid meta-engine (core/hybrid_engine.hpp): the
// pure mode decision (argmin + hysteresis + tie-break), the probe-population
// bucketing, the census-handoff primitive on every inner engine, the
// forced-switch harness (count conservation, seeded determinism, observer
// continuity across a mid-run switch), adaptive switching under an injected
// cost table, KS agreement of hybrid vs gillespie stabilisation-time
// distributions in the leap regime, and a generous-slack throughput
// assertion (suite HybridBenchAssertion — wall-clock sensitive, so it is
// deliberately kept out of the sanitizer CI regexes).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/hybrid_engine.hpp"
#include "core/observer.hpp"
#include "core/random.hpp"
#include "core/simulation.hpp"
#include "core/stats.hpp"
#include "protocols/angluin.hpp"
#include "protocols/pll.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

/// Restores the ambient hybrid options on scope exit (every test in this
/// binary shares one process).
class ScopedHybridOptions {
public:
    ScopedHybridOptions() : saved_(hybrid_options()) {}
    ~ScopedHybridOptions() { set_hybrid_options(saved_); }

private:
    HybridOptions saved_;
};

/// A calibration table with explicit per-mode anchors, in HybridMode order:
/// {agent, batched_pairwise, batched_bulk, gillespie}.
CalibrationTable table_of(std::array<double, hybrid_mode_count> wide,
                          std::array<double, hybrid_mode_count> narrow) {
    CalibrationTable table;
    for (std::size_t m = 0; m < hybrid_mode_count; ++m) {
        table.costs[m].wide_ns = wide[m];
        table.costs[m].narrow_ns = narrow[m];
    }
    table.probe_population = 4096;
    return table;
}

/// Installs `table` as the injected ambient calibration, so every hybrid
/// engine built in the scope takes machine-independent decisions.
void inject(const CalibrationTable& table) {
    HybridOptions options;
    options.injected = table;
    set_hybrid_options(options);
}

// --- the pure decision model ------------------------------------------------

TEST(HybridEngine, ChooseModePicksTheCheapestAnchor) {
    // Wide profile (z = 0): only wide_ns matters; narrow profile (z = 1):
    // only narrow_ns matters.
    const CalibrationTable table =
        table_of({50.0, 10.0, 20.0, 400.0}, {50.0, 100.0, 100.0, 2.0});
    PhaseFeatures wide;
    wide.null_mass = 0.0;
    EXPECT_EQ(choose_mode(table, wide, HybridMode::agent),
              HybridMode::batched_pairwise);
    PhaseFeatures narrow;
    narrow.null_mass = 1.0;
    EXPECT_EQ(choose_mode(table, narrow, HybridMode::agent), HybridMode::gillespie);
}

TEST(HybridEngine, ChooseModeInterpolatesGeometrically) {
    // At z = 0.5 the predicted cost is the geometric mean of the anchors:
    // √(400·2) ≈ 28.3 beats √(10·100) ≈ 31.6, so gillespie wins at the
    // midpoint even though it loses badly at the wide end.
    const CalibrationTable table =
        table_of({1000.0, 10.0, 1000.0, 400.0}, {1000.0, 100.0, 1000.0, 2.0});
    PhaseFeatures mid;
    mid.null_mass = 0.5;
    EXPECT_EQ(choose_mode(table, mid, HybridMode::gillespie, /*hysteresis=*/1.0),
              HybridMode::gillespie);
}

TEST(HybridEngine, ChooseModeHysteresisKeepsNearTies) {
    // batched_bulk is 1.5× the best — below the 2× hysteresis bar, so the
    // incumbent stands; at 2.5× it must move.
    const CalibrationTable near_tie =
        table_of({15.0, 10.0, 15.0, 100.0}, {15.0, 10.0, 15.0, 100.0});
    PhaseFeatures f;
    EXPECT_EQ(choose_mode(near_tie, f, HybridMode::batched_bulk),
              HybridMode::batched_bulk);
    const CalibrationTable clear_win =
        table_of({25.0, 10.0, 25.0, 100.0}, {25.0, 10.0, 25.0, 100.0});
    EXPECT_EQ(choose_mode(clear_win, f, HybridMode::batched_bulk),
              HybridMode::batched_pairwise);
}

TEST(HybridEngine, ChooseModeTieBreaksTowardLowestIndex) {
    // agent and gillespie are exactly tied and both far cheaper than the
    // incumbent: the decision must be deterministic — lowest mode index.
    const CalibrationTable table =
        table_of({10.0, 100.0, 100.0, 10.0}, {10.0, 100.0, 100.0, 10.0});
    PhaseFeatures f;
    EXPECT_EQ(choose_mode(table, f, HybridMode::batched_bulk), HybridMode::agent);
}

TEST(HybridEngine, ChooseModeExtrapolatesWithPopulationScale) {
    // agent is the cheapest raw anchor, but its cost is flat in n while
    // batched_pairwise amortises (exponent −0.5): at 256× the probe
    // population the extrapolated batched cost 80·256^−0.5 = 5 beats
    // agent's 20 by the 2× hysteresis bar, so the decision flips — and at
    // scale 1 the raw anchors still stand.
    CalibrationTable table =
        table_of({20.0, 80.0, 500.0, 500.0}, {20.0, 80.0, 500.0, 500.0});
    table.costs[1].wide_exponent = -0.5;
    table.costs[1].narrow_exponent = -0.5;
    PhaseFeatures f;
    EXPECT_EQ(choose_mode(table, f, HybridMode::agent), HybridMode::agent);
    EXPECT_EQ(choose_mode(table, f, HybridMode::agent, hybrid_hysteresis,
                          /*scale=*/256.0),
              HybridMode::batched_pairwise);
    EXPECT_DOUBLE_EQ(predicted_mode_ns(table.costs[1], 0.0, 256.0), 5.0);
}

TEST(HybridEngine, ProbePopulationBuckets) {
    EXPECT_EQ(probe_population_for(2), 4096U);
    EXPECT_EQ(probe_population_for(4096), 4096U);
    EXPECT_EQ(probe_population_for(5000), 4096U);
    EXPECT_EQ(probe_population_for(8192), 8192U);
    EXPECT_EQ(probe_population_for(9000), 8192U);
    EXPECT_EQ(probe_population_for(32768), 32768U);
    EXPECT_EQ(probe_population_for(std::size_t{1} << 20U), 32768U);
}

// --- the census-handoff primitive -------------------------------------------

/// The handoff source: a batched pll run that has narrowed a little.
std::vector<std::pair<PllState, std::uint64_t>> pll_census_after(
    std::size_t n, StepCount steps) {
    BatchedEngine<Pll> source(Pll::for_population(n), n, 99);
    (void)source.run_for(steps);
    std::vector<std::pair<PllState, std::uint64_t>> census;
    source.visit_counts([&census](const PllState& s, std::uint64_t c, Role) {
        census.emplace_back(s, c);
    });
    return census;
}

template <typename EngineT>
void expect_adoption_holds(EngineT& engine, std::size_t n,
                           const std::vector<std::pair<PllState, std::uint64_t>>& census,
                           std::uint64_t expected_leaders) {
    engine.adopt_census(census, /*steps=*/12345, /*stabilization_step=*/std::nullopt);
    EXPECT_EQ(engine.steps(), 12345U);
    EXPECT_EQ(engine.recount_leaders(), expected_leaders);
    EXPECT_EQ(engine.population_size(), n);
    // The adopted configuration keeps evolving: a short continuation must
    // conserve the population.
    (void)engine.run_for(1000);
    if constexpr (requires { engine.visit_counts([](auto&&...) {}); }) {
        std::uint64_t total = 0;
        engine.visit_counts(
            [&total](const PllState&, std::uint64_t c, Role) { total += c; });
        EXPECT_EQ(total, n);
    } else {
        EXPECT_EQ(engine.population_size(), n);  // agent engine: a state vector
    }
}

TEST(HybridEngine, AdoptCensusConservesOnEveryEngine) {
    const std::size_t n = 512;
    const auto census = pll_census_after(n, static_cast<StepCount>(8 * n));
    std::uint64_t total = 0;
    std::uint64_t leaders = 0;
    const Pll proto = Pll::for_population(n);
    for (const auto& [state, count] : census) {
        total += count;
        if (proto.output(state) == Role::leader) leaders += count;
    }
    ASSERT_EQ(total, n);

    Engine<Pll> agent(proto, n, 1);
    expect_adoption_holds(agent, n, census, leaders);
    BatchedEngine<Pll> batched(proto, n, 1, BatchMode::automatic);
    expect_adoption_holds(batched, n, census, leaders);
    GillespieEngine<Pll> gillespie(proto, n, 1);
    expect_adoption_holds(gillespie, n, census, leaders);
}

TEST(HybridEngine, AdoptCensusRejectsNonConservingCensus) {
    const std::size_t n = 64;
    const Pll proto = Pll::for_population(n);
    std::vector<std::pair<PllState, std::uint64_t>> short_census;
    short_census.emplace_back(proto.initial_state(), n - 1);
    Engine<Pll> agent(proto, n, 1);
    EXPECT_THROW(agent.adopt_census(short_census, 0, std::nullopt), InvalidArgument);
    BatchedEngine<Pll> batched(proto, n, 1, BatchMode::automatic);
    EXPECT_THROW(batched.adopt_census(short_census, 0, std::nullopt), InvalidArgument);
    GillespieEngine<Pll> gillespie(proto, n, 1);
    EXPECT_THROW(gillespie.adopt_census(short_census, 0, std::nullopt),
                 InvalidArgument);
}

// --- forced mid-run switching -----------------------------------------------

TEST(HybridEngine, ForcedSwitchConservesCountsThroughEveryMode) {
    ScopedHybridOptions restore;
    // Pin the initial pick to batched_bulk so the walk below visits every
    // other mode via a real census handoff.
    inject(table_of({100.0, 100.0, 1.0, 100.0}, {100.0, 100.0, 1.0, 100.0}));

    const std::size_t n = 512;
    HybridEngine<Pll> engine(Pll::for_population(n), n, 2026);
    ASSERT_EQ(engine.mode(), HybridMode::batched_bulk);

    const std::array<HybridMode, 3> walk = {
        HybridMode::agent, HybridMode::gillespie, HybridMode::batched_pairwise};
    StepCount last_steps = 0;
    std::size_t expected_switches = 0;
    for (const HybridMode m : walk) {
        (void)engine.run_for(static_cast<StepCount>(4 * n));
        engine.force_mode(m);
        ++expected_switches;
        EXPECT_EQ(engine.mode(), m);
        EXPECT_EQ(engine.switches(), expected_switches);
        // The handoff transfers the configuration and the clock exactly.
        EXPECT_EQ(engine.total_count(), n);
        EXPECT_GT(engine.steps(), last_steps);
        last_steps = engine.steps();
        EXPECT_EQ(engine.recount_leaders(), engine.leader_count());
    }
    // The multi-segment run still elects a single leader.
    const RunResult result =
        engine.run_until_one_leader(static_cast<StepCount>(n) * n * 50);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(engine.leader_count(), 1U);
    EXPECT_EQ(engine.total_count(), n);
}

TEST(HybridEngine, ForcedSwitchScheduleIsSeededDeterministic) {
    ScopedHybridOptions restore;
    inject(table_of({100.0, 1.0, 100.0, 100.0}, {100.0, 1.0, 100.0, 100.0}));

    const std::size_t n = 256;
    const auto run_schedule = [n] {
        HybridEngine<Pll> engine(Pll::for_population(n), n, 77);
        (void)engine.run_for(static_cast<StepCount>(3 * n));
        engine.force_mode(HybridMode::gillespie);
        (void)engine.run_for(static_cast<StepCount>(3 * n));
        engine.force_mode(HybridMode::agent);
        (void)engine.run_for(static_cast<StepCount>(3 * n));
        return engine.collect_census();
    };
    const auto a = run_schedule();
    const auto b = run_schedule();
    ASSERT_EQ(a.size(), b.size());
    const Pll proto = Pll::for_population(n);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(state_key_of(proto, a[i].first), state_key_of(proto, b[i].first));
        EXPECT_EQ(a[i].second, b[i].second);
    }
}

TEST(HybridEngine, DeadlineObserverFiresExactlyOnceAcrossForcedSwitch) {
    ScopedHybridOptions restore;
    inject(table_of({100.0, 100.0, 1.0, 100.0}, {100.0, 100.0, 1.0, 100.0}));

    const std::size_t n = 256;
    detail::HybridSimulation<Pll> sim(Pll::for_population(n), n, 5);
    DeadlineObserver deadline(/*model_time=*/4.0, n);
    sim.add_observer(deadline);

    // Run to model time 2, switch modes, run past the deadline: the observer
    // must see one continuous run and fire exactly once, at exactly step 4n.
    (void)sim.run_for(static_cast<StepCount>(2 * n));
    ASSERT_FALSE(deadline.report().has_value());
    sim.engine().force_mode(HybridMode::gillespie);
    (void)sim.run_for(static_cast<StepCount>(6 * n));
    ASSERT_TRUE(deadline.report().has_value());
    EXPECT_TRUE(deadline.report()->reached_deadline);
    EXPECT_EQ(deadline.report()->step, static_cast<StepCount>(4 * n));
    EXPECT_EQ(sim.steps(), static_cast<StepCount>(8 * n));
    EXPECT_GE(sim.engine().switches(), 1U);
}

// --- adaptive switching under an injected cost table ------------------------

TEST(HybridEngine, SwitchesFromWideToNarrowModeAsTheRunAbsorbs) {
    ScopedHybridOptions restore;
    // Wide anchor: batched_bulk is cheapest, so the all-initial (z ≈ 0)
    // profile starts there. Narrow anchor: gillespie is 20× cheaper, far
    // past the 2× hysteresis — so once angluin06's tail turns null-dominated
    // (two/three live states, most pairs inert), the engine must hand over.
    inject(table_of({100.0, 50.0, 10.0, 200.0}, {100.0, 50.0, 40.0, 2.0}));

    const std::size_t n = 4096;
    HybridEngine<Angluin> engine(Angluin{}, n, 9);
    ASSERT_EQ(engine.mode(), HybridMode::batched_bulk);
    const RunResult result =
        engine.run_until_one_leader(static_cast<StepCount>(n) * n * 50);
    ASSERT_TRUE(result.converged);
    EXPECT_GE(engine.switches(), 1U);
    EXPECT_EQ(engine.mode(), HybridMode::gillespie);
    EXPECT_EQ(engine.total_count(), n);
    EXPECT_EQ(engine.leader_count(), 1U);
}

// --- distributional agreement in the leap regime ----------------------------

/// Stabilisation times (parallel-time units) of seeded elections, mirroring
/// test_statistical.cpp's harness.
std::vector<double> stabilization_times(const std::string& protocol, std::size_t n,
                                        EngineKind engine, int reps,
                                        std::uint64_t seed_root, StepCount budget) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const RunResult r = registry.run_election(protocol, n, derive_seed(seed_root, i),
                                                  budget, engine);
        if (!r.converged || !r.stabilization_step) {
            ADD_FAILURE() << protocol << " rep " << i << " on " << to_string(engine)
                          << " missed the budget";
            return {};
        }
        out.push_back(r.stabilization_parallel_time(n));
    }
    return out;
}

constexpr double ks_alpha = 0.001;

void expect_hybrid_agreement(const std::string& protocol, std::size_t n, int reps,
                             StepCount budget, std::uint64_t root_hybrid,
                             std::uint64_t root_gillespie) {
    std::vector<double> a = stabilization_times(protocol, n, EngineKind::hybrid, reps,
                                                root_hybrid, budget);
    std::vector<double> b = stabilization_times(protocol, n, EngineKind::gillespie,
                                                reps, root_gillespie, budget);
    if (a.empty() || b.empty()) return;  // helper already failed the test
    const KsTestResult ks = ks_two_sample(a, b);
    EXPECT_GE(ks.p_value, ks_alpha)
        << protocol << " @ n=" << n << ": hybrid vs gillespie disagree (D="
        << ks.statistic << ", p=" << ks.p_value << ")";
}

TEST(HybridStatisticalAgreement, PllHybridMatchesGillespieAt8192) {
    ScopedHybridOptions restore;
    // Injected table so the decisions are machine-independent and the
    // p-values deterministic: pll's profile never turns null-dominated, so
    // the hybrid run stays on its wide pick (batched pairwise) — the
    // agreement bounds the batched-vs-τ-leap gap through the hybrid stack.
    inject(table_of({100.0, 10.0, 50.0, 200.0}, {100.0, 40.0, 50.0, 2.0}));
    const std::size_t n = 8192;
    expect_hybrid_agreement("pll", n, 120, static_cast<StepCount>(n) * n * 4, 401,
                            402);
}

TEST(HybridStatisticalAgreement, RatedEpidemicHybridMatchesGillespieAt8192) {
    ScopedHybridOptions restore;
    // rated_epidemic narrows to three null-dominated states early, so with
    // this table every hybrid run genuinely switches mid-run (bulk →
    // gillespie): the agreement also covers the adopt_census handoff and the
    // per-segment stream split statistically.
    inject(table_of({100.0, 50.0, 10.0, 200.0}, {100.0, 50.0, 40.0, 2.0}));
    const std::size_t n = 8192;
    expect_hybrid_agreement("rated_epidemic", n, 60,
                            static_cast<StepCount>(n) * n * 16, 411, 412);
}

// --- throughput assertion (generous slack; not run under sanitizers) --------

TEST(HybridBenchAssertion, HybridIsCompetitiveWithTheBestFixedEngineOnPll) {
    ScopedHybridOptions restore;
    // Real calibration (probe runs), isolated from any user cache.
    HybridOptions options;
    options.recalibrate = true;
    set_hybrid_options(options);

    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = std::size_t{1} << 16U;
    const auto steps = static_cast<StepCount>(16 * n);
    const auto rate_of = [&](EngineKind kind) {
        // Warm-up build absorbs one-off costs (hybrid's calibration probes).
        (void)registry.make_simulation("pll", n, 0xABC, kind);
        double seconds = 0.0;
        StepCount executed = 0;
        std::uint64_t seed = 0xABC;
        while (seconds < 0.25) {
            const auto sim = registry.make_simulation("pll", n, seed++, kind);
            const auto start = std::chrono::steady_clock::now();
            const RunResult r = sim->run_for(steps);
            const auto stop = std::chrono::steady_clock::now();
            executed += r.steps;
            seconds += std::chrono::duration<double>(stop - start).count();
        }
        return static_cast<double>(executed) / seconds;
    };

    const double best_fixed =
        std::max({rate_of(EngineKind::agent), rate_of(EngineKind::batched),
                  rate_of(EngineKind::gillespie)});
    const double hybrid = rate_of(EngineKind::hybrid);
    // Generous slack: the regenerated BENCH_engine.json rows pin hybrid at
    // ≥ 0.9× the best fixed engine; this ctest bar only guards against the
    // meta-engine pathologically mis-picking (e.g. agent mode at n = 65536,
    // which would land around 0.05×). Wall-clock noise safe at 0.4×.
    EXPECT_GE(hybrid, 0.4 * best_fixed)
        << "hybrid " << hybrid << " int/s vs best fixed " << best_fixed << " int/s";
}

// --- the engine-table error path --------------------------------------------

TEST(HybridEngine, ParseEngineKindErrorListsEveryValidEngine) {
    try {
        (void)parse_engine_kind("warp-drive");
        FAIL() << "parse_engine_kind accepted an unknown engine";
    } catch (const InvalidArgument& e) {
        const std::string message = e.what();
        for (const EngineDescriptor& d : engine_table) {
            EXPECT_NE(message.find(d.name), std::string::npos)
                << "error message misses engine '" << d.name << "': " << message;
        }
    }
}

}  // namespace
}  // namespace ppsim
