// Tests for the adaptive hybrid meta-engine (core/hybrid_engine.hpp): the
// pure agent/gillespie rule on each of its branches, the census-handoff
// primitive on every inner engine, the forced-switch harness (count
// conservation, seeded determinism, observer continuity across a mid-run
// switch), the rule's switches on real runs, the count engines' population
// ceiling at construction and on rejoin in either mode, KS agreement of hybrid vs
// gillespie stabilisation-time distributions, and a generous-slack
// throughput assertion (suite HybridBenchAssertion — wall-clock sensitive,
// so it is deliberately kept out of the sanitizer CI regexes).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "core/count_engine.hpp"
#include "core/fault.hpp"
#include "core/hybrid_engine.hpp"
#include "core/observer.hpp"
#include "core/random.hpp"
#include "core/simulation.hpp"
#include "core/stats.hpp"
#include "protocols/angluin.hpp"
#include "protocols/lottery.hpp"
#include "protocols/mst.hpp"
#include "protocols/pll.hpp"
#include "protocols/pll_symmetric.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

// --- the pure decision rule -------------------------------------------------

using Rule = HybridEngine<Pll>;

PhaseFeatures features(std::size_t live_states, double null_mass) {
    PhaseFeatures f;
    f.live_states = live_states;
    f.null_mass = null_mass;
    return f;
}

TEST(HybridEngine, RuleEntersTheLeapRegimeAtTwoToTheFifteen) {
    constexpr std::size_t line = std::size_t{1} << 15U;
    static_assert(Rule::leap_regime_population == line);
    for (const EngineKind current : {EngineKind::agent, EngineKind::gillespie}) {
        // 33 live states with no null pairs: agent below the line, where d
        // is capped at 32, but gillespie from it on, where z is not read.
        EXPECT_EQ(Rule::choose_mode(line - 1, features(33, 0.0), current),
                  EngineKind::agent);
        EXPECT_EQ(Rule::choose_mode(line, features(33, 0.0), current),
                  EngineKind::gillespie);
        EXPECT_EQ(Rule::choose_mode(std::size_t{1} << 20U, features(1, 0.0), current),
                  EngineKind::gillespie);
    }
}

TEST(HybridEngine, RuleLeavesAgentInTheLeapRegimeBelowEightLeaps) {
    // n = 2^15: leaps of L = 512 steps, 8·L = 4096 = 64².
    const std::size_t n = std::size_t{1} << 15U;
    EXPECT_EQ(Rule::choose_mode(n, features(63, 0.0), EngineKind::agent),
              EngineKind::gillespie);
    EXPECT_EQ(Rule::choose_mode(n, features(64, 1.0), EngineKind::agent),
              EngineKind::agent);
    // n = 2^20: L = 16384, 8·L = 362.04².
    const std::size_t big = std::size_t{1} << 20U;
    EXPECT_EQ(Rule::choose_mode(big, features(362, 0.0), EngineKind::agent),
              EngineKind::gillespie);
    EXPECT_EQ(Rule::choose_mode(big, features(363, 0.0), EngineKind::agent),
              EngineKind::agent);
}

TEST(HybridEngine, RuleReturnsToAgentInTheLeapRegimeOnlyAtSixteenLeaps) {
    // n = 2^15: 16·L = 8192 = 90.51².
    const std::size_t n = std::size_t{1} << 15U;
    EXPECT_EQ(Rule::choose_mode(n, features(64, 0.0), EngineKind::gillespie),
              EngineKind::gillespie);
    EXPECT_EQ(Rule::choose_mode(n, features(90, 0.0), EngineKind::gillespie),
              EngineKind::gillespie);
    EXPECT_EQ(Rule::choose_mode(n, features(91, 1.0), EngineKind::gillespie),
              EngineKind::agent);
    EXPECT_EQ(Rule::choose_mode(n, features(n, 1.0), EngineKind::gillespie),
              EngineKind::agent);
}

TEST(HybridEngine, RuleRunsAgentAboveThirtyTwoLiveStates) {
    // z = 1 makes gillespie's predicted work zero, so only the d cap can
    // send these to agent.
    const std::size_t n = 4096;
    for (const EngineKind current : {EngineKind::agent, EngineKind::gillespie}) {
        EXPECT_EQ(Rule::choose_mode(n, features(32, 1.0), current),
                  EngineKind::gillespie);
        EXPECT_EQ(Rule::choose_mode(n, features(33, 1.0), current), EngineKind::agent);
    }
}

TEST(HybridEngine, RuleLeavesAgentJustBelowEight) {
    // d = 3: predicted gillespie work (1 − z)·(9 + 13) = (1 − z)·22.
    const std::size_t n = 4096;
    EXPECT_EQ(Rule::choose_mode(n, features(3, 0.64), EngineKind::agent),
              EngineKind::gillespie);  // 7.92
    EXPECT_EQ(Rule::choose_mode(n, features(3, 0.63), EngineKind::agent),
              EngineKind::agent);  // 8.14
}

TEST(HybridEngine, RuleReturnsToAgentOnlyAtSixteen) {
    const std::size_t n = 4096;
    // Inside the hysteresis band (8 ≤ work < 16) gillespie stands.
    EXPECT_EQ(Rule::choose_mode(n, features(3, 0.63), EngineKind::gillespie),
              EngineKind::gillespie);  // 8.14
    EXPECT_EQ(Rule::choose_mode(n, features(3, 0.28), EngineKind::gillespie),
              EngineKind::gillespie);  // 15.84
    EXPECT_EQ(Rule::choose_mode(n, features(3, 0.27), EngineKind::gillespie),
              EngineKind::agent);  // 16.06
}

TEST(HybridEngine, InitialPickReadsTheAllInitialCensus) {
    // z counts the ordered pairs that change nothing: of the 4·3 ordered
    // pairs of an angluin06 census with two leaders and two followers, only
    // the 2 leader-leader pairs react, so z = 1 − 2/12.
    const std::size_t n = 4096;
    const HybridEngine<Angluin> angluin(Angluin{}, n, 1);
    const std::vector<std::pair<AngluinState, std::uint64_t>> census{
        {AngluinState{true}, 2}, {AngluinState{false}, 2}};
    EXPECT_DOUBLE_EQ(angluin.features_of(census).null_mass, 1.0 - 2.0 / 12.0);
    // pll's initial state reacts with itself, so its all-initial census has
    // z = 0 and the run starts on agent.
    const HybridEngine<Pll> pll(Pll::for_population(n), n, 1);
    const std::vector<std::pair<PllState, std::uint64_t>> initial{
        {pll.protocol().initial_state(), n}};
    EXPECT_DOUBLE_EQ(pll.features_of(initial).null_mass, 0.0);
    EXPECT_EQ(pll.mode(), EngineKind::agent);
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
    GillespieEngine<Pll> gillespie(proto, n, 1);
    EXPECT_THROW(gillespie.adopt_census(short_census, 0, std::nullopt),
                 InvalidArgument);
}

// --- forced mid-run switching -----------------------------------------------

TEST(HybridEngine, ForcedSwitchConservesCountsThroughEveryMode) {
    const std::size_t n = 512;
    HybridEngine<Pll> engine(Pll::for_population(n), n, 2026);
    ASSERT_EQ(engine.mode(), EngineKind::agent);

    // Visit the other mode and come back, each via a real census handoff.
    const std::array<EngineKind, 2> walk = {EngineKind::gillespie, EngineKind::agent};
    StepCount last_steps = 0;
    std::size_t expected_switches = 0;
    for (const EngineKind m : walk) {
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
    EXPECT_THROW(engine.force_mode(EngineKind::batched), InvalidArgument);
}

TEST(HybridEngine, ForcedSwitchScheduleIsSeededDeterministic) {
    const std::size_t n = 256;
    const auto run_schedule = [n] {
        HybridEngine<Pll> engine(Pll::for_population(n), n, 77);
        (void)engine.run_for(static_cast<StepCount>(3 * n));
        engine.force_mode(EngineKind::gillespie);
        (void)engine.run_for(static_cast<StepCount>(3 * n));
        engine.force_mode(EngineKind::agent);
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
    const std::size_t n = 256;
    detail::HybridSimulation<Pll> sim(Pll::for_population(n), n, 5);
    DeadlineObserver deadline(/*model_time=*/4.0, n);
    sim.add_observer(deadline);

    // Run to model time 2, switch modes, run past the deadline: the observer
    // must see one continuous run and fire exactly once, at exactly step 4n.
    (void)sim.run_for(static_cast<StepCount>(2 * n));
    ASSERT_FALSE(deadline.report().has_value());
    sim.engine().force_mode(EngineKind::gillespie);
    (void)sim.run_for(static_cast<StepCount>(6 * n));
    ASSERT_TRUE(deadline.report().has_value());
    EXPECT_TRUE(deadline.report()->reached_deadline);
    EXPECT_EQ(deadline.report()->step, static_cast<StepCount>(4 * n));
    EXPECT_EQ(sim.steps(), static_cast<StepCount>(8 * n));
    EXPECT_GE(sim.engine().switches(), 1U);
}

// --- the rule's switches on real runs ---------------------------------------

TEST(HybridEngine, SwitchesFromWideToNarrowModeAsTheRunAbsorbs) {
    // angluin06 starts with every agent a leader (z = 0: agent). By the
    // first evaluation at 16384 steps most leaders are gone, the census is
    // two null-dominated states, and the rule hands over to gillespie.
    const std::size_t n = 4096;
    HybridEngine<Angluin> engine(Angluin{}, n, 9);
    ASSERT_EQ(engine.mode(), EngineKind::agent);
    (void)engine.run_for(16384);
    EXPECT_EQ(engine.mode(), EngineKind::agent);  // the evaluation is due now
    (void)engine.run_for(1);
    EXPECT_EQ(engine.mode(), EngineKind::gillespie);
    EXPECT_EQ(engine.switches(), 1U);
    const RunResult result =
        engine.run_until_one_leader(static_cast<StepCount>(n) * n * 50);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(engine.mode(), EngineKind::gillespie);
    EXPECT_EQ(engine.total_count(), n);
    EXPECT_EQ(engine.leader_count(), 1U);
}

TEST(HybridEngine, LotteryTieTailEndsOnGillespie) {
    // Seed 21 leaves five leaders tied at the top lottery level; the rest
    // of the population is settled, so the census is narrow and almost
    // every meeting is null. The rule must run that tail (about 1700
    // parallel-time units) on gillespie rather than stepping it
    // interaction by interaction.
    const std::size_t n = 4096;
    HybridEngine<Lottery> engine(Lottery::for_population(n), n, 21);
    ASSERT_EQ(engine.mode(), EngineKind::agent);
    (void)engine.run_until_one_leader(static_cast<StepCount>(100 * n));
    ASSERT_GE(engine.leader_count(), 2U) << "the seed no longer reaches the tie tail";
    const RunResult result =
        engine.run_until_one_leader(static_cast<StepCount>(n) * n * 50);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(engine.mode(), EngineKind::gillespie);
    EXPECT_GE(engine.switches(), 1U);
}

TEST(HybridEngine, LargeLotteryStartsOnGillespie) {
    // At n = 2^20 the rule runs gillespie from the first step, and lottery's
    // census (under 50 live states) keeps it there at every evaluation.
    const std::size_t n = std::size_t{1} << 20U;
    HybridEngine<Lottery> engine(Lottery::for_population(n), n, 1);
    EXPECT_EQ(engine.mode(), EngineKind::gillespie);
    (void)engine.run_for(static_cast<StepCount>(8 * n));
    EXPECT_EQ(engine.mode(), EngineKind::gillespie);
    EXPECT_EQ(engine.switches(), 0U);
}

TEST(HybridEngine, WideNoncesLeaveGillespieAtLargePopulations) {
    // mst18_style starts with one live state, so it starts on gillespie even
    // at 2^15. Its nonces then widen towards one state per agent; the
    // evaluation at 1.5n (the second: 16384 steps, then doubling) sees d²
    // far above 16 leap lengths and hands the run to agent.
    const std::size_t n = std::size_t{1} << 15U;
    HybridEngine<MstStyle> engine(MstStyle::for_population(n), n, 3);
    ASSERT_EQ(engine.mode(), EngineKind::gillespie);
    (void)engine.run_for(static_cast<StepCount>(3 * n / 2));
    EXPECT_EQ(engine.mode(), EngineKind::gillespie);  // the evaluation is due now
    (void)engine.run_for(1);
    EXPECT_EQ(engine.mode(), EngineKind::agent);
    EXPECT_EQ(engine.switches(), 1U);
    const RunResult result =
        engine.run_until_one_leader(static_cast<StepCount>(n) * 1000);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(engine.total_count(), n);
}

TEST(HybridEngine, PllSymmetricRunsOnAgentAtTwoToTheFifteen) {
    // pll_symmetric's census grows to ~100–160 live states at 2^15 (d² ≥ 16
    // leap lengths from d = 91): past its early, narrow phase the run
    // belongs on agent, which elects 2–3× faster than gillespie there on a
    // 4-vCPU Xeon (docs/ARCHITECTURE.md).
    const std::size_t n = std::size_t{1} << 15U;
    HybridEngine<SymmetricPll> engine(SymmetricPll::for_population(n), n, 5);
    ASSERT_EQ(engine.mode(), EngineKind::gillespie);
    (void)engine.run_for(static_cast<StepCount>(8 * n));
    EXPECT_EQ(engine.mode(), EngineKind::agent);
    EXPECT_EQ(engine.switches(), 1U);
}

TEST(HybridEngine, CrashBelowTwoToTheFifteenAppliesTheLiveStateCap) {
    // At n = 2^15 pll's ~50–60 live states keep it on gillespie. A crash
    // that halves the population leaves the leap regime: at the next
    // evaluation (11.5n, the fifth) d > 32 sends the run to agent.
    const std::size_t n = std::size_t{1} << 15U;
    HybridEngine<Pll> engine(Pll::for_population(n), n, 4);
    ASSERT_EQ(engine.mode(), EngineKind::gillespie);
    (void)engine.run_for(static_cast<StepCount>(8 * n));
    EXPECT_EQ(engine.mode(), EngineKind::gillespie);
    engine.apply_fault(FaultAction::crash_fraction(0.5));
    ASSERT_EQ(engine.population_size(), n / 2);
    (void)engine.run_for(static_cast<StepCount>(47 * n / 4) + 1 - engine.steps());
    EXPECT_EQ(engine.mode(), EngineKind::agent);
    EXPECT_EQ(engine.switches(), 1U);
    EXPECT_EQ(engine.total_count(), n / 2);
}

TEST(HybridEngine, RejectsPopulationsPastTheCountCeiling) {
    for (const std::uint64_t n : {max_count_population + 1, std::uint64_t{1} << 60U}) {
        EXPECT_THROW(HybridEngine<Angluin>(Angluin{}, n, 1), InvalidArgument) << n;
    }
}

TEST(HybridEngine, RejoinPastTheCountCeilingThrowsInEitherMode) {
    HybridEngine<Angluin> engine(Angluin{}, 256, 1);
    ASSERT_EQ(engine.mode(), EngineKind::agent);
    const FaultAction too_many = FaultAction::rejoin_count(max_count_population - 255);
    EXPECT_THROW(engine.apply_fault(too_many), InvalidArgument);
    engine.force_mode(EngineKind::gillespie);
    EXPECT_THROW(engine.apply_fault(too_many), InvalidArgument);
    EXPECT_EQ(engine.population_size(), 256U);
    EXPECT_EQ(engine.total_count(), 256U);
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
    // pll's census holds more than 32 live states through almost all of the
    // election (and when it briefly holds ~30, half the pairs still react),
    // so the hybrid run stays on agent at this n: the agreement bounds the
    // exact-vs-τ-leap gap through the hybrid stack.
    const std::size_t n = 8192;
    expect_hybrid_agreement("pll", n, 120, static_cast<StepCount>(n) * n * 4, 401,
                            402);
}

TEST(HybridStatisticalAgreement, Angluin06HybridMatchesGillespieAt8192) {
    // Every hybrid angluin06 run switches agent → gillespie at its first
    // evaluation (see SwitchesFromWideToNarrowModeAsTheRunAbsorbs), so the
    // agreement also covers the adopt_census handoff and the per-segment
    // stream split statistically.
    const std::size_t n = 8192;
    expect_hybrid_agreement("angluin06", n, 60, static_cast<StepCount>(n) * n * 16, 411,
                            412);
}

// --- throughput assertion (generous slack; not run under sanitizers) --------

TEST(HybridBenchAssertion, HybridIsCompetitiveWithTheBestFixedEngineOnPll) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = std::size_t{1} << 16U;
    const auto steps = static_cast<StepCount>(16 * n);
    const auto rate_of = [&](EngineKind kind) {
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
    // Generous slack: pll's first 16n steps at 2^16 hold under 64 live
    // states, so the rule keeps them on gillespie, where hybrid measured
    // ~0.94× of the gillespie engine on a 4-vCPU Xeon (the best fixed
    // engine here; agent reached ~0.6×). This ctest bar only guards against
    // a pathological meta-engine overhead; wall-clock noise safe at 0.4×.
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
