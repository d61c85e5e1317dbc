// Invariant and integration tests for the reaction-rate Gillespie engine
// (src/core/gillespie_engine.hpp):
//
//  * agent-count conservation and incremental-leader-count consistency
//    across the execution paths (exact SSA below the leap threshold,
//    paired and separable τ-leaps above it);
//  * seeded determinism of full runs;
//  * exactness guarantee at small n (the engine must never leap there — the
//    property the KS harness in test_statistical.cpp relies on);
//  * separable leaps: taken only where a brute-force check finds every live
//    cell factorising, nearly always in PLL's count-up wait, never for rated
//    protocols, and for angluin06 only while no follower is live;
//  * the run/verify surface (run_for step exactness, verify_outputs_stable);
//  * the engine-table row, registry dispatch and Simulation adapter
//    (snapshots, observers) for the third back-end.
//
// Distributional agreement with the other engines lives in
// test_statistical.cpp; golden seeded replays in test_golden_seeds.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "core/gillespie_engine.hpp"
#include "core/observer.hpp"
#include "core/simulation.hpp"
#include "protocols/angluin.hpp"
#include "protocols/lottery.hpp"
#include "protocols/pll.hpp"
#include "protocols/rated.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

static_assert(InternableProtocol<Angluin>);
static_assert(InternableProtocol<Lottery>);
static_assert(InternableProtocol<Pll>);

TEST(EngineTable, GillespieRowRoundTrips) {
    EXPECT_EQ(parse_engine_kind("gillespie"), EngineKind::gillespie);
    EXPECT_EQ(to_string(EngineKind::gillespie), "gillespie");
    EXPECT_NE(engine_kind_list().find("gillespie"), std::string::npos);
}

TEST(GillespieEngine, ConservesAgentsAndLeaderCountInExactRegime) {
    const std::size_t n = 256;  // below leap_min_population: exact SSA paths
    GillespieEngine<Lottery> engine(Lottery::for_population(n), n, 7);
    ASSERT_LT(n, GillespieEngine<Lottery>::leap_min_population);
    for (int i = 0; i < 20; ++i) {
        (void)engine.run_for(500);
        EXPECT_EQ(engine.total_count(), n);
        const std::size_t incremental = engine.leader_count();
        EXPECT_EQ(engine.recount_leaders(), incremental);
    }
    EXPECT_EQ(engine.leaps_taken(), 0U) << "engine leaped below its population floor";
}

TEST(GillespieEngine, ConservesAgentsAndLeaderCountInLeapRegime) {
    // Through QuickElimination into the count-up timer wait (t = 64). At
    // 2^13 the wait is too wide for the separable gate and every leap after
    // the first is paired; at 2^20 the wait's leaps are separable.
    for (const std::size_t n : {std::size_t{1} << 13U, std::size_t{1} << 20U}) {
        GillespieEngine<Pll> engine(Pll::for_population(n), n, 11);
        std::uint64_t separable_in_wait = 0;
        while (engine.parallel_time() < 64.0) {
            const std::uint64_t separable_before = engine.separable_leaps();
            (void)engine.run_for(n / 2);
            if (engine.parallel_time() > 40.0) {
                separable_in_wait += engine.separable_leaps() - separable_before;
            }
            ASSERT_EQ(engine.total_count(), n) << "at t = " << engine.parallel_time();
            const std::size_t incremental = engine.leader_count();
            ASSERT_EQ(engine.recount_leaders(), incremental) << "at t = " << engine.parallel_time();
        }
        EXPECT_GT(engine.leaps_taken(), 0U) << "leap path never engaged at n = " << n;
        if (n == std::size_t{1} << 20U) {
            EXPECT_GT(separable_in_wait, 0U) << "no separable leap in the timer wait";
        }
    }
}

// --- separable leaps ----------------------------------------------------------

/// Brute-force restatement of the separable-leap condition on a census: for
/// every live state a, `Pll::interact` gives the initiator the same output
/// against every live responder, and for every live state b the responder
/// the same output against every live initiator.
bool every_live_cell_factorises(const Pll& pll, const std::vector<PllState>& live) {
    for (const PllState& a : live) {
        std::optional<PllState> initiator_out;
        std::optional<PllState> responder_out;
        for (const PllState& b : live) {
            PllState x = a;
            PllState y = b;
            pll.interact(x, y);
            if (initiator_out && *initiator_out != x) return false;
            initiator_out = x;
            x = b;
            y = a;
            pll.interact(x, y);
            if (responder_out && *responder_out != y) return false;
            responder_out = y;
        }
    }
    return true;
}

TEST(GillespieEngine, SeparableLeapsOnlyWhereEveryLiveCellFactorises) {
    // One leap per call (run_for(n/64)) through QuickElimination and the
    // count-up wait. Whenever the separable counter advances, the pre-leap
    // census must pass the brute-force check; and in the wait, where timer
    // agents advance whatever they meet, nearly every leap is separable.
    const std::size_t n = std::size_t{1} << 20U;
    const StepCount leap = n / GillespieEngine<Pll>::leap_divisor;
    GillespieEngine<Pll> engine(Pll::for_population(n), n, 2023);
    std::vector<std::uint64_t> verified_keys;  // last live set that passed
    std::uint64_t wait_leaps = 0;
    std::uint64_t wait_separable = 0;
    while (engine.parallel_time() < 300.0) {
        std::vector<PllState> live;
        engine.visit_counts([&](const PllState& s, std::uint64_t, Role) { live.push_back(s); });
        const double t = engine.parallel_time();
        const std::uint64_t leaps_before = engine.leaps_taken();
        const std::uint64_t separable_before = engine.separable_leaps();
        (void)engine.run_for(leap);
        const bool separable = engine.separable_leaps() != separable_before;
        if (t >= 40.0) {
            wait_leaps += engine.leaps_taken() - leaps_before;
            wait_separable += engine.separable_leaps() - separable_before;
        }
        if (!separable) continue;
        std::vector<std::uint64_t> keys;
        for (const PllState& s : live) keys.push_back(engine.protocol().state_key(s));
        if (keys == verified_keys) continue;  // the same live set passed already
        ASSERT_TRUE(every_live_cell_factorises(engine.protocol(), live))
            << "separable leap at t = " << t << " over " << live.size()
            << " live states with a non-factorising cell";
        verified_keys = std::move(keys);
    }
    ASSERT_GT(wait_leaps, 0U);
    EXPECT_GE(static_cast<double>(wait_separable), 0.9 * static_cast<double>(wait_leaps))
        << wait_separable << " of " << wait_leaps << " leaps in t in [40, 300] were separable";
    EXPECT_EQ(engine.total_count(), n);
    const std::size_t incremental = engine.leader_count();
    EXPECT_EQ(engine.recount_leaders(), incremental);
}

TEST(GillespieEngine, LeaderMeetsLeaderAndRatedProtocolsKeepPairing) {
    const std::size_t n = std::size_t{1} << 14U;
    const StepCount leap = n / GillespieEngine<Angluin>::leap_divisor;
    // angluin06: while every agent is a leader the one live cell is (L, L),
    // which trivially factorises, so the first leap is separable. From then
    // on followers are live too, and a responder leader's output depends on
    // its initiator: against L it becomes F, against F it stays L. No later
    // leap may skip the pairing.
    GillespieEngine<Angluin> angluin(Angluin{}, n, 5);
    (void)angluin.run_for(leap);
    EXPECT_EQ(angluin.separable_leaps(), 1U);
    (void)angluin.run_for(static_cast<StepCount>(n) * 8);
    EXPECT_GT(angluin.leaps_taken(), 100U);
    EXPECT_EQ(angluin.separable_leaps(), 1U) << "a leader-meets-leader leap skipped its pairing";

    // rated_election thins per cell, so it never takes the separable path.
    GillespieEngine<TwoRateElection> rated(TwoRateElection::for_population(n), n, 5);
    (void)rated.run_for(static_cast<StepCount>(n) * 8);
    EXPECT_GT(rated.leaps_taken(), 0U);
    EXPECT_EQ(rated.separable_leaps(), 0U);
}

TEST(GillespieEngine, RunForExecutesExactlyTheRequestedSteps) {
    for (const std::size_t n : {std::size_t{128}, std::size_t{16384}}) {
        GillespieEngine<Angluin> engine(Angluin{}, n, 3);
        (void)engine.run_for(1);
        EXPECT_EQ(engine.steps(), 1U);
        (void)engine.run_for(9999);
        EXPECT_EQ(engine.steps(), 10000U);
        (void)engine.run_for(0);
        EXPECT_EQ(engine.steps(), 10000U);
    }
}

TEST(GillespieEngine, IsDeterministicForEqualSeeds) {
    for (const std::size_t n : {std::size_t{512}, std::size_t{8192}}) {
        GillespieEngine<Lottery> a(Lottery::for_population(n), n, 99);
        GillespieEngine<Lottery> b(Lottery::for_population(n), n, 99);
        const RunResult ra = a.run_until_one_leader(static_cast<StepCount>(n) * n);
        const RunResult rb = b.run_until_one_leader(static_cast<StepCount>(n) * n);
        EXPECT_EQ(ra.steps, rb.steps);
        EXPECT_EQ(ra.leader_count, rb.leader_count);
        EXPECT_EQ(ra.stabilization_step, rb.stabilization_step);
        EXPECT_EQ(a.count_of(a.protocol().initial_state()),
                  b.count_of(b.protocol().initial_state()));
    }
}

TEST(GillespieEngine, StabilizationStepIsRecordedAndPlausible) {
    const std::size_t n = 1024;
    GillespieEngine<Lottery> engine(Lottery::for_population(n), n, 5);
    const RunResult r = engine.run_until_one_leader(static_cast<StepCount>(n) * n);
    ASSERT_TRUE(r.converged);
    ASSERT_TRUE(r.stabilization_step.has_value());
    EXPECT_GE(*r.stabilization_step, 1U);
    EXPECT_LE(*r.stabilization_step, r.steps);
    EXPECT_EQ(engine.leader_count(), 1U);
}

TEST(GillespieEngine, NullSkippingJumpsDeadTailsInOneRound) {
    // angluin06 with a single leader is fully absorbed: every channel is
    // null, so run_for must consume any budget in O(1) rounds rather than
    // stepping through it.
    const std::size_t n = 512;
    GillespieEngine<Angluin> engine(Angluin{}, n, 21);
    const RunResult r = engine.run_until_one_leader(static_cast<StepCount>(n) * n * 60);
    ASSERT_TRUE(r.converged);
    const StepCount before = engine.steps();
    (void)engine.run_for(1'000'000'000ULL);  // a billion dead steps, instantly
    EXPECT_EQ(engine.steps(), before + 1'000'000'000ULL);
    EXPECT_EQ(engine.leader_count(), 1U);
}

TEST(GillespieEngine, VerifyOutputsStableAfterConvergence) {
    const std::size_t n = 512;
    GillespieEngine<Lottery> engine(Lottery::for_population(n), n, 13);
    const RunResult r = engine.run_until_one_leader(static_cast<StepCount>(n) * n);
    ASSERT_TRUE(r.converged);
    EXPECT_TRUE(engine.verify_outputs_stable(static_cast<StepCount>(n) * 64));
    EXPECT_EQ(engine.leader_count(), 1U);
}

TEST(GillespieEngine, VisitCountsEnumeratesTheWholePopulation) {
    const std::size_t n = 2048;
    GillespieEngine<Pll> engine(Pll::for_population(n), n, 17);
    (void)engine.run_for(static_cast<StepCount>(n) * 4);
    std::uint64_t total = 0;
    std::uint64_t leaders = 0;
    engine.visit_counts([&](const auto&, std::uint64_t count, Role role) {
        total += count;
        if (role == Role::leader) leaders += count;
    });
    EXPECT_EQ(total, n);
    EXPECT_EQ(leaders, engine.leader_count());
    EXPECT_EQ(engine.live_state_count(), static_cast<std::size_t>([&] {
                  std::size_t states = 0;
                  engine.visit_counts([&](const auto&, std::uint64_t, Role) { ++states; });
                  return states;
              }()));
}

// --- registry / Simulation adapter integration ------------------------------

TEST(GillespieSimulation, EveryRegisteredProtocolElectsOneLeader) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const std::string& name : registry.names()) {
        const std::size_t n = 512;
        const RunResult r = registry.run_election(
            name, n, 2019, static_cast<StepCount>(n) * n * 60, EngineKind::gillespie);
        EXPECT_TRUE(r.converged) << name << " did not elect a leader on gillespie";
        EXPECT_EQ(r.leader_count, 1U) << name;
    }
}

TEST(GillespieSimulation, ReportsItsKindAndSnapshotAgreesWithEngineCounts) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 1024;
    const auto sim = registry.make_simulation("pll", n, 7, EngineKind::gillespie);
    EXPECT_EQ(sim->engine_kind(), EngineKind::gillespie);
    (void)sim->run_for(static_cast<StepCount>(n) * 2);
    const ConfigurationSnapshot snapshot = sim->state_counts();
    EXPECT_EQ(snapshot.total(), n);
    EXPECT_EQ(snapshot.leaders(), sim->leader_count());
    EXPECT_EQ(snapshot.counts.size(), sim->live_state_count());
    EXPECT_EQ(snapshot.step, sim->steps());
    for (std::size_t i = 1; i < snapshot.counts.size(); ++i) {
        EXPECT_LT(snapshot.counts[i - 1].key, snapshot.counts[i].key);  // sorted census
    }
}

TEST(GillespieSimulation, SnapshotKeysMatchTheAgentEngineAtRunStart) {
    // Same protocol, both engines at step 0: identical censuses (one state,
    // canonical key equal across engines).
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 256;
    const auto agent = registry.make_simulation("lottery", n, 3, EngineKind::agent);
    const auto gillespie = registry.make_simulation("lottery", n, 3, EngineKind::gillespie);
    const ConfigurationSnapshot sa = agent->state_counts();
    const ConfigurationSnapshot sg = gillespie->state_counts();
    ASSERT_EQ(sa.counts.size(), sg.counts.size());
    for (std::size_t i = 0; i < sa.counts.size(); ++i) {
        EXPECT_EQ(sa.counts[i].key, sg.counts[i].key);
        EXPECT_EQ(sa.counts[i].count, sg.counts[i].count);
    }
}

TEST(GillespieSimulation, ObserversSeeMonotoneCadencedTrajectories) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 8192;  // leap regime: deadlines must clamp leaps
    const auto sim = registry.make_simulation("pll", n, 11, EngineKind::gillespie);
    TrajectoryRecorder recorder(/*stride=*/n / 4, /*record_live_states=*/true);
    sim->add_observer(recorder);
    const RunResult r = sim->run_until_one_leader(static_cast<StepCount>(n) * 400);
    ASSERT_TRUE(r.converged);
    const std::vector<TrajectoryPoint>& points = recorder.points();
    ASSERT_GE(points.size(), 2U);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GT(points[i].step, points[i - 1].step);
    }
    EXPECT_EQ(points.back().leader_count, 1U);
    EXPECT_GE(points.front().leader_count, points.back().leader_count);
}

TEST(GillespieSimulation, RunToSingleLeaderWithVerificationCertifies) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::size_t n = 512;
    const RunResult r = registry.run_election_verified(
        "lottery", n, 77, static_cast<StepCount>(n) * n, static_cast<StepCount>(n) * 32,
        EngineKind::gillespie);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.leader_count, 1U);
}

// --- sampler marginals: per-channel firing frequencies ∝ propensities -------

/// Fixed-point race protocol for the sampler-marginal chi-square tests.
/// A deterministic bootstrap drains the uniform initial state U: U×U mints
/// an (A, B) pair, so with odd n the configuration settles at the invariant
/// counts {U: 1, A: (n−1)/2, B: (n−1)/2} — from then on the only non-null
/// channels are four count-preserving swaps, so the channel propensities
/// are constant forever and the per-channel firing frequencies must be
/// exactly multinomial with weights c_a·(c_b − [a = b])·rate(a, b):
///
///   (A,B)→(B,A)  rate 1      (B,A)→(A,B)  rate 2
///   (U,A)→(A,U)  rate 4      (B,U)→(U,B)  rate 8
///
/// With `uniform_rates` every rate is 1 and the expected frequencies reduce
/// to the structural weights — the rate-free control.
struct RaceState {
    std::uint8_t kind = 0;  ///< 0 = U, 1 = A, 2 = B

    friend constexpr bool operator==(const RaceState&, const RaceState&) = default;
};

class RateRace {
public:
    using State = RaceState;

    explicit RateRace(bool uniform_rates = false) : uniform_(uniform_rates) {}

    [[nodiscard]] State initial_state() const noexcept { return State{}; }

    [[nodiscard]] Role output(const State& s) const noexcept {
        return s.kind == 0 ? Role::leader : Role::follower;  // keeps U countable
    }

    void interact(State& a0, State& a1) const noexcept {
        if (a0.kind == 0 && a1.kind == 0) {  // bootstrap: mint an (A, B) pair
            a0.kind = 1;
            a1.kind = 2;
        } else if ((a0.kind == 1 && a1.kind == 2) || (a0.kind == 2 && a1.kind == 1) ||
                   (a0.kind == 0 && a1.kind == 1) || (a0.kind == 2 && a1.kind == 0)) {
            std::swap(a0.kind, a1.kind);  // count-preserving swap channels
        }
    }

    [[nodiscard]] double rate(const State& a, const State& b) const noexcept {
        if (uniform_) return 1.0;
        if (a.kind == 1 && b.kind == 2) return 1.0;
        if (a.kind == 2 && b.kind == 1) return 2.0;
        if (a.kind == 0 && b.kind == 1) return 4.0;
        if (a.kind == 2 && b.kind == 0) return 8.0;
        return 1.0;  // null channels: the rate never matters
    }

    [[nodiscard]] double max_rate() const noexcept { return 8.0; }

    [[nodiscard]] std::string_view name() const noexcept { return "rate_race"; }

    [[nodiscard]] std::uint64_t state_key(const State& s) const noexcept {
        return s.kind;
    }

    [[nodiscard]] std::size_t state_bound() const noexcept { return 3; }

private:
    bool uniform_;
};

static_assert(RatedProtocol<RateRace>);
static_assert(!RatedProtocol<Angluin>);

/// Runs the race to its invariant configuration, tallies `target_events`
/// exact-SSA firings, and returns the chi-square statistic of the observed
/// per-channel frequencies against the expected propensity proportions.
double race_chi_square(bool uniform_rates, std::uint64_t seed,
                       std::uint64_t target_events) {
    const std::size_t n = 9;  // odd: settles at U=1, A=4, B=4
    GillespieEngine<RateRace> engine(RateRace{uniform_rates}, n, seed);
    // Warm up to the invariant configuration (U drained to one agent).
    while (engine.count_of(RaceState{0}) != 1) {
        (void)engine.run_for(64);
    }
    engine.enable_channel_tally();
    const std::uint64_t warm_events = engine.exact_events();
    while (engine.exact_events() < warm_events + target_events) {
        (void)engine.run_for(4096);
    }
    // Expected proportions: weight c_a·(c_b − [a = b])·rate over the four
    // swap channels at counts U=1, A=4, B=4. Keys: U=0, A=1, B=2.
    struct Expected {
        std::uint64_t key_a;
        std::uint64_t key_b;
        double weight;
    };
    const double r1 = uniform_rates ? 1.0 : 1.0;
    const double r2 = uniform_rates ? 1.0 : 2.0;
    const double r3 = uniform_rates ? 1.0 : 4.0;
    const double r4 = uniform_rates ? 1.0 : 8.0;
    const std::vector<Expected> expected = {
        {1, 2, 4.0 * 4.0 * r1},  // (A,B)
        {2, 1, 4.0 * 4.0 * r2},  // (B,A)
        {0, 1, 1.0 * 4.0 * r3},  // (U,A)
        {2, 0, 4.0 * 1.0 * r4},  // (B,U)
    };
    double total_weight = 0.0;
    for (const Expected& e : expected) total_weight += e.weight;

    const std::vector<ChannelFiredCount> tally = engine.channel_tally();
    std::uint64_t observed_total = 0;
    for (const ChannelFiredCount& row : tally) observed_total += row.fired;
    EXPECT_GE(observed_total, target_events);

    double chi_square = 0.0;
    std::size_t matched = 0;
    for (const Expected& e : expected) {
        std::uint64_t fired = 0;
        for (const ChannelFiredCount& row : tally) {
            if (row.initiator_key == e.key_a && row.responder_key == e.key_b) {
                fired = row.fired;
                ++matched;
            }
        }
        const double exp_count =
            static_cast<double>(observed_total) * e.weight / total_weight;
        const double diff = static_cast<double>(fired) - exp_count;
        chi_square += diff * diff / exp_count;
    }
    EXPECT_EQ(matched, expected.size()) << "a race channel never fired";
    EXPECT_EQ(tally.size(), expected.size())
        << "the invariant configuration fired an unexpected channel";
    return chi_square;
}

/// Critical value of chi-square with 3 degrees of freedom at α = 0.001.
/// Seeds are fixed, so these are regression bars (like the KS harness): the
/// committed seeds pass with wide margin, and a mis-weighted channel draw
/// (e.g. rates ignored, or applied squared) drives the statistic into the
/// thousands at these sample sizes.
constexpr double chi_square_3df_crit = 16.27;

TEST(GillespieRates, ChannelFiringFrequenciesMatchRateWeightedPropensities) {
    EXPECT_LT(race_chi_square(/*uniform_rates=*/false, 2019, 40000),
              chi_square_3df_crit);
    EXPECT_LT(race_chi_square(/*uniform_rates=*/false, 7, 40000),
              chi_square_3df_crit);
}

TEST(GillespieRates, UniformRatesReduceToStructuralWeights) {
    EXPECT_LT(race_chi_square(/*uniform_rates=*/true, 2019, 40000),
              chi_square_3df_crit);
}

TEST(GillespieRates, RateZeroChannelsNeverFire) {
    // A rate can be zero: the channel is then excluded from the propensity
    // sum and must never fire. Freeze the race's (A,B) channel.
    class FrozenRace : public RateRace {
    public:
        using RateRace::RateRace;
        [[nodiscard]] double rate(const RaceState& a, const RaceState& b) const noexcept {
            if (a.kind == 1 && b.kind == 2) return 0.0;
            return RateRace::rate(a, b);
        }
    };
    static_assert(RatedProtocol<FrozenRace>);
    GillespieEngine<FrozenRace> engine(FrozenRace{}, 9, 11);
    while (engine.count_of(RaceState{0}) != 1) {
        (void)engine.run_for(64);
    }
    engine.enable_channel_tally();
    (void)engine.run_for(200000);
    for (const ChannelFiredCount& row : engine.channel_tally()) {
        EXPECT_FALSE(row.initiator_key == 1 && row.responder_key == 2)
            << "rate-zero channel fired " << row.fired << " times";
    }
}

}  // namespace
}  // namespace ppsim
