// Robustness tests: protocol safety invariants under non-uniform
// (adversarial) schedulers. The paper's time bounds assume the uniformly
// random scheduler; the safety properties must survive any schedule.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "core/adversary.hpp"
#include "core/engine.hpp"
#include "protocols/angluin.hpp"
#include "protocols/pll.hpp"
#include "protocols/pll_symmetric.hpp"

namespace ppsim {
namespace {

TEST(RoundRobinScheduler, CoversAllAgentsEvenly) {
    const std::size_t n = 8;
    RoundRobinScheduler scheduler(n);
    std::vector<int> participation(n, 0);
    for (int i = 0; i < 8 * 4; ++i) {  // 8 full rounds of 4 pairs
        const Interaction ia = scheduler.next();
        ASSERT_NE(ia.initiator, ia.responder);
        ASSERT_LT(ia.initiator, n);
        ASSERT_LT(ia.responder, n);
        ++participation[ia.initiator];
        ++participation[ia.responder];
    }
    for (int count : participation) EXPECT_EQ(count, 8);
}

TEST(RoundRobinScheduler, OddPopulationPlaysFullTournamentWithByes) {
    // Odd n pads the circle with a phantom bye seat: 7 agents → 8 seats,
    // 7 rounds of 3 real pairs = all C(7,2) = 21 unordered pairs exactly
    // once, each agent sitting out exactly one round.
    const std::size_t n = 7;
    RoundRobinScheduler scheduler(n);
    std::vector<int> participation(n, 0);
    std::set<std::pair<AgentId, AgentId>> seen;
    for (int i = 0; i < 21; ++i) {
        const Interaction ia = scheduler.next();
        ASSERT_NE(ia.initiator, ia.responder);
        ASSERT_LT(ia.initiator, n);
        ASSERT_LT(ia.responder, n);
        const AgentId lo = std::min(ia.initiator, ia.responder);
        const AgentId hi = std::max(ia.initiator, ia.responder);
        EXPECT_TRUE(seen.insert({lo, hi}).second) << "pair repeated within tournament";
        ++participation[ia.initiator];
        ++participation[ia.responder];
    }
    EXPECT_EQ(seen.size(), 21U);
    for (int count : participation) EXPECT_EQ(count, 6);  // everyone meets everyone
    // The schedule keeps cycling: the next tournament repeats the coverage.
    for (int i = 0; i < 21; ++i) {
        const Interaction ia = scheduler.next();
        ASSERT_LT(ia.initiator, n);
        ASSERT_LT(ia.responder, n);
    }
}

TEST(RoundRobinScheduler, MinimalOddPopulation) {
    // n = 3 is the smallest odd case: 3 rounds of one real pair each cover
    // all three unordered pairs.
    RoundRobinScheduler scheduler(3);
    std::set<std::pair<AgentId, AgentId>> seen;
    for (int i = 0; i < 3; ++i) {
        const Interaction ia = scheduler.next();
        seen.insert({std::min(ia.initiator, ia.responder),
                     std::max(ia.initiator, ia.responder)});
    }
    EXPECT_EQ(seen.size(), 3U);
}

TEST(StarScheduler, AlwaysInvolvesTheHub) {
    StarScheduler scheduler(16, 7);
    for (int i = 0; i < 1000; ++i) {
        const Interaction ia = scheduler.next();
        EXPECT_TRUE(ia.initiator == 0 || ia.responder == 0);
        EXPECT_NE(ia.initiator, ia.responder);
    }
}

TEST(CliqueBiasedScheduler, RespectsBiasRoughly) {
    const std::size_t n = 64;
    const std::size_t clique = 8;
    CliqueBiasedScheduler scheduler(n, clique, 0.9, 11);
    int inside = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        const Interaction ia = scheduler.next();
        ASSERT_NE(ia.initiator, ia.responder);
        if (ia.initiator < clique && ia.responder < clique) ++inside;
    }
    // 90% forced inside + a sliver of the uniform 10% also landing inside.
    EXPECT_GT(static_cast<double>(inside) / trials, 0.85);
    EXPECT_THROW(CliqueBiasedScheduler(8, 1, 0.5, 1), InvalidArgument);
    EXPECT_THROW(CliqueBiasedScheduler(8, 4, 1.5, 1), InvalidArgument);
}

/// Shared safety harness: drive PLL under a scheduler and re-check the
/// invariants the paper's proofs rely on.
template <typename SchedulerT>
void expect_pll_safety_under(SchedulerT& scheduler, std::size_t n, StepCount steps) {
    Engine<Pll> engine(Pll::for_population(n), n, 1);
    const Pll& pll = engine.protocol();
    std::vector<bool> was_follower(n, false);
    for (StepCount step = 0; step < steps; ++step) {
        const Interaction ia = scheduler.next();
        engine.apply(ia);
        for (const AgentId id : {ia.initiator, ia.responder}) {
            const PllState& s = engine.population()[id];
            ASSERT_LE(s.epoch, 4);
            ASSERT_LE(s.init, s.epoch);
            ASSERT_LE(s.level_q, pll.config().lmax());
            ASSERT_LE(s.level_b, pll.config().lmax());
            ASSERT_LT(s.rand, 1U << pll.config().phi());
            if (was_follower[id]) ASSERT_FALSE(s.leader);
            if (!s.leader) was_follower[id] = true;
        }
        ASSERT_GE(engine.leader_count(), 1U);
    }
}

TEST(AdversarialSafety, PllUnderRoundRobin) {
    RoundRobinScheduler scheduler(64);
    expect_pll_safety_under(scheduler, 64, 400'000);
}

TEST(AdversarialSafety, PllUnderStar) {
    StarScheduler scheduler(64, 21);
    expect_pll_safety_under(scheduler, 64, 400'000);
}

TEST(AdversarialSafety, PllUnderCliqueBias) {
    CliqueBiasedScheduler scheduler(64, 8, 0.95, 22);
    expect_pll_safety_under(scheduler, 64, 400'000);
}

TEST(AdversarialSafety, SymmetricCoinInvariantUnderStar) {
    // #F0 = #F1 is a *safety* property of the symmetric variant: it must
    // hold under arbitrary scheduling, not just uniform.
    const std::size_t n = 48;
    Engine<SymmetricPll> engine(SymmetricPll::for_population(n), n, 2);
    StarScheduler scheduler(n, 5);
    for (int burst = 0; burst < 200; ++burst) {
        for (int i = 0; i < 500; ++i) engine.apply(scheduler.next());
        std::int64_t balance = 0;
        for (const SymPllState& s : engine.population().states()) {
            if (s.leader) continue;
            if (s.coin == CoinStatus::f0) ++balance;
            if (s.coin == CoinStatus::f1) --balance;
        }
        ASSERT_EQ(balance, 0);
        ASSERT_GE(engine.leader_count(), 1U);
    }
}

TEST(AdversarialSafety, AngluinStabilisesUnderRoundRobin) {
    // Round-robin is a fair schedule, so even the constant-state protocol
    // must eventually reach one leader under it.
    const std::size_t n = 32;
    Engine<Angluin> engine(Angluin{}, n, 1);
    RoundRobinScheduler scheduler(n);
    StepCount steps = 0;
    while (engine.leader_count() > 1 && steps < 1'000'000) {
        engine.apply(scheduler.next());
        ++steps;
    }
    EXPECT_EQ(engine.leader_count(), 1U);
}

TEST(AdversarialSafety, PllUnderOddRoundRobin) {
    RoundRobinScheduler scheduler(63);
    expect_pll_safety_under(scheduler, 63, 400'000);
}

TEST(AdversarialSafety, ResumingUniformSchedulingStillElects) {
    // Failure-injection: an adversarial prefix (biased clique) followed by a
    // return to uniform scheduling. PLL must still elect exactly one leader
    // — this exercises recovery from arbitrary reachable configurations
    // (the probability-1 correctness of Lemma 9/10).
    const std::size_t n = 128;
    Engine<Pll> engine(Pll::for_population(n), n, 77);
    CliqueBiasedScheduler adversary(n, 16, 0.98, 5);
    drive(engine, adversary, 300'000);
    ASSERT_GE(engine.leader_count(), 1U);
    const RunResult result = engine.run_until_one_leader(80'000'000);
    ASSERT_TRUE(result.converged);
    EXPECT_TRUE(engine.verify_outputs_stable(20 * static_cast<StepCount>(n)));
}

}  // namespace
}  // namespace ppsim
