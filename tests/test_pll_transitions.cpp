// Transition-level tests of PLL against hand-computed traces of
// Algorithms 1–5 (Sudo et al., PODC 2019). Each test drives interact() on
// crafted states and checks the exact post-states the pseudocode dictates.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "protocols/pll.hpp"
#include "protocols/pll_symmetric.hpp"

namespace ppsim {
namespace {

// A small, fixed parameterisation keeps hand computation tractable:
// m = 4 ⇒ lmax = 20, cmax = 164, Φ = ⌈(2/3)·lg 4⌉ = ⌈4/3⌉ = 2.
PllConfig test_config() {
    PllConfig cfg;
    cfg.m = 4;
    return cfg;
}

Pll make_pll() { return Pll(test_config()); }

/// A status-assigned leader candidate fresh out of lines 1–2.
PllState fresh_leader() {
    PllState s;
    s.status = PllStatus::a;
    s.leader = true;
    s.level_q = 0;
    s.done = false;
    return s;
}

/// A status-assigned timer agent fresh out of line 3.
PllState fresh_timer() {
    PllState s;
    s.status = PllStatus::b;
    s.leader = false;
    s.count = 0;
    return s;
}

/// A VA follower (done lottery, not a leader).
PllState va_follower() {
    PllState s;
    s.status = PllStatus::a;
    s.leader = false;
    s.done = true;
    return s;
}

// --- lines 1–6: status assignment ---------------------------------------------

TEST(PllStatusAssignment, FirstMeetingSplitsIntoCandidateAndTimer) {
    const Pll pll = make_pll();
    PllState a0;  // both in the initial state: status X, leader
    PllState a1;
    pll.interact(a0, a1);
    // Line 2: initiator → A, levelQ = 0, done = false, stays a leader.
    // The same interaction then reaches line 35 (the new leader faces the
    // new follower and is the initiator), so its first — guaranteed-head —
    // coin flip already happened: levelQ = 1. Every X×X initiator gets this
    // same +1, so the lottery comparison is unaffected.
    EXPECT_EQ(a0.status, PllStatus::a);
    EXPECT_EQ(a0.level_q, 1);
    EXPECT_FALSE(a0.done);
    EXPECT_TRUE(a0.leader);
    // Line 3: responder → B, follower. Its timer then ticks once in the
    // CountUp of this same interaction (line 24), so count = 1.
    EXPECT_EQ(a1.status, PllStatus::b);
    EXPECT_FALSE(a1.leader);
    EXPECT_EQ(a1.count, 1);
}

TEST(PllStatusAssignment, LatecomerJoinsAsNonPlayingFollower) {
    const Pll pll = make_pll();
    PllState late;  // status X
    PllState assigned = fresh_leader();
    pll.interact(late, assigned);
    // Line 5: A, levelQ = 0, done = true, follower.
    EXPECT_EQ(late.status, PllStatus::a);
    EXPECT_EQ(late.level_q, 0);
    EXPECT_TRUE(late.done);
    EXPECT_FALSE(late.leader);
    // The assigned agent keeps its status.
    EXPECT_EQ(assigned.status, PllStatus::a);
}

TEST(PllStatusAssignment, LatecomerAsResponderAlsoJoins) {
    const Pll pll = make_pll();
    PllState timer = fresh_timer();
    PllState late;  // status X
    pll.interact(timer, late);
    EXPECT_EQ(late.status, PllStatus::a);
    EXPECT_TRUE(late.done);
    EXPECT_FALSE(late.leader);
    EXPECT_EQ(timer.status, PllStatus::b);
}

TEST(PllStatusAssignment, StatusesNeverChangeOnceAssigned) {
    const Pll pll = make_pll();
    PllState a = fresh_leader();
    PllState b = fresh_timer();
    pll.interact(a, b);
    EXPECT_EQ(a.status, PllStatus::a);
    EXPECT_EQ(b.status, PllStatus::b);
    pll.interact(b, a);
    EXPECT_EQ(a.status, PllStatus::a);
    EXPECT_EQ(b.status, PllStatus::b);
}

// --- Algorithm 2: CountUp ---------------------------------------------------------

TEST(PllCountUp, TimerIncrementsEachInteraction) {
    const Pll pll = make_pll();
    PllState timer = fresh_timer();
    PllState follower = va_follower();
    pll.interact(timer, follower);
    EXPECT_EQ(timer.count, 1);
    pll.interact(follower, timer);  // role does not matter for the timer
    EXPECT_EQ(timer.count, 2);
}

TEST(PllCountUp, WrapMintsNewColorAndAdvancesEpoch) {
    const Pll pll = make_pll();
    const unsigned cmax = test_config().cmax();
    PllState timer = fresh_timer();
    timer.count = static_cast<std::uint16_t>(cmax - 1);
    PllState follower = va_follower();
    pll.interact(timer, follower);
    // Lines 24–28: count wraps to 0, colour 0 → 1, tick raised ⇒ epoch 2.
    EXPECT_EQ(timer.count, 0);
    EXPECT_EQ(timer.color, 1);
    EXPECT_EQ(timer.epoch, 2);
    // Line 10: the partner synchronises to the max epoch and, via lines
    // 30–34, adopts the new colour (tick ⇒ epoch advance happened there too).
    EXPECT_EQ(follower.color, 1);
    EXPECT_EQ(follower.epoch, 2);
}

TEST(PllCountUp, NewColorSpreadsByEpidemicAndResetsTimerCount) {
    const Pll pll = make_pll();
    PllState ahead = va_follower();
    ahead.color = 1;
    ahead.epoch = 2;
    ahead.init = 2;
    PllState behind = fresh_timer();
    behind.count = 37;
    pll.interact(behind, ahead);
    // Lines 30–34: behind adopts colour 1, raises tick (⇒ epoch 2) and, as a
    // timer agent, restarts its counter. Note count was incremented to 38
    // by line 24 first, then reset by line 33.
    EXPECT_EQ(behind.color, 1);
    EXPECT_EQ(behind.count, 0);
    EXPECT_EQ(behind.epoch, 2);
}

TEST(PllCountUp, ColorComparisonIsCyclic) {
    const Pll pll = make_pll();
    PllState ahead = va_follower();  // colour 0 is "ahead" of colour 2
    ahead.color = 0;
    PllState behind = va_follower();
    behind.color = 2;
    pll.interact(behind, ahead);
    EXPECT_EQ(behind.color, 0);
}

TEST(PllCountUp, EqualColorsDoNotTick) {
    const Pll pll = make_pll();
    PllState a = va_follower();
    PllState b = va_follower();
    pll.interact(a, b);
    EXPECT_EQ(a.epoch, 1);
    EXPECT_EQ(b.epoch, 1);
    EXPECT_EQ(a.color, 0);
}

TEST(PllCountUp, StaleColorDoesNotPropagateBackwards) {
    const Pll pll = make_pll();
    PllState ahead = va_follower();
    ahead.color = 1;
    PllState stale = va_follower();
    stale.color = 0;
    pll.interact(ahead, stale);
    // Only the stale agent moves; the ahead agent must not regress to 0.
    EXPECT_EQ(ahead.color, 1);
    EXPECT_EQ(stale.color, 1);
}

// --- lines 9–15: epochs and group initialisation -----------------------------------

TEST(PllEpochs, SynchroniseToPairwiseMax) {
    const Pll pll = make_pll();
    PllState lagging = va_follower();  // epoch 1
    PllState ahead = va_follower();
    ahead.epoch = 3;
    ahead.init = 3;
    ahead.done = false;
    ahead.level_q = 0;
    ahead.index = 2;  // Φ = 2: a finished follower in epoch 3
    pll.interact(lagging, ahead);
    EXPECT_EQ(lagging.epoch, 3);
    EXPECT_EQ(ahead.epoch, 3);
}

TEST(PllEpochs, EnteringTournamentInitialisesNonceVariables) {
    const Pll pll = make_pll();
    // A leader in epoch 1 meets an epoch-2 agent: line 10 lifts it to epoch
    // 2 and line 12 gives it (rand, index) = (0, 0) — it still owes Φ flips.
    PllState leader = fresh_leader();
    leader.level_q = 3;
    leader.done = true;
    PllState ahead = va_follower();
    ahead.epoch = 2;
    ahead.init = 2;
    ahead.index = 2;  // finished follower (fidelity note 3: followers start at Φ)
    pll.interact(leader, ahead);
    EXPECT_EQ(leader.epoch, 2);
    EXPECT_EQ(leader.init, 2);
    EXPECT_EQ(leader.rand, 0);
    EXPECT_EQ(leader.index, 1);  // line 12 set 0; then one Tournament flip ran
    EXPECT_EQ(leader.level_q, 0);  // dead V1 fields are canonicalised to zero
}

TEST(PllEpochs, FollowerEntersTournamentWithIndexPhi) {
    const Pll pll = make_pll();
    PllState follower = va_follower();  // epoch 1 follower
    PllState ahead = va_follower();
    ahead.epoch = 2;
    ahead.init = 2;
    ahead.index = 2;
    pll.interact(follower, ahead);
    EXPECT_EQ(follower.epoch, 2);
    // Fidelity note 3: followers join the nonce epidemic immediately.
    EXPECT_EQ(follower.index, test_config().phi());
    EXPECT_EQ(follower.rand, 0);
}

TEST(PllEpochs, EnteringBackUpResetsLevelB) {
    const Pll pll = make_pll();
    PllState leader = fresh_leader();
    leader.epoch = 3;
    leader.init = 3;
    leader.rand = 3;
    leader.index = 2;
    PllState ahead = va_follower();
    ahead.epoch = 4;
    ahead.init = 4;
    ahead.level_b = 0;
    pll.interact(leader, ahead);
    EXPECT_EQ(leader.epoch, 4);
    EXPECT_EQ(leader.init, 4);
    EXPECT_EQ(leader.level_b, 0);
    EXPECT_EQ(leader.rand, 0);  // dead Tournament fields canonicalised
    EXPECT_EQ(leader.index, 0);
}

TEST(PllEpochs, EpochSaturatesAtFour) {
    const Pll pll = make_pll();
    const unsigned cmax = test_config().cmax();
    PllState timer = fresh_timer();
    timer.epoch = 4;
    timer.init = 4;
    timer.count = static_cast<std::uint16_t>(cmax - 1);
    PllState follower = va_follower();
    follower.epoch = 4;
    follower.init = 4;
    pll.interact(timer, follower);
    EXPECT_EQ(timer.epoch, 4);  // line 9 caps at 4
    EXPECT_EQ(timer.color, 1);  // colour still cycles
}

// --- Algorithm 3: QuickElimination ---------------------------------------------------

TEST(PllQuickElimination, HeadIncrementsLevel) {
    const Pll pll = make_pll();
    PllState leader = fresh_leader();
    PllState follower = va_follower();
    pll.interact(leader, follower);  // leader is the initiator ⇒ head
    EXPECT_EQ(leader.level_q, 1);
    EXPECT_FALSE(leader.done);
    EXPECT_TRUE(leader.leader);
}

TEST(PllQuickElimination, TailStopsTheLottery) {
    const Pll pll = make_pll();
    PllState leader = fresh_leader();
    PllState follower = va_follower();
    pll.interact(follower, leader);  // leader is the responder ⇒ tail
    EXPECT_EQ(leader.level_q, 0);
    EXPECT_TRUE(leader.done);
    EXPECT_TRUE(leader.leader);  // stopping does not eliminate
}

TEST(PllQuickElimination, TimerFollowersAlsoServeAsCoins) {
    const Pll pll = make_pll();
    PllState leader = fresh_leader();
    PllState timer = fresh_timer();
    pll.interact(leader, timer);
    EXPECT_EQ(leader.level_q, 1);  // line 35 requires VF, not VA∩VF
}

TEST(PllQuickElimination, DoneLeaderFlipsNoMoreCoins) {
    const Pll pll = make_pll();
    PllState leader = fresh_leader();
    leader.done = true;
    leader.level_q = 2;
    PllState follower = va_follower();
    follower.level_q = 2;
    pll.interact(leader, follower);
    EXPECT_EQ(leader.level_q, 2);
    EXPECT_TRUE(leader.leader);
}

TEST(PllQuickElimination, TwoLeadersDoNotFlip) {
    const Pll pll = make_pll();
    PllState u = fresh_leader();
    PllState v = fresh_leader();
    pll.interact(u, v);
    EXPECT_EQ(u.level_q, 0);
    EXPECT_EQ(v.level_q, 0);
    EXPECT_FALSE(u.done);
    EXPECT_FALSE(v.done);
    EXPECT_TRUE(u.leader);
    EXPECT_TRUE(v.leader);
}

TEST(PllQuickElimination, EpidemicEliminatesLowerFinishedLeader) {
    const Pll pll = make_pll();
    PllState low = fresh_leader();
    low.done = true;
    low.level_q = 3;
    PllState high = va_follower();
    high.level_q = 5;
    pll.interact(low, high);
    // Lines 39–42: the lower finished agent copies the level and drops out.
    EXPECT_FALSE(low.leader);
    EXPECT_EQ(low.level_q, 5);
    EXPECT_EQ(high.level_q, 5);
}

TEST(PllQuickElimination, UnfinishedLeaderIsProtectedFromTheEpidemic) {
    const Pll pll = make_pll();
    PllState playing = fresh_leader();
    playing.level_q = 1;  // still flipping
    PllState high = va_follower();
    high.level_q = 7;
    // Interact with the leader as initiator: line 35 fires first (head),
    // lifting levelQ to 2; line 39 must NOT fire (leader not done).
    pll.interact(playing, high);
    EXPECT_TRUE(playing.leader);
    EXPECT_EQ(playing.level_q, 2);
}

TEST(PllQuickElimination, LevelSaturatesAtLmax) {
    const Pll pll = make_pll();
    const unsigned lmax = test_config().lmax();
    PllState leader = fresh_leader();
    leader.level_q = static_cast<std::uint16_t>(lmax);
    PllState follower = va_follower();
    pll.interact(leader, follower);
    EXPECT_EQ(leader.level_q, lmax);  // min(x+1, lmax), fidelity note 1
}

TEST(PllQuickElimination, MaxLevelLeaderNeverEliminated) {
    const Pll pll = make_pll();
    PllState top = fresh_leader();
    top.done = true;
    top.level_q = 9;
    PllState carrier = va_follower();
    carrier.level_q = 9;
    pll.interact(top, carrier);
    EXPECT_TRUE(top.leader);  // equal levels: line 39 requires strict <
}

// --- Algorithm 4: Tournament -----------------------------------------------------------

PllState tournament_leader(unsigned epoch = 2) {
    PllState s = fresh_leader();
    s.epoch = static_cast<std::uint8_t>(epoch);
    s.init = static_cast<std::uint8_t>(epoch);
    s.done = false;
    s.level_q = 0;
    s.rand = 0;
    s.index = 0;
    return s;
}

PllState tournament_follower(unsigned epoch = 2) {
    PllState s = va_follower();
    s.epoch = static_cast<std::uint8_t>(epoch);
    s.init = static_cast<std::uint8_t>(epoch);
    s.done = false;
    s.level_q = 0;
    s.rand = 0;
    s.index = 2;  // Φ = 2: followers enter finished (fidelity note 3)
    return s;
}

TEST(PllTournament, InitiatorAppendsBitZero) {
    const Pll pll = make_pll();
    PllState leader = tournament_leader();
    leader.rand = 1;  // one bit drawn so far: 1
    leader.index = 1;
    PllState follower = tournament_follower();
    pll.interact(leader, follower);
    // Line 44 with i = 0: rand = 2·1 + 0 = 2; index 1 → 2 = Φ, finished.
    EXPECT_EQ(leader.rand, 2);
    EXPECT_EQ(leader.index, 2);
}

TEST(PllTournament, ResponderAppendsBitOne) {
    const Pll pll = make_pll();
    PllState leader = tournament_leader();
    PllState follower = tournament_follower();
    pll.interact(follower, leader);
    // Line 44 with i = 1: rand = 2·0 + 1 = 1; one flip done.
    EXPECT_EQ(leader.rand, 1);
    EXPECT_EQ(leader.index, 1);
}

TEST(PllTournament, FinishedLeaderDrawsNoMoreBits) {
    const Pll pll = make_pll();
    PllState leader = tournament_leader();
    leader.rand = 3;
    leader.index = 2;  // Φ reached
    PllState follower = tournament_follower();
    follower.rand = 3;
    pll.interact(leader, follower);
    EXPECT_EQ(leader.rand, 3);
    EXPECT_EQ(leader.index, 2);
    EXPECT_TRUE(leader.leader);
}

TEST(PllTournament, EpidemicEliminatesLowerFinishedNonce) {
    const Pll pll = make_pll();
    PllState low = tournament_leader();
    low.rand = 1;
    low.index = 2;
    PllState high = tournament_follower();
    high.rand = 3;
    pll.interact(low, high);
    EXPECT_FALSE(low.leader);
    EXPECT_EQ(low.rand, 3);  // lines 48–49
}

TEST(PllTournament, UnfinishedLeaderIsProtected) {
    const Pll pll = make_pll();
    PllState drawing = tournament_leader();  // no flips yet (index 0)
    PllState high = tournament_follower();
    high.rand = 3;
    pll.interact(drawing, high);
    // The flip happens (bit 0 as initiator) but index is still 1 < Φ, so
    // line 47 cannot touch the leader even against a larger carried nonce.
    EXPECT_TRUE(drawing.leader);
    EXPECT_EQ(drawing.rand, 0);
    EXPECT_EQ(drawing.index, 1);
}

TEST(PllTournament, FinalFlipExposesLeaderToTheEpidemicImmediately) {
    const Pll pll = make_pll();
    PllState drawing = tournament_leader();
    drawing.rand = 1;
    drawing.index = 1;  // one flip owed
    PllState high = tournament_follower();
    high.rand = 3;
    pll.interact(drawing, high);
    // Lines run sequentially: the final flip completes the nonce (2·1+0 = 2,
    // index = Φ), and line 47 of the same interaction compares it against
    // the carried maximum — the leader loses and adopts it.
    EXPECT_FALSE(drawing.leader);
    EXPECT_EQ(drawing.rand, 3);
    EXPECT_EQ(drawing.index, 2);
}

TEST(PllTournament, EqualNoncesBothSurvive) {
    const Pll pll = make_pll();
    PllState u = tournament_leader();
    u.rand = 2;
    u.index = 2;
    PllState v = tournament_leader();
    v.rand = 2;
    v.index = 2;
    pll.interact(u, v);
    EXPECT_TRUE(u.leader);
    EXPECT_TRUE(v.leader);
}

TEST(PllTournament, FollowersRelayTheNonceEpidemic) {
    const Pll pll = make_pll();
    PllState carrier = tournament_follower();
    carrier.rand = 3;
    PllState other = tournament_follower();
    other.rand = 1;
    pll.interact(other, carrier);
    EXPECT_EQ(other.rand, 3);  // follower-to-follower propagation works
    EXPECT_FALSE(other.leader);
}

TEST(PllTournament, RunsInEpochThreeAsWell) {
    const Pll pll = make_pll();
    PllState leader = tournament_leader(3);
    PllState follower = tournament_follower(3);
    pll.interact(leader, follower);
    EXPECT_EQ(leader.index, 1);
}

// --- Algorithm 5: BackUp --------------------------------------------------------------

PllState backup_leader(std::uint16_t level = 0) {
    PllState s = fresh_leader();
    s.epoch = 4;
    s.init = 4;
    s.done = false;
    s.level_b = level;
    return s;
}

PllState backup_follower(std::uint16_t level = 0) {
    PllState s = va_follower();
    s.epoch = 4;
    s.init = 4;
    s.done = false;
    s.level_b = level;
    return s;
}

TEST(PllBackUp, TickedInitiatorLeaderClimbsOneLevel) {
    const Pll pll = make_pll();
    PllState leader = backup_leader();
    leader.color = 0;
    PllState follower = backup_follower();
    follower.color = 1;  // leader adopts colour 1 ⇒ its tick raises
    pll.interact(leader, follower);
    EXPECT_EQ(leader.level_b, 1);  // line 52 (head: leader is the initiator)
}

TEST(PllBackUp, TickedResponderLeaderDoesNotClimb) {
    const Pll pll = make_pll();
    PllState leader = backup_leader();
    leader.color = 0;
    PllState follower = backup_follower();
    follower.color = 1;
    pll.interact(follower, leader);  // leader responds: tail, no climb
    EXPECT_EQ(leader.level_b, 0);
}

TEST(PllBackUp, NoTickNoClimb) {
    const Pll pll = make_pll();
    PllState leader = backup_leader();
    PllState follower = backup_follower();
    pll.interact(leader, follower);
    EXPECT_EQ(leader.level_b, 0);  // line 51 requires the tick flag
}

TEST(PllBackUp, EpidemicEliminatesLowerLeader) {
    const Pll pll = make_pll();
    PllState low = backup_leader(2);
    PllState carrier = backup_follower(5);
    pll.interact(low, carrier);
    EXPECT_FALSE(low.leader);
    EXPECT_EQ(low.level_b, 5);  // lines 54–57
}

TEST(PllBackUp, FollowersRelayLevelB) {
    const Pll pll = make_pll();
    PllState behind = backup_follower(1);
    PllState carrier = backup_follower(4);
    pll.interact(behind, carrier);
    EXPECT_EQ(behind.level_b, 4);
}

TEST(PllBackUp, TimersDoNotJoinLevelEpidemic) {
    const Pll pll = make_pll();
    PllState timer = fresh_timer();
    timer.epoch = 4;
    timer.init = 4;
    PllState carrier = backup_follower(4);
    pll.interact(timer, carrier);
    EXPECT_EQ(timer.level_b, 0);  // line 54 requires both in VA
}

TEST(PllBackUp, EqualLevelLeadersResolveByLine58) {
    const Pll pll = make_pll();
    PllState u = backup_leader(3);
    PllState v = backup_leader(3);
    pll.interact(u, v);
    EXPECT_TRUE(u.leader);    // initiator survives
    EXPECT_FALSE(v.leader);   // line 58: responder drops
}

TEST(PllBackUp, DifferentLevelLeadersResolveByEpidemicNotLine58) {
    const Pll pll = make_pll();
    PllState high = backup_leader(4);
    PllState low = backup_leader(1);
    pll.interact(low, high);  // low is the initiator
    EXPECT_FALSE(low.leader);  // eliminated by lines 54–57, not 58
    EXPECT_TRUE(high.leader);  // the higher responder survives
    EXPECT_EQ(low.level_b, 4);
}

TEST(PllBackUp, LevelBSaturatesAtLmax) {
    const Pll pll = make_pll();
    const auto lmax = static_cast<std::uint16_t>(test_config().lmax());
    PllState leader = backup_leader(lmax);
    leader.color = 0;
    PllState follower = backup_follower();
    follower.level_b = lmax;
    follower.color = 1;
    pll.interact(leader, follower);
    EXPECT_EQ(leader.level_b, lmax);
}

// --- configuration and state accounting ----------------------------------------------

TEST(PllConfig, DerivedParametersMatchThePaper) {
    PllConfig cfg;
    cfg.m = 4;
    EXPECT_EQ(cfg.lmax(), 20U);   // 5m
    EXPECT_EQ(cfg.cmax(), 164U);  // 41m
    EXPECT_EQ(cfg.phi(), 2U);     // ⌈(2/3)·2⌉

    cfg.m = 2;
    EXPECT_EQ(cfg.phi(), 1U);  // ⌈2/3⌉
    cfg.m = 8;
    EXPECT_EQ(cfg.phi(), 2U);  // ⌈2⌉
    cfg.m = 64;
    EXPECT_EQ(cfg.phi(), 4U);  // ⌈4⌉
    cfg.m = 1024;
    EXPECT_EQ(cfg.phi(), 7U);  // ⌈20/3⌉
}

TEST(PllConfig, ForPopulationSatisfiesThePapersRequirement) {
    for (std::size_t n : {2UL, 4UL, 100UL, 1024UL, 1000000UL}) {
        const PllConfig cfg = PllConfig::for_population(n);
        EXPECT_GE(static_cast<double>(cfg.m), std::log2(static_cast<double>(n)));
        EXPECT_NO_THROW(cfg.validate(n));
    }
    PllConfig tiny;
    tiny.m = 3;
    EXPECT_THROW(tiny.validate(1U << 20U), InvalidArgument);
}

TEST(PllConfig, RejectsAPhiOverrideAboveTheLimit) {
    PllConfig cfg = test_config();
    cfg.phi_override = PllConfig::max_phi;
    EXPECT_EQ(Pll(cfg).config().phi(), 12U);

    cfg.phi_override = PllConfig::max_phi + 1;
    try {
        (void)Pll(cfg);
        ADD_FAILURE() << "Pll accepted phi_override = 13";
    } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("limit of 12"), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)SymmetricPll(cfg), InvalidArgument);
}

// The symmetric protocol keeps its timer and levels in the same 16-bit fields,
// so it takes the same limits as Pll.
TEST(PllConfig, BothProtocolsRejectTimersAndLevelsPastTheirFields) {
    PllConfig long_timer = test_config();
    long_timer.cmax_multiplier = 65536 / long_timer.m;  // cmax = 65536
    EXPECT_THROW((void)Pll(long_timer), InvalidArgument);
    EXPECT_THROW((void)SymmetricPll(long_timer), InvalidArgument);

    PllConfig high_cap = test_config();
    high_cap.lmax_multiplier = 65535 / high_cap.m + 1;  // lmax ≥ 65535
    EXPECT_THROW((void)Pll(high_cap), InvalidArgument);
    EXPECT_THROW((void)SymmetricPll(high_cap), InvalidArgument);
}

TEST(PllStateAccounting, BoundGrowsLinearlyInM) {
    PllConfig small;
    small.m = 8;
    PllConfig large;
    large.m = 16;
    const double ratio = static_cast<double>(Pll(large).state_bound()) /
                         static_cast<double>(Pll(small).state_bound());
    // Dominant groups scale linearly in m (timer, levels); the nonce group
    // adds a sub-linear wobble. The bound must stay well under quadratic.
    EXPECT_GT(ratio, 1.5);
    EXPECT_LT(ratio, 3.0);
}

TEST(PllStateAccounting, StateKeyIsInjectiveOnCraftedStates) {
    const Pll pll = make_pll();
    std::vector<PllState> states;
    states.push_back(PllState{});
    states.push_back(fresh_leader());
    states.push_back(fresh_timer());
    states.push_back(va_follower());
    states.push_back(tournament_leader());
    states.push_back(tournament_follower());
    states.push_back(backup_leader(3));
    states.push_back(backup_follower(3));
    PllState timer2 = fresh_timer();
    timer2.count = 5;
    states.push_back(timer2);
    PllState high = va_follower();
    high.level_q = 7;
    states.push_back(high);

    std::set<std::uint64_t> keys;
    for (const PllState& s : states) keys.insert(pll.state_key(s));
    EXPECT_EQ(keys.size(), states.size());
}

TEST(PllStateAccounting, DeadFieldsDoNotAffectBehaviourRelevantKey) {
    const Pll pll = make_pll();
    // Two timer agents differing only in (dead) levelQ must share a key —
    // the canonical form ignores fields outside the live group.
    PllState t1 = fresh_timer();
    PllState t2 = fresh_timer();
    t2.level_q = 9;  // dead for VB
    EXPECT_EQ(pll.state_key(t1), pll.state_key(t2));
}

}  // namespace
}  // namespace ppsim
