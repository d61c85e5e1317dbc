// Exhaustive verification of the Section-4 symmetry law over the states a
// real execution actually visits: collect every distinct reachable state
// from seeded runs, then check p = q ⇒ p' = q' for ALL equal pairs and
// swap-consistency for all ordered pairs of the collected set. This is far
// stronger than the hand-picked probes in test_pll_symmetric.cpp.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "protocols/pll_symmetric.hpp"

namespace ppsim {
namespace {

/// Collects distinct states observed across seeded executions.
std::vector<SymPllState> collect_reachable_states(std::size_t n, std::size_t runs,
                                                  StepCount steps_per_run) {
    const SymmetricPll proto = SymmetricPll::for_population(n);
    std::unordered_map<std::uint64_t, SymPllState> seen;
    for (std::size_t run = 0; run < runs; ++run) {
        Engine<SymmetricPll> engine(proto, n, 1000 + run);
        seen.emplace(proto.state_key(engine.population()[0]),
                     engine.population()[0]);
        for (StepCount step = 0; step < steps_per_run; ++step) {
            const Interaction ia = engine.step();
            for (const AgentId id : {ia.initiator, ia.responder}) {
                const SymPllState& s = engine.population()[id];
                seen.emplace(proto.state_key(s), s);
            }
        }
    }
    std::vector<SymPllState> states;
    states.reserve(seen.size());
    for (const auto& [key, state] : seen) states.push_back(state);
    return states;
}

TEST(SymmetricExhaustive, LawHoldsOnAllReachableStatePairs) {
    const std::size_t n = 64;
    const SymmetricPll proto = SymmetricPll::for_population(n);
    const std::vector<SymPllState> states =
        collect_reachable_states(n, 3, 400'000);
    ASSERT_GT(states.size(), 50U) << "collection too small to be meaningful";

    // Equal pairs: p = q ⇒ p' = q'.
    for (const SymPllState& probe : states) {
        SymPllState a = probe;
        SymPllState b = probe;
        proto.interact(a, b);
        ASSERT_EQ(a, b) << "symmetry broken from an equal reachable pair";
    }

    // All ordered pairs: interact(p, q) must equal interact(q, p) with the
    // results swapped — the transition cannot read the agent order.
    for (const SymPllState& p : states) {
        for (const SymPllState& q : states) {
            SymPllState a0 = p;
            SymPllState a1 = q;
            proto.interact(a0, a1);
            SymPllState b0 = q;
            SymPllState b1 = p;
            proto.interact(b0, b1);
            ASSERT_EQ(a0, b1) << "role asymmetry detected";
            ASSERT_EQ(a1, b0) << "role asymmetry detected";
        }
    }
}

TEST(SymmetricExhaustive, AsymmetricPllIsActuallyAsymmetric) {
    // Sanity check of the test method itself: the asymmetric protocol must
    // FAIL the swap test on some reachable pair (the coin flips read roles),
    // otherwise the sweep above proves nothing.
    const std::size_t n = 64;
    const Pll proto = Pll::for_population(n);
    Engine<Pll> engine(proto, n, 7);
    engine.run_for(100'000);

    bool found_asymmetry = false;
    const auto states = engine.population().states();
    for (std::size_t i = 0; i < states.size() && !found_asymmetry; ++i) {
        for (std::size_t j = 0; j < states.size() && !found_asymmetry; ++j) {
            PllState a0 = states[i];
            PllState a1 = states[j];
            proto.interact(a0, a1);
            PllState b0 = states[j];
            PllState b1 = states[i];
            proto.interact(b0, b1);
            if (!(a0 == b1) || !(a1 == b0)) found_asymmetry = true;
        }
    }
    EXPECT_TRUE(found_asymmetry)
        << "no asymmetric pair found — the sweep would be vacuous";
}

}  // namespace
}  // namespace ppsim
