#include "pll.hpp"

#include <algorithm>
#include <cmath>

#include "pll_kernel.hpp"

namespace ppsim {

double PllConfig::log2_exact(double x) noexcept { return std::log2(x); }

using pll_kernel::saturating_increment;

// --- Algorithm 3: QuickElimination --------------------------------------------

// QuickElimination runs on every epoch-1 interaction, where an election
// spends most of its time, and status A holds for about three agents in
// four, independently on every step. Its guards are therefore flag
// arithmetic on 0/1 words, each tested once for its rare event (a coin flip,
// an epidemic step), and it is forced inline into interact, like CountUp
// (pll_kernel.hpp).
[[gnu::always_inline]] inline void Pll::quick_elimination(State& a0,
                                                          State& a1) const noexcept {
    const unsigned va0 = a0.status == PllStatus::a;
    const unsigned va1 = a1.status == PllStatus::a;

    // Lines 35–38: a leader that has not finished the lottery flips a coin
    // whenever it meets a follower: initiator = head (levelQ += 1),
    // responder = tail (done). At most one of the two flags is set.
    const unsigned head = a0.leader & !a1.leader & !a0.done & va0;
    const unsigned tail = a1.leader & !a0.leader & !a1.done & va1;
    if ((head | tail) != 0) [[unlikely]] {
        if (head != 0) {
            a0.level_q = saturating_increment(a0.level_q, lmax_);  // line 36
        } else {
            a1.done = true;  // line 37
        }
    }

    // Lines 39–42: one-way epidemic of the maximum levelQ across VA between
    // agents that finished the lottery; the smaller side leaves the race.
    const unsigned spread = va0 & va1 & a0.done & a1.done & (a0.level_q != a1.level_q);
    if (spread != 0) [[unlikely]] {
        State& smaller = a0.level_q < a1.level_q ? a0 : a1;
        const State& larger = a0.level_q < a1.level_q ? a1 : a0;
        smaller.leader = false;            // line 40
        smaller.level_q = larger.level_q;  // line 41
    }
}

// --- Algorithm 1: main routine ----------------------------------------------

// interact stays out of line, here, and each agent step pays one call:
// registry.cpp calls it from 15 sites (the agent and hybrid engines' three
// run loops each, the count engines' transition caches, the gillespie
// factorisation, the hybrid rule's census features and the type-erased
// adapter). Forcing it inline there copies the kernel into every site and
// did not make agent steps faster: over 10 alternating runs of 40 elections
// at n = 4096 the inlined build won 4, its ns per step within ±6% of the
// call's (GCC 12.2, -O3).
void Pll::interact(State& a0, State& a1) const noexcept {
    // Lines 1–6: status assignment at an agent's first interaction.
    if (a0.status == PllStatus::x && a1.status == PllStatus::x) {
        // Line 2: the initiator becomes a leader candidate and starts the
        // QuickElimination lottery.
        a0.status = PllStatus::a;
        a0.level_q = 0;
        a0.done = false;
        a0.leader = true;
        // Line 3: the responder becomes a timer agent and a follower.
        a1.status = PllStatus::b;
        a1.count = 0;
        a1.leader = false;
    } else if (a0.status == PllStatus::x || a1.status == PllStatus::x) {
        // Lines 4–5: a latecomer meeting an already-assigned agent joins VA
        // as a follower that never plays the lottery (done = true).
        State& late = a0.status == PllStatus::x ? a0 : a1;
        late.status = PllStatus::a;
        late.level_q = 0;
        late.done = true;
        late.leader = false;
    }

    // Line 7: the tick flag is transient — always cleared before CountUp.
    a0.tick = false;
    a1.tick = false;

    // Line 8: CountUp (Algorithm 2).
    pll_kernel::count_up(a0, a1, cmax_, PllStatus::b);

    // Line 9: a raised tick advances the epoch, saturating at 4.
    if (a0.tick && a0.epoch < 4) ++a0.epoch;
    if (a1.tick && a1.epoch < 4) ++a1.epoch;

    // Line 10: epochs synchronise to the pairwise maximum.
    const std::uint8_t epoch = std::max(a0.epoch, a1.epoch);
    a0.epoch = epoch;
    a1.epoch = epoch;

    // Lines 11–15: initialise the additional variables of a newly entered
    // group exactly once per epoch.
    if (a0.epoch > a0.init) initialize_epoch_variables(a0);
    if (a1.epoch > a1.init) initialize_epoch_variables(a1);

    // Lines 16–22: run the module of the (now common) epoch. Disabled
    // modules (ablation D4) leave their epochs idle.
    switch (epoch) {
        case 1:
            if (config_.enable_quick_elimination) quick_elimination(a0, a1);
            break;
        case 2:
        case 3:
            if (config_.enable_tournament) tournament(a0, a1);
            break;
        default: back_up(a0, a1); break;
    }
}

void Pll::initialize_epoch_variables(State& s) const noexcept {
    if (s.status == PllStatus::a) {
        if (s.epoch == 2 || s.epoch == 3) {
            // Line 12 with fidelity note 3 (pll.hpp): leaders start the
            // Φ-flip nonce draw; followers join the epidemic immediately
            // (index = Φ), mirroring QuickElimination's done = true.
            s.rand = 0;
            s.index = s.leader ? 0 : phi_;
            // levelQ/done belong to the abandoned V1 group; zero them so the
            // stored state is canonical (the paper calls them "undefined").
            s.level_q = 0;
            s.done = false;
        } else if (s.epoch == 4) {
            // Line 13.
            s.level_b = 0;
            s.rand = 0;
            s.index = 0;
            s.level_q = 0;
            s.done = false;
        }
    }
    // Line 14.
    s.init = s.epoch;
}

// --- Algorithm 4: Tournament ----------------------------------------------------

void Pll::tournament(State& a0, State& a1) const noexcept {
    const unsigned va0 = a0.status == PllStatus::a;
    const unsigned va1 = a1.status == PllStatus::a;

    // Lines 43–46: a leader that still owes coin flips appends one nonce bit
    // per meeting with a follower: bit 0 as initiator, bit 1 as responder.
    // At most one of the two flags is set.
    const unsigned flip0 = a0.leader & !a1.leader & (a0.index < phi_);
    const unsigned flip1 = a1.leader & !a0.leader & (a1.index < phi_);
    if ((flip0 | flip1) != 0) [[unlikely]] {
        State& flipper = flip0 != 0 ? a0 : a1;
        flipper.rand = static_cast<std::uint16_t>(2U * flipper.rand + flip1);  // line 44
        flipper.index = static_cast<std::uint8_t>(
            saturating_increment(flipper.index, phi_));  // line 45
    }

    // Lines 47–50: one-way epidemic of the maximum finished nonce across VA;
    // a finished leader holding a smaller nonce leaves the race.
    const unsigned spread =
        va0 & va1 & (a0.index == phi_) & (a1.index == phi_) & (a0.rand != a1.rand);
    if (spread != 0) [[unlikely]] {
        State& smaller = a0.rand < a1.rand ? a0 : a1;
        const State& larger = a0.rand < a1.rand ? a1 : a0;
        smaller.leader = false;        // line 48
        smaller.rand = larger.rand;    // line 49
    }
}

// --- Algorithm 5: BackUp ----------------------------------------------------------

void Pll::back_up(State& a0, State& a1) const noexcept {
    // Lines 51–53: a leader whose tick was raised in this very interaction
    // flips one coin against a follower; head = initiator = climb a level.
    if ((a0.tick & a0.leader & !a1.leader) != 0) [[unlikely]] {
        a0.level_b = saturating_increment(a0.level_b, lmax_);  // line 52
    }

    // Lines 54–57: one-way epidemic of the maximum levelB across VA; any VA
    // agent holding a smaller level adopts it and (if a leader) drops out.
    const unsigned spread = (a0.status == PllStatus::a) & (a1.status == PllStatus::a) &
                            (a0.level_b != a1.level_b);
    if (spread != 0) [[unlikely]] {
        State& smaller = a0.level_b < a1.level_b ? a0 : a1;
        const State& larger = a0.level_b < a1.level_b ? a1 : a0;
        smaller.level_b = larger.level_b;  // line 55
        smaller.leader = false;            // line 56
    }

    // Line 58: two surviving leaders (necessarily equal levelB after lines
    // 54–57) resolve by the classic rule — the responder drops out.
    if ((a0.leader & a1.leader) != 0) [[unlikely]] a1.leader = false;
}

// --- state accounting ------------------------------------------------------------

std::uint64_t Pll::state_key(const State& s) const noexcept {
    // Canonical states keep dead fields at zero, so packing the live group
    // payload plus the common variables is injective.
    std::uint64_t aux = 0;
    if (s.status == PllStatus::b) {
        aux = s.count;
    } else if (s.status == PllStatus::a) {
        switch (s.epoch) {
            case 1:
                aux = static_cast<std::uint64_t>(s.level_q) * 2U +
                      static_cast<std::uint64_t>(s.done);
                break;
            case 2:
            case 3:
                aux = static_cast<std::uint64_t>(s.rand) *
                          (static_cast<std::uint64_t>(phi_) + 1U) +
                      s.index;
                break;
            default: aux = s.level_b; break;
        }
    }
    std::uint64_t key = static_cast<std::uint64_t>(s.status);
    key = key * 4U + (s.epoch - 1U);
    key = key * 4U + (s.init - 1U);
    key = key * 3U + s.color;
    key = key * 2U + static_cast<std::uint64_t>(s.leader);
    key = key * 2U + static_cast<std::uint64_t>(s.tick);
    key = key * (1ULL << 32U) + aux;
    return key;
}

std::size_t Pll::state_bound() const noexcept {
    // Lemma 3 accounting from the Table 3 domains. Common variables:
    // status × epoch × init × color × leader × tick — init ≤ epoch and the
    // X/A/B split constrain reachability, but for the O(log n) *bound* we
    // take the product of domain sizes per group, as the paper does.
    const std::size_t common = 4U * 4U * 3U * 2U * 2U;  // epoch·init·color·leader·tick
    const std::size_t group_x = 1;                      // no additional variables
    const std::size_t group_b = config_.cmax();
    const std::size_t group_a_v1 = (config_.lmax() + 1U) * 2U;
    const std::size_t group_a_v23 = (std::size_t{1} << config_.phi()) * (config_.phi() + 1U);
    const std::size_t group_a_v4 = config_.lmax() + 1U;
    return common * (group_x + group_b + group_a_v1 + group_a_v23 + group_a_v4);
}

}  // namespace ppsim
