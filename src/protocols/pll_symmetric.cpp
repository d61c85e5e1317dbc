#include "pll_symmetric.hpp"

#include <algorithm>

#include "pll_kernel.hpp"

namespace ppsim {

using pll_kernel::saturating_increment;

namespace {

/// Demotes a leader to follower: Section 4 assigns every fresh follower the
/// coin status J; the duel bit dies with leadership.
void demote_to_follower(SymPllState& s) noexcept {
    s.leader = false;
    s.coin = CoinStatus::j;
    s.duel = DuelBit::none;
}

/// Returns the leader of the pair when exactly one of the two agents is a
/// leader, nullptr otherwise. Purely state-based — no positional asymmetry.
[[nodiscard]] SymPllState* sole_leader(SymPllState& a0, SymPllState& a1) noexcept {
    if (a0.leader && !a1.leader) return &a0;
    if (a1.leader && !a0.leader) return &a1;
    return nullptr;
}

/// The follower partner of `leader` in the pair (a0, a1).
[[nodiscard]] SymPllState& partner_of(SymPllState* leader, SymPllState& a0,
                                      SymPllState& a1) noexcept {
    return leader == &a0 ? a1 : a0;
}

}  // namespace

void SymmetricPll::interact(State& a0, State& a1) const noexcept {
    // Status assignment acts only on X and Y agents, which are all gone
    // within the first few parallel time units, so the call is made only
    // when one of the two agents is X or Y.
    if (!(assigned(a0) && assigned(a1))) [[unlikely]] assign_status(a0, a1);

    // Transient tick flags, as in the asymmetric protocol (line 7).
    a0.tick = false;
    a1.tick = false;

    pll_kernel::count_up(a0, a1, cmax_, SymStatus::b);

    // Epoch advance on tick + pairwise synchronisation (lines 9–10).
    if (a0.tick && a0.epoch < 4) ++a0.epoch;
    if (a1.tick && a1.epoch < 4) ++a1.epoch;
    const std::uint8_t epoch = std::max(a0.epoch, a1.epoch);
    a0.epoch = epoch;
    a1.epoch = epoch;
    if (a0.epoch > a0.init) initialize_group_variables(a0);
    if (a1.epoch > a1.init) initialize_group_variables(a1);

    // The fair-coin substrate runs on every follower-follower meeting,
    // independent of epochs. It commutes with the epidemics below (disjoint
    // fields), so its position in the interaction is immaterial.
    coin_substrate(a0, a1);

    switch (epoch) {
        case 1: quick_elimination(a0, a1); break;
        case 2:
        case 3: tournament(a0, a1); break;
        default: back_up(a0, a1); break;
    }
}

void SymmetricPll::assign_status(State& a0, State& a1) const noexcept {
    const bool u0 = a0.status == SymStatus::x || a0.status == SymStatus::y;
    const bool u1 = a1.status == SymStatus::x || a1.status == SymStatus::y;
    if (u0 && u1) {
        if (a0.status == SymStatus::x && a1.status == SymStatus::x) {
            // X×X → Y×Y
            a0.status = SymStatus::y;
            a1.status = SymStatus::y;
        } else if (a0.status == SymStatus::y && a1.status == SymStatus::y) {
            // Y×Y → X×X
            a0.status = SymStatus::x;
            a1.status = SymStatus::x;
        } else {
            // X×Y → A×B: the X-party becomes the leader candidate.
            State& cand = a0.status == SymStatus::x ? a0 : a1;
            State& timer = a0.status == SymStatus::x ? a1 : a0;
            cand.status = SymStatus::a;
            cand.leader = true;
            initialize_candidate_variables(cand, /*as_leader=*/true);
            timer.status = SymStatus::b;
            timer.count = 0;
            demote_to_follower(timer);
        }
    } else if (u0 != u1) {
        // Latecomer: an unassigned agent meeting an assigned one joins VA as
        // a follower that never plays (the asymmetric lines 4–5).
        State& late = u0 ? a0 : a1;
        late.status = SymStatus::a;
        demote_to_follower(late);
        initialize_candidate_variables(late, /*as_leader=*/false);
    }
}

void SymmetricPll::initialize_candidate_variables(State& s, bool as_leader) const noexcept {
    // Completion 2 (see header): an unassigned agent may already be past
    // epoch 1 (X↔Y oscillation keeps it unassigned through colour ticks),
    // so initialise the group of its *current* epoch.
    s.level_q = 0;
    s.done = false;
    s.rand = 0;
    s.index = 0;
    s.level_b = 0;
    s.duel = DuelBit::none;
    switch (s.epoch) {
        case 1: s.done = !as_leader; break;
        case 2:
        case 3: s.index = as_leader ? 0 : phi_; break;
        default: break;  // epoch 4: levelB = 0 for everyone
    }
    s.init = s.epoch;
}

void SymmetricPll::initialize_group_variables(State& s) const noexcept {
    if (s.status == SymStatus::a) {
        if (s.epoch == 2 || s.epoch == 3) {
            s.rand = 0;
            s.index = s.leader ? 0 : phi_;
            s.level_q = 0;
            s.done = false;
        } else if (s.epoch == 4) {
            s.level_b = 0;
            s.rand = 0;
            s.index = 0;
            s.level_q = 0;
            s.done = false;
            s.duel = DuelBit::none;
        }
    }
    s.init = s.epoch;
}

void SymmetricPll::coin_substrate(State& a0, State& a1) const noexcept {
    if (a0.leader || a1.leader) return;
    // J×J → K×K, K×K → J×J, J×K → F0×F1. F0/F1 are minted in pairs and
    // never destroyed, so #F0 = #F1 in every reachable configuration — the
    // invariant that makes leader coin observations exactly fair.
    if (a0.coin == CoinStatus::j && a1.coin == CoinStatus::j) {
        a0.coin = CoinStatus::k;
        a1.coin = CoinStatus::k;
    } else if (a0.coin == CoinStatus::k && a1.coin == CoinStatus::k) {
        a0.coin = CoinStatus::j;
        a1.coin = CoinStatus::j;
    } else if ((a0.coin == CoinStatus::j && a1.coin == CoinStatus::k) ||
               (a0.coin == CoinStatus::k && a1.coin == CoinStatus::j)) {
        State& from_j = a0.coin == CoinStatus::j ? a0 : a1;
        State& from_k = a0.coin == CoinStatus::j ? a1 : a0;
        from_j.coin = CoinStatus::f0;
        from_k.coin = CoinStatus::f1;
    }
}

// The three modules are forced inline into interact, as CountUp is
// (pll_kernel.hpp), so that an interaction between two assigned agents makes
// no call. Each is a tail call otherwise.
[[gnu::always_inline]] inline void SymmetricPll::quick_elimination(State& a0,
                                                                   State& a1) const noexcept {
    // Lottery flips via the coin substrate: F0 = head, F1 = tail, J/K = no
    // observation (the leader waits for a minted coin).
    if (State* leader = sole_leader(a0, a1); leader != nullptr && !leader->done) {
        const State& follower = partner_of(leader, a0, a1);
        if (follower.coin == CoinStatus::f0) {
            leader->level_q = saturating_increment(leader->level_q, lmax_);
        } else if (follower.coin == CoinStatus::f1) {
            leader->done = true;
        }
    }

    // Epidemic of the maximum levelQ, exactly as in the asymmetric protocol
    // (state-based, hence already symmetric).
    if (a0.status == SymStatus::a && a1.status == SymStatus::a && a0.done && a1.done &&
        a0.level_q != a1.level_q) {
        State& smaller = a0.level_q < a1.level_q ? a0 : a1;
        const State& larger = a0.level_q < a1.level_q ? a1 : a0;
        smaller.level_q = larger.level_q;
        if (smaller.leader) demote_to_follower(smaller);
    }
}

[[gnu::always_inline]] inline void SymmetricPll::tournament(State& a0,
                                                            State& a1) const noexcept {
    if (State* leader = sole_leader(a0, a1); leader != nullptr && leader->index < phi_) {
        const State& follower = partner_of(leader, a0, a1);
        if (follower.coin == CoinStatus::f0) {
            leader->rand = static_cast<std::uint16_t>(2U * leader->rand);
            leader->index = static_cast<std::uint8_t>(saturating_increment(leader->index, phi_));
        } else if (follower.coin == CoinStatus::f1) {
            leader->rand = static_cast<std::uint16_t>(2U * leader->rand + 1U);
            leader->index = static_cast<std::uint8_t>(saturating_increment(leader->index, phi_));
        }
    }

    if (a0.status == SymStatus::a && a1.status == SymStatus::a && a0.index == phi_ &&
        a1.index == phi_ && a0.rand != a1.rand) {
        State& smaller = a0.rand < a1.rand ? a0 : a1;
        const State& larger = a0.rand < a1.rand ? a1 : a0;
        smaller.rand = larger.rand;
        if (smaller.leader) demote_to_follower(smaller);
    }
}

[[gnu::always_inline]] inline void SymmetricPll::back_up(State& a0,
                                                         State& a1) const noexcept {
    if (State* leader = sole_leader(a0, a1); leader != nullptr) {
        const State& follower = partner_of(leader, a0, a1);
        // One coin per synchroniser tick: F0 = head = climb one level.
        if (leader->tick && follower.coin == CoinStatus::f0) {
            leader->level_b = saturating_increment(leader->level_b, lmax_);
        }
        // Duel-bit refresh on every minted-coin meeting (completion 1).
        if (follower.coin == CoinStatus::f0) {
            leader->duel = DuelBit::zero;
        } else if (follower.coin == CoinStatus::f1) {
            leader->duel = DuelBit::one;
        }
    }

    // Epidemic of the maximum levelB across VA.
    if (a0.status == SymStatus::a && a1.status == SymStatus::a &&
        a0.level_b != a1.level_b) {
        State& smaller = a0.level_b < a1.level_b ? a0 : a1;
        const State& larger = a0.level_b < a1.level_b ? a1 : a0;
        smaller.level_b = larger.level_b;
        if (smaller.leader) demote_to_follower(smaller);
    }

    // Symmetric replacement of line 58: equal-level leaders with opposing
    // duel bits resolve — duel-0 survives, both bits reset. Equal states do
    // nothing, as the symmetry constraint requires.
    if (a0.leader && a1.leader && a0.level_b == a1.level_b &&
        a0.duel != DuelBit::none && a1.duel != DuelBit::none && a0.duel != a1.duel) {
        State& loser = a0.duel == DuelBit::one ? a0 : a1;
        State& winner = a0.duel == DuelBit::one ? a1 : a0;
        winner.duel = DuelBit::none;
        demote_to_follower(loser);
    }
}

std::uint64_t SymmetricPll::state_key(const State& s) const noexcept {
    std::uint64_t aux = 0;
    if (s.status == SymStatus::b) {
        aux = s.count;
    } else if (s.status == SymStatus::a) {
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
    key = key * 4U + static_cast<std::uint64_t>(s.coin);
    key = key * 3U + static_cast<std::uint64_t>(s.duel);
    key = key * (1ULL << 32U) + aux;
    return key;
}

std::size_t SymmetricPll::state_bound() const noexcept {
    // Product bound over domains, as in Pll::state_bound, with the extra
    // coin (4) and duel (3) factors of the symmetric substrate.
    const std::size_t common = 4U * 4U * 3U * 2U * 2U * 4U * 3U;
    const std::size_t group_xy = 2;
    const std::size_t group_b = config_.cmax();
    const std::size_t group_a_v1 = (config_.lmax() + 1U) * 2U;
    const std::size_t group_a_v23 = (std::size_t{1} << config_.phi()) * (config_.phi() + 1U);
    const std::size_t group_a_v4 = config_.lmax() + 1U;
    return common * (group_xy + group_b + group_a_v1 + group_a_v23 + group_a_v4);
}

}  // namespace ppsim
