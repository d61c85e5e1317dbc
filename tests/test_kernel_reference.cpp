// The PLL transition kernels against frozen references.
//
// Pll::interact and SymmetricPll::interact compute their data-dependent
// guards as flag arithmetic, with one branch per rare event. The classes
// below keep the branchy kernels they replaced, verbatim but for the class
// names, as references. Each test collects every distinct raw state that
// seeded agent runs visit and requires both kernels to agree on every
// ordered pair of collected states, for several m and for the ablation
// settings D1–D4 (docs/NOTATION.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/engine.hpp"
#include "protocols/pll.hpp"
#include "protocols/pll_symmetric.hpp"

namespace ppsim {
namespace {

// --- the references -------------------------------------------------------------

class ReferencePll {
public:
    using State = PllState;

    explicit ReferencePll(const PllConfig& config)
        : config_(config),
          cmax_(config.cmax()),
          lmax_(config.lmax()),
          phi_(static_cast<std::uint8_t>(config.phi())) {}

    void interact(State& a0, State& a1) const noexcept;

private:
    void count_up(State& a0, State& a1) const noexcept;
    void quick_elimination(State& a0, State& a1) const noexcept;
    void tournament(State& a0, State& a1) const noexcept;
    void back_up(State& a0, State& a1) const noexcept;
    void initialize_epoch_variables(State& s) const noexcept;

    PllConfig config_;
    unsigned cmax_;
    unsigned lmax_;
    std::uint8_t phi_;
};

class ReferenceSymmetricPll {
public:
    using State = SymPllState;

    explicit ReferenceSymmetricPll(const PllConfig& config)
        : config_(config), cmax_(config.cmax()), lmax_(config.lmax()), phi_(config.phi()) {}

    void interact(State& a0, State& a1) const noexcept;

private:
    void assign_status(State& a0, State& a1) const noexcept;
    void initialize_candidate_variables(State& s, bool as_leader) const noexcept;
    void initialize_group_variables(State& s) const noexcept;
    void count_up(State& a0, State& a1) const noexcept;
    void coin_substrate(State& a0, State& a1) const noexcept;
    void quick_elimination(State& a0, State& a1) const noexcept;
    void tournament(State& a0, State& a1) const noexcept;
    void back_up(State& a0, State& a1) const noexcept;

    PllConfig config_;
    unsigned cmax_;
    unsigned lmax_;
    unsigned phi_;
};

/// min(x + 1, cap) on unsigned 16-bit values — the saturating increments of
/// lines 9, 36, 45 and 52 (see fidelity note 1 in pll.hpp).
[[nodiscard]] constexpr std::uint16_t saturating_increment(std::uint16_t x,
                                                           unsigned cap) noexcept {
    return x + 1U >= cap ? static_cast<std::uint16_t>(cap) : static_cast<std::uint16_t>(x + 1U);
}

[[nodiscard]] constexpr std::uint8_t next_color(std::uint8_t c) noexcept {
    return static_cast<std::uint8_t>((c + 1U) % 3U);
}

// --- Algorithm 1: main routine ----------------------------------------------

void ReferencePll::interact(State& a0, State& a1) const noexcept {
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

    // Line 8.
    count_up(a0, a1);

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

void ReferencePll::initialize_epoch_variables(State& s) const noexcept {
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

// --- Algorithm 2: CountUp -----------------------------------------------------

void ReferencePll::count_up(State& a0, State& a1) const noexcept {
    // Lines 23–29: every timer agent advances its count; a wrap-around to 0
    // mints the next colour and raises the tick flag. Reducing only at or
    // past cmax is (count + 1) mod cmax for every count, without a division
    // per step.
    const auto advance_timer = [&](State& s) {
        if (s.status != PllStatus::b) return;
        unsigned next = s.count + 1U;
        if (next >= cmax_) next %= cmax_;
        s.count = static_cast<std::uint16_t>(next);
        if (s.count == 0) {
            s.color = next_color(s.color);
            s.tick = true;
        }
    };
    advance_timer(a0);
    advance_timer(a1);

    // Lines 30–34: the newer colour (one step ahead cyclically) spreads by
    // one-way epidemic; an adopting timer agent restarts its counter.
    // At most one of the two directions can apply (c and c+2 differ mod 3).
    const auto adopt_from = [&](State& behind, const State& ahead) {
        behind.color = ahead.color;
        behind.tick = true;
        if (behind.status == PllStatus::b) behind.count = 0;
    };
    if (a1.color == next_color(a0.color)) {
        adopt_from(a0, a1);
    } else if (a0.color == next_color(a1.color)) {
        adopt_from(a1, a0);
    }
}

// --- Algorithm 3: QuickElimination --------------------------------------------

void ReferencePll::quick_elimination(State& a0, State& a1) const noexcept {
    // Lines 35–38: a leader that has not finished the lottery flips a coin
    // whenever it meets a follower: initiator = head (levelQ += 1),
    // responder = tail (done). Exactly one agent can satisfy the guard.
    if (a0.leader && !a1.leader && !a0.done && a0.status == PllStatus::a) {
        a0.level_q = saturating_increment(a0.level_q, lmax_);  // line 36
    } else if (a1.leader && !a0.leader && !a1.done && a1.status == PllStatus::a) {
        a1.done = true;  // line 37
    }

    // Lines 39–42: one-way epidemic of the maximum levelQ across VA between
    // agents that finished the lottery; the smaller side leaves the race.
    if (a0.status == PllStatus::a && a1.status == PllStatus::a && a0.done && a1.done &&
        a0.level_q != a1.level_q) {
        State& smaller = a0.level_q < a1.level_q ? a0 : a1;
        const State& larger = a0.level_q < a1.level_q ? a1 : a0;
        smaller.leader = false;            // line 40
        smaller.level_q = larger.level_q;  // line 41
    }
}

// --- Algorithm 4: Tournament ----------------------------------------------------

void ReferencePll::tournament(State& a0, State& a1) const noexcept {
    // Lines 43–46: a leader that still owes coin flips appends one nonce bit
    // per meeting with a follower: bit 0 as initiator, bit 1 as responder.
    if (a0.leader && !a1.leader && a0.index < phi_) {
        a0.rand = static_cast<std::uint16_t>(2U * a0.rand + 0U);  // line 44 (i = 0)
        a0.index = static_cast<std::uint8_t>(
            saturating_increment(a0.index, phi_));  // line 45
    } else if (a1.leader && !a0.leader && a1.index < phi_) {
        a1.rand = static_cast<std::uint16_t>(2U * a1.rand + 1U);  // line 44 (i = 1)
        a1.index = static_cast<std::uint8_t>(saturating_increment(a1.index, phi_));
    }

    // Lines 47–50: one-way epidemic of the maximum finished nonce across VA;
    // a finished leader holding a smaller nonce leaves the race.
    if (a0.status == PllStatus::a && a1.status == PllStatus::a && a0.index == phi_ &&
        a1.index == phi_ && a0.rand != a1.rand) {
        State& smaller = a0.rand < a1.rand ? a0 : a1;
        const State& larger = a0.rand < a1.rand ? a1 : a0;
        smaller.leader = false;        // line 48
        smaller.rand = larger.rand;    // line 49
    }
}

// --- Algorithm 5: BackUp ----------------------------------------------------------

void ReferencePll::back_up(State& a0, State& a1) const noexcept {
    // Lines 51–53: a leader whose tick was raised in this very interaction
    // flips one coin against a follower; head = initiator = climb a level.
    if (a0.tick && a0.leader && !a1.leader) {
        a0.level_b = saturating_increment(a0.level_b, lmax_);  // line 52
    }

    // Lines 54–57: one-way epidemic of the maximum levelB across VA; any VA
    // agent holding a smaller level adopts it and (if a leader) drops out.
    if (a0.status == PllStatus::a && a1.status == PllStatus::a &&
        a0.level_b != a1.level_b) {
        State& smaller = a0.level_b < a1.level_b ? a0 : a1;
        const State& larger = a0.level_b < a1.level_b ? a1 : a0;
        smaller.level_b = larger.level_b;  // line 55
        smaller.leader = false;            // line 56
    }

    // Line 58: two surviving leaders (necessarily equal levelB after lines
    // 54–57) resolve by the classic rule — the responder drops out.
    if (a0.leader && a1.leader) a1.leader = false;
}

// --- the symmetric reference ---------------------------------------------------

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

void ReferenceSymmetricPll::interact(State& a0, State& a1) const noexcept {
    assign_status(a0, a1);

    // Transient tick flags, as in the asymmetric protocol (line 7).
    a0.tick = false;
    a1.tick = false;

    count_up(a0, a1);

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

void ReferenceSymmetricPll::assign_status(State& a0, State& a1) const noexcept {
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

void ReferenceSymmetricPll::initialize_candidate_variables(State& s, bool as_leader) const noexcept {
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
        case 3: s.index = as_leader ? 0 : static_cast<std::uint8_t>(phi_); break;
        default: break;  // epoch 4: levelB = 0 for everyone
    }
    s.init = s.epoch;
}

void ReferenceSymmetricPll::initialize_group_variables(State& s) const noexcept {
    if (s.status == SymStatus::a) {
        if (s.epoch == 2 || s.epoch == 3) {
            s.rand = 0;
            s.index = s.leader ? 0 : static_cast<std::uint8_t>(phi_);
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

void ReferenceSymmetricPll::count_up(State& a0, State& a1) const noexcept {
    // Reducing only at or past cmax is (count + 1) mod cmax for every
    // count, without a division per step.
    const auto advance_timer = [&](State& s) {
        if (s.status != SymStatus::b) return;
        unsigned next = s.count + 1U;
        if (next >= cmax_) next %= cmax_;
        s.count = static_cast<std::uint16_t>(next);
        if (s.count == 0) {
            s.color = next_color(s.color);
            s.tick = true;
        }
    };
    advance_timer(a0);
    advance_timer(a1);

    const auto adopt_from = [&](State& behind, const State& ahead) {
        behind.color = ahead.color;
        behind.tick = true;
        if (behind.status == SymStatus::b) behind.count = 0;
    };
    if (a1.color == next_color(a0.color)) {
        adopt_from(a0, a1);
    } else if (a0.color == next_color(a1.color)) {
        adopt_from(a1, a0);
    }
}

void ReferenceSymmetricPll::coin_substrate(State& a0, State& a1) const noexcept {
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

void ReferenceSymmetricPll::quick_elimination(State& a0, State& a1) const noexcept {
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

void ReferenceSymmetricPll::tournament(State& a0, State& a1) const noexcept {
    const auto phi = static_cast<std::uint8_t>(phi_);

    if (State* leader = sole_leader(a0, a1); leader != nullptr && leader->index < phi) {
        const State& follower = partner_of(leader, a0, a1);
        if (follower.coin == CoinStatus::f0) {
            leader->rand = static_cast<std::uint16_t>(2U * leader->rand);
            leader->index = static_cast<std::uint8_t>(saturating_increment(leader->index, phi));
        } else if (follower.coin == CoinStatus::f1) {
            leader->rand = static_cast<std::uint16_t>(2U * leader->rand + 1U);
            leader->index = static_cast<std::uint8_t>(saturating_increment(leader->index, phi));
        }
    }

    if (a0.status == SymStatus::a && a1.status == SymStatus::a && a0.index == phi &&
        a1.index == phi && a0.rand != a1.rand) {
        State& smaller = a0.rand < a1.rand ? a0 : a1;
        const State& larger = a0.rand < a1.rand ? a1 : a0;
        smaller.rand = larger.rand;
        if (smaller.leader) demote_to_follower(smaller);
    }
}

void ReferenceSymmetricPll::back_up(State& a0, State& a1) const noexcept {
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

// --- the comparison -------------------------------------------------------------------

/// The fields shared by both state types, for failure messages.
template <typename State>
std::string describe_common(const State& s) {
    return "count " + std::to_string(s.count) + ", level_q " + std::to_string(s.level_q) +
           ", rand " + std::to_string(s.rand) + ", level_b " + std::to_string(s.level_b) +
           ", index " + std::to_string(s.index) + ", status " +
           std::to_string(static_cast<unsigned>(s.status)) + ", epoch " +
           std::to_string(s.epoch) + ", init " + std::to_string(s.init) + ", color " +
           std::to_string(s.color) + ", done " + std::to_string(s.done) + ", leader " +
           std::to_string(s.leader) + ", tick " + std::to_string(s.tick);
}

std::string describe(const PllState& s) { return "{" + describe_common(s) + "}"; }

std::string describe(const SymPllState& s) {
    return "{" + describe_common(s) + ", coin " + std::to_string(static_cast<unsigned>(s.coin)) +
           ", duel " + std::to_string(static_cast<unsigned>(s.duel)) + "}";
}

/// One configuration: a population size and a PllConfig, named for the
/// test id.
struct Setting {
    const char* name;
    std::size_t n;
    PllConfig config;
};

void PrintTo(const Setting& setting, std::ostream* os) { *os << setting.name; }

std::string setting_name(const ::testing::TestParamInfo<Setting>& info) {
    return info.param.name;
}

/// The paper's parameters for n (m = ⌈lg n⌉), then edited by `edit`.
template <typename Edit>
Setting make_setting(const char* name, std::size_t n, Edit edit) {
    PllConfig config = PllConfig::for_population(n);
    edit(config);
    return Setting{name, n, config};
}

Setting paper(const char* name, std::size_t n) {
    return make_setting(name, n, [](PllConfig&) {});
}

/// Every distinct raw state (all bytes, dead fields included) that seeded
/// agent runs of `protocol` visit. Each run lasts 2·n·cmax steps, long
/// enough to pass every epoch.
template <typename P>
std::vector<typename P::State> collect_reachable_states(const P& protocol, std::size_t n) {
    using State = typename P::State;
    static_assert(std::has_unique_object_representations_v<State>,
                  "raw-byte deduplication needs a state without padding");
    const auto raw = [](const State& s) {
        return std::string(reinterpret_cast<const char*>(&s), sizeof(State));
    };
    const auto steps =
        static_cast<StepCount>(2 * n * protocol.config().cmax());
    std::set<std::string> seen;
    std::vector<State> states;
    const auto record = [&](const State& s) {
        if (seen.insert(raw(s)).second) states.push_back(s);
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Engine<P> engine(protocol, n, seed);
        record(engine.population()[0]);
        for (StepCount step = 0; step < steps; ++step) {
            const Interaction ia = engine.step();
            record(engine.population()[ia.initiator]);
            record(engine.population()[ia.responder]);
        }
    }
    return states;
}

/// Applies `kernel` and `reference` to every ordered pair of `states` and
/// reports the first few pairs on which they disagree.
template <typename Kernel, typename Reference>
void expect_same_transitions(const Kernel& kernel, const Reference& reference,
                             const std::vector<typename Kernel::State>& states) {
    using State = typename Kernel::State;
    // Every epoch must be in the sample, or the later modules go untested.
    for (unsigned epoch = 1; epoch <= 4; ++epoch) {
        ASSERT_TRUE(std::any_of(states.begin(), states.end(),
                                [&](const State& s) { return s.epoch == epoch; }))
            << "the collected states never reach epoch " << epoch;
    }
    std::size_t mismatches = 0;
    for (const State& p : states) {
        for (const State& q : states) {
            State a0 = p;
            State a1 = q;
            kernel.interact(a0, a1);
            State r0 = p;
            State r1 = q;
            reference.interact(r0, r1);
            if (a0 == r0 && a1 == r1) continue;
            if (++mismatches <= 3) {
                ADD_FAILURE() << "kernels disagree on (" << describe(p) << ", " << describe(q)
                              << "):\n  kernel    (" << describe(a0) << ", " << describe(a1)
                              << ")\n  reference (" << describe(r0) << ", " << describe(r1)
                              << ")";
            }
        }
    }
    EXPECT_EQ(mismatches, 0U) << "over " << states.size() << " states";
}

// The paper's parameters at three m, then one ablation per knob: D1 a short
// timer, D2 the narrowest and widest nonce, D3 a level cap that saturates,
// D4 every module composition (pll only: SymmetricPll runs every module).
const Setting shared_settings[] = {
    paper("paper_m4", 16),
    paper("paper_m6", 64),
    paper("paper_m8", 256),
    make_setting("d1_cmax5m", 64, [](PllConfig& c) { c.cmax_multiplier = 5; }),
    make_setting("d2_phi1", 64, [](PllConfig& c) { c.phi_override = 1; }),
    make_setting("d2_phi12", 64, [](PllConfig& c) { c.phi_override = 12; }),
    make_setting("d3_lmax1m", 64, [](PllConfig& c) { c.lmax_multiplier = 1; }),
};

const Setting module_settings[] = {
    make_setting("d4_no_qe", 64, [](PllConfig& c) { c.enable_quick_elimination = false; }),
    make_setting("d4_no_tournament", 64, [](PllConfig& c) { c.enable_tournament = false; }),
    make_setting("d4_backup_only", 64,
                 [](PllConfig& c) {
                     c.enable_quick_elimination = false;
                     c.enable_tournament = false;
                 }),
};

class PllKernelReference : public ::testing::TestWithParam<Setting> {};

TEST_P(PllKernelReference, AgreesOnEveryOrderedPairOfReachableStates) {
    const Setting& setting = GetParam();
    const Pll kernel(setting.config);
    const ReferencePll reference(setting.config);
    expect_same_transitions(kernel, reference,
                            collect_reachable_states(kernel, setting.n));
}

INSTANTIATE_TEST_SUITE_P(Shared, PllKernelReference, ::testing::ValuesIn(shared_settings),
                         setting_name);
INSTANTIATE_TEST_SUITE_P(Modules, PllKernelReference, ::testing::ValuesIn(module_settings),
                         setting_name);

class SymmetricKernelReference : public ::testing::TestWithParam<Setting> {};

TEST_P(SymmetricKernelReference, AgreesOnEveryOrderedPairOfReachableStates) {
    const Setting& setting = GetParam();
    const SymmetricPll kernel(setting.config);
    const ReferenceSymmetricPll reference(setting.config);
    expect_same_transitions(kernel, reference,
                            collect_reachable_states(kernel, setting.n));
}

INSTANTIATE_TEST_SUITE_P(Shared, SymmetricKernelReference,
                         ::testing::ValuesIn(shared_settings), setting_name);

}  // namespace
}  // namespace ppsim
