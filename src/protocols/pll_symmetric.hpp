/// \file pll_symmetric.hpp
/// \brief The symmetric variant of PLL (Section 4 of Sudo et al., PODC 2019).
///
/// A protocol is *symmetric* when the transition function cannot use the
/// initiator/responder distinction to tell two agents in the same state
/// apart: p = q ⇒ p' = q'. PLL's only asymmetric actions are (a) status
/// assignment and (b) coin flips; Section 4 sketches symmetric replacements:
///
///  * **Status assignment** — add a shadow status Y with the rules
///    `X×X → Y×Y`, `Y×Y → X×X`, `X×Y → A×B` (the X-party becomes the leader
///    candidate A, the Y-party the timer B), and any X/Y agent meeting an
///    A/B agent joins VA as a follower, as in the asymmetric protocol.
///  * **Coin flips** — every follower carries a coin status in
///    {J, K, F0, F1}; new followers start at J; follower-follower meetings
///    apply `J×J → K×K`, `K×K → J×J`, `J×K → F0×F1`. Since F0/F1 are minted
///    in pairs and never destroyed, #F0 = #F1 holds in every reachable
///    configuration, so a leader meeting a follower with coin F0 (head) or
///    F1 (tail) observes a *totally fair and independent* coin flip.
///    Meetings with J/K followers yield no flip.
///
/// ## Completions of the Section-4 sketch (documented deviations)
///
/// The paper describes the strategy in prose; three details must be filled
/// in to obtain a complete protocol. Each preserves the claimed asymptotics.
///
/// 1. **Line 58's tie-break is asymmetric** ("two leaders meet, the
///    responder drops out") and Section 4 does not replace it. We use the
///    coin substrate: a V4-leader refreshes a `duel` bit (0 on meeting an
///    F0-follower, 1 on F1). When two leaders with equal levelB meet and
///    their duel bits are both set and differ, the duel-0 leader survives
///    and both duel bits reset. Two leaders in *identical* states do
///    nothing (as symmetry demands) but diverge after their next coin.
///    Each leader-leader meeting with refreshed duels eliminates with
///    probability 1/2, so the BackUp fallback stays O(n) expected — the
///    same bound Lemma 10 gives the asymmetric rule.
/// 2. **Unassigned agents can outlive epoch 1**: X↔Y oscillation means an
///    agent may gain status only after its epoch advanced, so status
///    assignment initialises the variables of the agent's *current* epoch
///    group (levelQ/done, rand/index, or levelB), not unconditionally the
///    epoch-1 group.
/// 3. **n = 2 is unsolvable for symmetric protocols** from a uniform
///    initial configuration (X×X and Y×Y oscillate forever; with both
///    agents always in equal states no deterministic symmetric rule can
///    ever separate them). We require n ≥ 3, where an X×Y meeting occurs
///    with probability 1. This is a fundamental model limitation, not an
///    implementation one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "../core/common.hpp"
#include "../core/protocol.hpp"
#include "pll.hpp"

namespace ppsim {

/// Status for the symmetric variant: X/Y unassigned, A candidate, B timer.
enum class SymStatus : std::uint8_t { x = 0, y = 1, a = 2, b = 3 };

/// Follower coin status of the Section-4 fair-coin substrate.
enum class CoinStatus : std::uint8_t { j = 0, k = 1, f0 = 2, f1 = 3 };

/// Duel bit of a V4 leader (completion 1 above).
enum class DuelBit : std::uint8_t { none = 0, zero = 1, one = 2 };

/// Agent state of the symmetric PLL.
struct SymPllState {
    std::uint16_t count = 0;    ///< VB: count-up timer
    std::uint16_t level_q = 0;  ///< VA∩V1
    std::uint16_t rand = 0;     ///< VA∩(V2∪V3)
    std::uint16_t level_b = 0;  ///< VA∩V4
    std::uint8_t index = 0;     ///< VA∩(V2∪V3)
    SymStatus status = SymStatus::x;
    std::uint8_t epoch = 1;
    std::uint8_t init = 1;
    std::uint8_t color = 0;
    bool done = false;
    bool leader = true;
    bool tick = false;
    CoinStatus coin = CoinStatus::j;  ///< live for followers only
    DuelBit duel = DuelBit::none;     ///< live for V4 leaders only

    friend constexpr bool operator==(const SymPllState&, const SymPllState&) = default;
};

/// Symmetric PLL protocol. Same module structure and parameters as Pll;
/// the initiator/responder roles are never consulted — verified by the
/// symmetry property test (interact(p, q) mirrored equals swapped result).
class SymmetricPll {
public:
    using State = SymPllState;

    explicit SymmetricPll(PllConfig config)
        : config_(config),
          cmax_(config.cmax()),
          lmax_(config.lmax()),
          phi_(static_cast<std::uint8_t>(config.phi())) {
        config.require_representable();
    }

    [[nodiscard]] static SymmetricPll for_population(std::size_t n) {
        require(n >= 3, "symmetric PLL requires n >= 3 (see header note 3)");
        return SymmetricPll(PllConfig::for_population(n));
    }

    [[nodiscard]] const PllConfig& config() const noexcept { return config_; }

    // --- Protocol concept ---------------------------------------------------

    [[nodiscard]] State initial_state() const noexcept { return State{}; }

    [[nodiscard]] Role output(const State& s) const noexcept {
        return s.leader ? Role::leader : Role::follower;
    }

    void interact(State& a0, State& a1) const noexcept;

    [[nodiscard]] std::string_view name() const noexcept { return "pll_symmetric"; }

    // --- state accounting ----------------------------------------------------

    [[nodiscard]] std::uint64_t state_key(const State& s) const noexcept;
    [[nodiscard]] std::size_t state_bound() const noexcept;

    // --- introspection ---------------------------------------------------------

    [[nodiscard]] static bool is_leader(const State& s) noexcept { return s.leader; }
    [[nodiscard]] static bool assigned(const State& s) noexcept {
        return s.status == SymStatus::a || s.status == SymStatus::b;
    }
    [[nodiscard]] static CoinStatus coin_of(const State& s) noexcept { return s.coin; }

private:
    void assign_status(State& a0, State& a1) const noexcept;
    void initialize_candidate_variables(State& s, bool as_leader) const noexcept;
    void initialize_group_variables(State& s) const noexcept;
    void coin_substrate(State& a0, State& a1) const noexcept;
    void quick_elimination(State& a0, State& a1) const noexcept;
    void tournament(State& a0, State& a1) const noexcept;
    void back_up(State& a0, State& a1) const noexcept;

    PllConfig config_;
    // cmax, lmax and Φ of config_, computed once: Φ takes a log2.
    unsigned cmax_;
    unsigned lmax_;
    std::uint8_t phi_;
};

static_assert(sizeof(SymPllState) <= 24, "symmetric PLL state should stay within 24 bytes");

}  // namespace ppsim
