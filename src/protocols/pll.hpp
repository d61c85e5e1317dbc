/// \file pll.hpp
/// \brief PLL — the leader-election protocol of Sudo, Ooshita, Izumi,
/// Kakugawa and Masuzawa, "Logarithmic Expected-Time Leader Election in
/// Population Protocol Model" (PODC 2019), Algorithms 1–5.
///
/// PLL stabilises to exactly one leader in O(log n) expected parallel time
/// using O(log n) states per agent, given a knowledge parameter m with
/// m ≥ log2(n) and m = Θ(log n). The execution is a competition in three
/// modules run in sequence, paced by a timer-based synchroniser:
///
///  * CountUp()          — agents with status B run a count-up timer modulo
///                         cmax = 41m; wrapping advances a 3-colour phase
///                         that spreads by one-way epidemic and drives every
///                         agent's `epoch` 1 → 2 → 3 → 4.
///  * QuickElimination() — epoch 1. Every leader plays the geometric lottery
///                         (count heads until the first tail, head = "I am
///                         the initiator"); the maximum `levelQ` spreads by
///                         epidemic and non-maximal leaders drop out. For
///                         any i ≥ 2, exactly i leaders survive with
///                         probability ≤ 2^{1−i} (Lemma 7).
///  * Tournament()       — epochs 2 and 3. Every surviving leader draws a
///                         Φ = ⌈(2/3)·lg m⌉-bit uniform nonce from its coin
///                         flips; the maximum nonce spreads by epidemic and
///                         non-maximal leaders drop out. Two rounds reduce
///                         ≤ ⌈lg lg n⌉ survivors to one w.p. 1 − O(1/log n).
///  * BackUp()           — epoch 4. A slower, always-correct eliminator:
///                         leaders climb `levelB` by one fair coin per
///                         synchroniser tick, the maximum spreads by
///                         epidemic, and equal-level leaders resolve by the
///                         initiator-wins rule. Elects the unique leader in
///                         O(log² n) expected parallel time on its own.
///
/// ## Fidelity notes (pseudocode → code)
///
/// 1. The paper's lines 9/36/45/52 write `max(x+1, bound)` where the
///    surrounding prose says the value saturates at the bound; we implement
///    the evident intent `min(x+1, bound)`.
/// 2. Table 3 declares `index ∈ {0,…,Φ−1}` but line 45 caps at Φ and line 47
///    tests `index = Φ`; the domain is really {0,…,Φ}.
/// 3. Line 12 initialises `(rand, index) ← (0, 0)` for every agent of
///    VA ∩ (V2 ∪ V3). Taken literally, a follower's `index` would stay 0
///    forever (only leaders advance it, line 43), so line 47 — which
///    requires BOTH parties to have `index = Φ` — could never fire between
///    a follower and anyone, the nonce epidemic could not traverse the
///    follower sub-population, and Lemma 8's proof step "the maximum value
///    of nonces is propagated to the whole sub-population VA" (via Lemma 2)
///    would be impossible: with i ≤ ⌈lg lg n⌉ surviving leaders, direct
///    leader-to-leader contact needs Θ(n) parallel time, not O(log n).
///    We initialise followers with `index = Φ` (leaders with 0), which is
///    exactly the asymmetry QuickElimination already uses (`done = true`
///    for followers, `false` for leaders) and restores the epidemic while
///    preserving every invariant the proofs use: an unfinished leader
///    (index < Φ) still cannot be eliminated, and follower `rand` values
///    are still copies of *finished* leader nonces.
///
/// All other behaviour follows Algorithms 1–5 line by line; the
/// implementation cites line numbers in comments.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "../core/common.hpp"
#include "../core/protocol.hpp"

namespace ppsim {

/// Parameters of PLL derived from the knowledge parameter m (the paper's
/// only input: an integer with m ≥ log2(n) and m = Θ(log n)).
///
/// Besides m, the struct exposes the paper's hard-wired constants as
/// *ablation knobs* D1–D4 (docs/NOTATION.md maps them to the paper's
/// symbols). Defaults reproduce the paper exactly; bench_ablation sweeps
/// them to show why the paper's choices are what they are. Changing them preserves correctness (elections still succeed with
/// probability 1 — BackUp is parameter-agnostic) but moves the speed/space
/// trade-off.
struct PllConfig {
    /// The knowledge parameter m.
    unsigned m = 2;

    /// D1: timer period multiplier — the paper's cmax = 41·m.
    unsigned cmax_multiplier = 41;

    /// D3: level cap multiplier — the paper's lmax = 5·m.
    unsigned lmax_multiplier = 5;

    /// D2: overrides Φ when non-zero (the paper uses ⌈(2/3)·lg m⌉); the
    /// protocols reject an override above max_phi.
    unsigned phi_override = 0;

    /// D4: module composition — disabling a fast module leaves its epoch idle.
    bool enable_quick_elimination = true;
    bool enable_tournament = true;

    /// Constructs the paper's parameterisation for a given population size:
    /// m = max(2, ⌈log2 n⌉). (m must be ≥ 2 so that Φ ≥ 1.)
    [[nodiscard]] static PllConfig for_population(std::size_t n) {
        PllConfig cfg;
        cfg.m = ceil_log2(n) < 2 ? 2 : ceil_log2(n);
        return cfg;
    }

    /// lmax = 5m — cap of levelQ (QuickElimination) and levelB (BackUp).
    [[nodiscard]] unsigned lmax() const noexcept { return lmax_multiplier * m; }

    /// cmax = 41m — period of the B-agents' count-up timer.
    [[nodiscard]] unsigned cmax() const noexcept { return cmax_multiplier * m; }

    /// Largest Φ a state may carry.
    static constexpr unsigned max_phi = 12;

    /// Φ = ⌈(2/3)·lg m⌉ — number of nonce bits drawn per Tournament epoch.
    [[nodiscard]] unsigned phi() const noexcept {
        if (phi_override != 0) return phi_override;
        // ceil((2/3)·lg m), evaluated in floating point — m ≤ 2^32 keeps
        // this exact in double precision.
        const double lg_m = log2_exact(m);
        const double raw = 2.0 * lg_m / 3.0;
        auto phi = static_cast<unsigned>(raw);
        if (static_cast<double>(phi) < raw) ++phi;
        return phi < 1 ? 1 : phi;
    }

    /// Rejects parameters the agent state cannot represent: cmax must fit
    /// the 16-bit timer, lmax the 16-bit levels, and Φ must lie in
    /// [1, max_phi]. Both PLL protocols check this on construction.
    void require_representable() const {
        require(m >= 2, "PLL requires m >= 2");
        require(cmax() >= 2 && cmax() < 65536,
                "timer period cmax out of the representable range");
        require(lmax() >= 1 && lmax() < 65535,
                "level cap lmax out of the representable range");
        require(phi() >= 1 && phi() <= max_phi,
                "nonce width phi = " + std::to_string(phi()) + " exceeds the limit of " +
                    std::to_string(max_phi));
    }

    /// Validates the configuration against a population size: the paper
    /// requires m ≥ log2(n).
    void validate(std::size_t n) const {
        require(m >= 2, "PLL requires m >= 2");
        require(static_cast<double>(m) >= log2_exact(n),
                "PLL requires m >= log2(n); got m = " + std::to_string(m) +
                    " for n = " + std::to_string(n));
    }

private:
    [[nodiscard]] static double log2_exact(double x) noexcept;
};

/// Agent status (Table 3): X = initial, A = leader candidate, B = timer.
enum class PllStatus : std::uint8_t { x = 0, a = 1, b = 2 };

/// The full agent state of PLL (Table 3). Fields outside the agent's
/// current group are kept at zero (the paper leaves them "undefined"); this
/// canonical form makes raw states hashable for the Lemma-3 state count.
struct PllState {
    std::uint16_t count = 0;    ///< VB: count-up timer in {0,…,cmax−1}
    std::uint16_t level_q = 0;  ///< VA∩V1: lottery level in {0,…,lmax}
    std::uint16_t rand = 0;     ///< VA∩(V2∪V3): nonce in {0,…,2^Φ−1}
    std::uint16_t level_b = 0;  ///< VA∩V4: backup level in {0,…,lmax}
    std::uint8_t index = 0;     ///< VA∩(V2∪V3): completed flips in {0,…,Φ}
    PllStatus status = PllStatus::x;
    std::uint8_t epoch = 1;  ///< current epoch in {1,…,4}
    std::uint8_t init = 1;   ///< last epoch whose variables were initialised
    std::uint8_t color = 0;  ///< synchroniser colour in {0,1,2}
    bool done = false;       ///< VA∩V1: finished the lottery?
    bool leader = true;      ///< output variable: true ⇒ output L
    bool tick = false;       ///< transient new-colour flag (reset at line 7)

    friend constexpr bool operator==(const PllState&, const PllState&) = default;
};

/// PLL protocol (asymmetric version of the paper's main part).
class Pll {
public:
    using State = PllState;

    explicit Pll(PllConfig config)
        : config_(config),
          cmax_(config.cmax()),
          lmax_(config.lmax()),
          phi_(static_cast<std::uint8_t>(config.phi())) {
        config.require_representable();
    }

    /// Convenience: the paper's parameterisation for population size n.
    [[nodiscard]] static Pll for_population(std::size_t n) {
        return Pll(PllConfig::for_population(n));
    }

    [[nodiscard]] const PllConfig& config() const noexcept { return config_; }

    // --- Protocol concept ---------------------------------------------------

    /// s_init: status X, leader, epoch 1, colour 0 (Table 3, third column).
    [[nodiscard]] State initial_state() const noexcept { return State{}; }

    /// π_out: L iff the `leader` variable is true.
    [[nodiscard]] Role output(const State& s) const noexcept {
        return s.leader ? Role::leader : Role::follower;
    }

    /// T: Algorithm 1 (which invokes Algorithms 2–5) applied to the ordered
    /// pair (initiator a0, responder a1).
    void interact(State& a0, State& a1) const noexcept;

    [[nodiscard]] std::string_view name() const noexcept { return "pll"; }

    // --- state accounting (Lemma 3 / Table 3) -------------------------------

    /// Injective 64-bit key of a canonical state (dead fields zeroed).
    [[nodiscard]] std::uint64_t state_key(const State& s) const noexcept;

    /// Upper bound on the number of distinct reachable states per agent,
    /// from the Table 3 domains (the Lemma 3 count). Common variables
    /// contribute per-group combinations; `tick` is counted like Table 3
    /// does even though it is semantically transient.
    [[nodiscard]] std::size_t state_bound() const noexcept;

    // --- introspection helpers (benches & tests) ----------------------------

    [[nodiscard]] static bool is_leader(const State& s) noexcept { return s.leader; }
    [[nodiscard]] static unsigned epoch_of(const State& s) noexcept { return s.epoch; }
    [[nodiscard]] static unsigned color_of(const State& s) noexcept { return s.color; }

    /// True when the agent belongs to group VA.
    [[nodiscard]] static bool in_va(const State& s) noexcept {
        return s.status == PllStatus::a;
    }
    /// True when the agent belongs to group VB.
    [[nodiscard]] static bool in_vb(const State& s) noexcept {
        return s.status == PllStatus::b;
    }

private:
    void quick_elimination(State& a0, State& a1) const noexcept;       // Algorithm 3
    void tournament(State& a0, State& a1) const noexcept;              // Algorithm 4
    void back_up(State& a0, State& a1) const noexcept;                 // Algorithm 5
    void initialize_epoch_variables(State& s) const noexcept;          // lines 11–15

    PllConfig config_;
    // cmax, lmax and Φ of config_, computed once: Φ takes a log2.
    unsigned cmax_;
    unsigned lmax_;
    std::uint8_t phi_;
};

static_assert(sizeof(PllState) <= 16, "PLL state should stay within 16 bytes");

}  // namespace ppsim
