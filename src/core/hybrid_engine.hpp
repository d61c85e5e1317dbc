/// \file hybrid_engine.hpp
/// \brief The adaptive hybrid meta-engine: per phase of a run, picks the
/// agent or the gillespie engine by a fixed rule over the population size
/// and two census features, and hands the live configuration between them
/// mid-run.
///
/// **Decision rule.** Neither engine wins everywhere: the agent engine has
/// no per-event overhead on wide state profiles, while the gillespie
/// engine's geometric null-skipping makes a narrow, null-dominated profile
/// nearly free and its τ-leaps batch many steps into few transitions at
/// large n. The rule (`choose_mode`) reads n, the live-state count d and the
/// null mass z (the share of interactions that change nothing):
///
///  * n ≥ 8 × `GillespieEngine::leap_min_population` (2¹⁵), the τ-leap
///    regime: gillespie while d² < 16·L, and from agent only at d² < 8·L
///    (L = n/64, the leap length). A leap walks the d live states twice and
///    applies one transition per distinct (initiator, responder) cell, and
///    d² bounds the cells. Skewed counts keep the real cell count far below
///    d², so the line sits at 8–16 leap lengths rather than one. Unlike the
///    work ratios below, these two factors are read off elections measured
///    on a 4-vCPU Xeon (docs/ARCHITECTURE.md, "Adaptive engine selection"):
///    pll (d²/L ≈ 4–7) elects about as fast on gillespie as on agent at
///    2¹⁵–2¹⁶, pll_symmetric (d²/L ≈ 20–130) 2–3× slower, mst18_style
///    (d → n) over 100× slower;
///  * otherwise, d > `GillespieEngine::channel_state_cap` (32): agent —
///    gillespie would fall back to a per-step O(d) path or to short leaps;
///  * otherwise gillespie iff (1 − z)·(d² + 13) < 8, and back to agent only
///    at ≥ 16. Gillespie's exact SSA path rebuilds its d² channels once per
///    non-null event, and a step has (1 − z) such events; 13 and 8 are the
///    fixed work of one event and of one agent step, counted in channel
///    visits — work ratios, not measured times.
///
/// **Cadence.** The engine evaluates the rule at step thresholds spaced
/// geometrically (starting at max(n/4, 16384) steps, doubling up to 4n
/// while the decision is stable, resetting on a switch).
///
/// **Segment streams.** Each contiguous run segment k (starting at k = 0)
/// runs a fresh inner engine seeded
/// `derive_seed(root_seed, hybrid_segment_tag + k)` — the same SplitMix64
/// discipline as the fault stream, so no hybrid stream ever
/// collides with a fixed engine's streams and a segment's draws are
/// independent of how previous segments were produced. A switch hands
/// over the exact census, step counter and stabilisation step via
/// `adopt_census`; observers attached at the Simulation layer see one
/// continuous run. Evaluation happens at *step thresholds* the engine
/// enforces by clamping its own chunks, never at wall-clock times or chunk
/// boundaries chosen by callers — so observer cadences and `run_for` slicing
/// cannot move the evaluation steps, on any machine. While on gillespie,
/// that slicing still ends leaps early, as on the fixed count engines
/// (observer.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "checkpoint_io.hpp"
#include "common.hpp"
#include "engine.hpp"
#include "gillespie_engine.hpp"
#include "protocol.hpp"
#include "random.hpp"

namespace ppsim {

/// PRNG stream tag of the hybrid segment split ("hybr"): segment k of a
/// hybrid run is seeded `derive_seed(root_seed, hybrid_segment_tag + k)`.
/// Distinct from the fault tag ("faul"), so hybrid segment streams can never
/// collide with the fault stream.
inline constexpr std::uint64_t hybrid_segment_tag = 0x68796272ULL;

/// Fixed work of one gillespie exact-SSA event beyond its d² channel
/// rebuild, and of one agent-engine step, both in channel visits.
inline constexpr double hybrid_event_work = 13.0;
inline constexpr double hybrid_agent_step_work = 8.0;

/// Gillespie must predict this factor less work than the agent engine to
/// take over, and the agent engine takes back only at this factor more —
/// the anti-thrashing hysteresis.
inline constexpr double hybrid_hysteresis = 2.0;

/// In the τ-leap regime gillespie takes over from agent while d² is below
/// this many leap lengths (and holds up to `hybrid_hysteresis` times it).
inline constexpr double hybrid_leap_cell_bound = 8.0;

/// The observed features of the current phase that enter the rule.
struct PhaseFeatures {
    std::size_t live_states = 0;  ///< d: states with a non-zero count
    double null_mass = 0.0;       ///< z ∈ [0, 1]: share of null interactions
};

/// Adaptive hybrid meta-engine. Drop-in alternative to the fixed engines
/// for the run/verify surface (run_until_one_leader, run_for,
/// verify_outputs_stable, RunResult, fault injection) — the active inner
/// engine does the stepping, this class does the choosing and the handoffs.
template <typename P>
    requires InternableProtocol<P>
class HybridEngine {
public:
    using State = typename P::State;
    using Census = std::vector<std::pair<State, std::uint64_t>>;

    /// Populations at or above this are in the τ-leap regime of the rule.
    static constexpr std::size_t leap_regime_population =
        8 * GillespieEngine<P>::leap_min_population;
    /// Live-state count above which a smaller population runs on agent.
    static constexpr std::size_t max_gillespie_states =
        GillespieEngine<P>::channel_state_cap;

    /// The pure decision rule (see the file comment): the engine to run at
    /// population `n` under `features`, given the `current` one. `null_mass`
    /// is only read when n < leap_regime_population and d ≤
    /// max_gillespie_states. Unit tested directly — no engine, no clock.
    [[nodiscard]] static EngineKind choose_mode(std::size_t n,
                                                const PhaseFeatures& features,
                                                EngineKind current) noexcept {
        const auto d = static_cast<double>(features.live_states);
        // The incumbent gillespie engine keeps its lines `hybrid_hysteresis`
        // times further out.
        const double hysteresis =
            current == EngineKind::gillespie ? hybrid_hysteresis : 1.0;
        if (n >= leap_regime_population) {
            return d * d < hysteresis * hybrid_leap_cell_bound * leap_length(n)
                       ? EngineKind::gillespie
                       : EngineKind::agent;
        }
        if (features.live_states > max_gillespie_states) return EngineKind::agent;
        const double gillespie_work =
            (1.0 - features.null_mass) * (d * d + hybrid_event_work);
        return gillespie_work < hysteresis * hybrid_agent_step_work
                   ? EngineKind::gillespie
                   : EngineKind::agent;
    }

    /// The gillespie engine's τ-leap length L at population `n`.
    [[nodiscard]] static double leap_length(std::size_t n) noexcept {
        return static_cast<double>(n / GillespieEngine<P>::leap_divisor);
    }

    HybridEngine(P protocol, std::size_t n, std::uint64_t seed)
        : protocol_(std::move(protocol)), n_(n), root_seed_(seed) {
        require(n >= 2, "population must contain at least two agents");
        require_count_population(n);
        // The initial pick has no incumbent: the agent engine's threshold
        // applies.
        Census initial;
        initial.emplace_back(protocol_.initial_state(), n_);
        construct_engine(choose_mode(n_, features_of(initial), EngineKind::agent));
        eval_interval_ = initial_eval_interval();
        schedule_evaluation();
    }

    // --- observation ------------------------------------------------------

    [[nodiscard]] std::size_t population_size() const noexcept { return n_; }
    [[nodiscard]] StepCount steps() const noexcept {
        return with_engine([](const auto& e) { return e.steps(); });
    }
    [[nodiscard]] double parallel_time() const noexcept {
        return to_parallel_time(steps(), n_);
    }
    [[nodiscard]] std::size_t leader_count() const noexcept {
        return with_engine([](const auto& e) { return e.leader_count(); });
    }
    [[nodiscard]] const P& protocol() const noexcept { return protocol_; }
    [[nodiscard]] std::optional<StepCount> stabilization_step() const noexcept {
        return with_engine([](const auto& e) { return e.stabilization_step(); });
    }

    /// The engine currently executing: EngineKind::agent or ::gillespie.
    [[nodiscard]] EngineKind mode() const noexcept { return mode_; }
    /// Mid-run mode switches performed so far.
    [[nodiscard]] std::size_t switches() const noexcept { return switches_; }

    /// Number of distinct states with a non-zero count. O(#states) on
    /// gillespie, one hashed O(n) pass (`census_of`) in agent mode.
    [[nodiscard]] std::size_t live_state_count() const {
        if (mode_ == EngineKind::agent) return collect_census().size();
        return gillespie_->live_state_count();
    }

    /// Sum of all counts — the population size, by conservation.
    [[nodiscard]] std::uint64_t total_count() const {
        std::uint64_t total = 0;
        visit_counts([&total](const State&, std::uint64_t c, Role) { total += c; });
        return total;
    }

    /// Visits every state with a non-zero count as (state, count, role),
    /// regardless of the active mode (agent mode pays an O(n) walk).
    template <typename Visitor>
    void visit_counts(Visitor&& visit) const {
        if (mode_ == EngineKind::agent) {
            for (const auto& [s, c] : collect_census()) {
                visit(s, c, protocol_.output(s));
            }
            return;
        }
        gillespie_->visit_counts(visit);
    }

    /// Recomputes the leader count from the configuration (tests / checks).
    std::size_t recount_leaders() {
        return with_engine([](auto& e) { return e.recount_leaders(); });
    }

    // --- execution --------------------------------------------------------

    /// Runs until exactly one leader remains or `max_steps` further steps
    /// have been executed, whichever comes first. Chunks are clamped at the
    /// engine's own evaluation thresholds, so mode decisions land at the
    /// identical steps no matter how callers slice the run.
    RunResult run_until_one_leader(StepCount max_steps) {
        StepCount executed = 0;
        while (leader_count() != 1 && executed < max_steps) {
            executed += slice(max_steps - executed, /*stop_at_single_leader=*/true);
        }
        return make_result(leader_count() == 1);
    }

    /// Runs exactly `count` steps (every inner engine clamps to its budget).
    RunResult run_for(StepCount count) {
        StepCount executed = 0;
        while (executed < count) {
            executed += slice(count - executed, /*stop_at_single_leader=*/false);
        }
        return make_result(leader_count() == 1);
    }

    /// Runs `count` additional steps and reports whether any agent's output
    /// changed. A certification suffix, not part of the adaptive trajectory:
    /// it runs entirely on the active mode, with no evaluations or switches.
    [[nodiscard]] bool verify_outputs_stable(StepCount count) {
        return with_engine([count](auto& e) { return e.verify_outputs_stable(count); });
    }

    // --- fault injection ---------------------------------------------------

    /// Forwards one crash/rejoin/reset fault to the active engine (whose
    /// surgery and single-leader re-anchoring are authoritative), then
    /// re-reads the population size — a crash or rejoin changes n, which
    /// feeds the rule, the evaluation cadence and any later engine handoff.
    /// A rejoin past the count engines' ceiling fails in either mode.
    void apply_fault(const FaultAction& action) {
        if (action.kind == FaultKind::rejoin) require_count_population(n_, action.count);
        with_engine([&action](auto& e) { e.apply_fault(action); });
        n_ = with_engine([](const auto& e) { return e.population_size(); });
    }

    /// Advances the step counter through a rate-zero silence window.
    void advance_silent(StepCount count) noexcept {
        with_engine([count](auto& e) { e.advance_silent(count); });
    }

    // --- test hooks -------------------------------------------------------

    /// Pins the engine to `m` (agent or gillespie) from now on: switches
    /// immediately (full census handoff) when `m` is not the active mode,
    /// and disables all further evaluations. The deterministic
    /// forced-switch harness for tests.
    void force_mode(EngineKind m) {
        require(m == EngineKind::agent || m == EngineKind::gillespie,
                "the hybrid engine runs only the agent and gillespie engines");
        forced_ = true;
        next_eval_step_ = never;
        if (m != mode_) switch_to(m, collect_census());
    }

    /// The agent-mode engine's population (tests); requires agent mode.
    [[nodiscard]] const Population<State>& agent_population() const {
        require(mode_ == EngineKind::agent, "the hybrid engine is not in agent mode");
        return agent_->population();
    }

    /// Per-evaluation census sample size in agent mode below the leap
    /// regime: features come from the census of this many agents instead of
    /// all n, so an evaluation costs O(cap) there — random pairing keeps
    /// agent positions exchangeable, so a fixed prefix is a uniform multiset
    /// sample, and using a fixed one keeps the run deterministic (no extra
    /// PRNG draws).
    static constexpr std::size_t feature_sample_cap = 4096;

    /// The census of the live configuration, sorted by canonical state key
    /// (deterministic across modes). O(#states) on gillespie, O(n) in agent
    /// mode. Always exact — this is what mode handoffs transfer.
    [[nodiscard]] Census collect_census() const {
        if (mode_ == EngineKind::agent) {
            return census_of_agents(agent_->population().states().size());
        }
        Census census;
        gillespie_->visit_counts([&census](const State& s, std::uint64_t c, Role) {
            census.emplace_back(s, c);
        });
        std::sort(census.begin(), census.end(), [this](const auto& a, const auto& b) {
            return state_key_of(protocol_, a.first) < state_key_of(protocol_, b.first);
        });
        return census;
    }

    /// The decision features of a census: its live-state count, and — only
    /// when that is at most `max_gillespie_states`, the one case the rule
    /// reads it — the null mass by direct protocol evaluation over every
    /// ordered pair of states. The pair weight is normalised by the census's
    /// own total, so a sampled census (agent mode) yields its sample estimate
    /// of z. Every census the engine reads holds at least two agents.
    [[nodiscard]] PhaseFeatures features_of(const Census& census) const {
        PhaseFeatures f;
        f.live_states = census.size();
        if (census.size() > max_gillespie_states) return f;
        std::uint64_t total = 0;
        for (const auto& [s, c] : census) total += c;
        double nonnull = 0.0;  // non-null ordered-pair weight
        for (const auto& [sa, ca] : census) {
            for (const auto& [sb, cb] : census) {
                const double w =
                    state_key_of(protocol_, sa) == state_key_of(protocol_, sb)
                        ? static_cast<double>(ca) * (static_cast<double>(ca) - 1.0)
                        : static_cast<double>(ca) * static_cast<double>(cb);
                if (w <= 0.0) continue;
                State x = sa;
                State y = sb;
                protocol_.interact(x, y);
                if (state_key_of(protocol_, x) == state_key_of(protocol_, sa) &&
                    state_key_of(protocol_, y) == state_key_of(protocol_, sb)) {
                    continue;  // null interaction
                }
                nonnull += w;
            }
        }
        const double w_total =
            static_cast<double>(total) * (static_cast<double>(total) - 1.0);
        f.null_mass = std::clamp(1.0 - nonnull / w_total, 0.0, 1.0);
        return f;
    }

    // --- checkpointing ------------------------------------------------------

    /// Serialises the meta-engine's adaptive state — the active mode, the
    /// segment index (stream split position), the evaluation cadence — and
    /// the active inner engine's full state.
    void save_state(CheckpointWriter& w) const {
        w.u64(n_);
        w.u8(static_cast<std::uint8_t>(mode_));
        w.u64(segment_);
        w.u64(switches_);
        w.u64(eval_interval_);
        w.u64(next_eval_step_);
        w.boolean(forced_);
        with_engine([&w](const auto& e) { e.save_state(w); });
    }

    /// Restores a `save_state` payload into an engine built with the same
    /// protocol and root seed: the active inner engine is rebuilt on its
    /// original segment stream before its own state is restored into it.
    void restore_state(CheckpointReader& r) {
        n_ = r.u64();  // checked by the inner engine's constructor
        const auto mode = static_cast<EngineKind>(r.u8());
        require(mode == EngineKind::agent || mode == EngineKind::gillespie,
                "checkpoint names an unknown hybrid mode");
        segment_ = r.u64();
        switches_ = r.u64();
        eval_interval_ = r.u64();
        next_eval_step_ = r.u64();
        forced_ = r.boolean();
        construct_engine(mode);
        with_engine([&r](auto& e) { e.restore_state(r); });
    }

private:
    static constexpr StepCount never = std::numeric_limits<StepCount>::max();

    /// Census of the first `limit` agents of the agent engine's population
    /// (the whole population when limit ≥ n), key-sorted.
    [[nodiscard]] Census census_of_agents(std::size_t limit) const {
        const auto states = agent_->population().states();
        return census_of(protocol_, states.first(std::min(limit, states.size())));
    }

    /// The census evaluations read features from: exact on gillespie
    /// (O(#states) there), a `feature_sample_cap`-agent sample in agent mode
    /// below the leap regime. In the leap regime agent mode only asks
    /// whether d² reaches 8·L, and a fixed prefix undercounts the rare
    /// states that add fully to a leap's walk and cells: at 2^15 a
    /// 4096-agent prefix of pll_symmetric held under 64 of its 106–150 live
    /// states, and the run switched at every evaluation. There the prefix
    /// doubles from 256 agents until its census alone keeps the run on
    /// agent, or covers the population — the exact census's decision, at a
    /// few hundred agents for a wide profile (mst18_style) instead of an
    /// O(n) pass. Handoffs always use the exact `collect_census`.
    [[nodiscard]] Census feature_census() const {
        if (mode_ != EngineKind::agent) return collect_census();
        if (n_ < leap_regime_population) return census_of_agents(feature_sample_cap);
        const double agent_holds = hybrid_leap_cell_bound * leap_length(n_);
        for (std::size_t prefix = 256;; prefix *= 2) {
            Census census = census_of_agents(prefix);
            const auto d = static_cast<double>(census.size());
            if (prefix >= n_ || d * d >= agent_holds) return census;
        }
    }

    // --- mode dispatch ----------------------------------------------------

    template <typename F>
    decltype(auto) with_engine(F&& f) {
        if (mode_ == EngineKind::agent) return f(*agent_);
        return f(*gillespie_);
    }

    template <typename F>
    decltype(auto) with_engine(F&& f) const {
        if (mode_ == EngineKind::agent) return f(*agent_);
        return f(*gillespie_);
    }

    // --- run loop ---------------------------------------------------------

    /// One chunk: evaluate at a due threshold, then advance the active
    /// engine up to the next threshold (or the budget, whichever is
    /// nearer); returns the steps executed.
    StepCount slice(StepCount budget, bool stop_at_single_leader) {
        maybe_evaluate();
        const StepCount now = steps();
        const StepCount to_eval =
            next_eval_step_ > now ? next_eval_step_ - now : StepCount{1};
        const StepCount chunk = std::min(budget, to_eval);
        if (stop_at_single_leader) {
            with_engine([chunk](auto& e) { (void)e.run_until_one_leader(chunk); });
        } else {
            with_engine([chunk](auto& e) { (void)e.run_for(chunk); });
        }
        return steps() - now;
    }

    /// The evaluation interval restarts here after every switch (and at
    /// construction): big enough that the census walk and the d² feature
    /// pairs amortise to a few percent of the interval's own work, small
    /// enough to catch a phase change within about one parallel-time unit.
    [[nodiscard]] StepCount initial_eval_interval() const noexcept {
        return std::max<StepCount>(n_ / 4, 16384);
    }

    /// Sets the next evaluation `eval_interval_` steps from now.
    void schedule_evaluation() { next_eval_step_ = steps() + eval_interval_; }

    /// Re-decides the mode when a threshold has been reached: census →
    /// features → choose_mode. A stable decision backs the cadence off
    /// geometrically (capped at 4n); a switch resets it.
    void maybe_evaluate() {
        if (forced_ || steps() < next_eval_step_) return;
        const EngineKind target = choose_mode(n_, features_of(feature_census()), mode_);
        if (target != mode_) {
            switch_to(target, collect_census());
            eval_interval_ = initial_eval_interval();
        } else {
            eval_interval_ = std::min<StepCount>(eval_interval_ * 2, 4 * n_);
        }
        schedule_evaluation();
    }

    // --- engine handoff ---------------------------------------------------

    /// Replaces the active engine with a fresh `m`-mode engine on the next
    /// segment stream and hands it the census, step counter and
    /// stabilisation step — the mid-run switch.
    void switch_to(EngineKind m, const Census& census) {
        const StepCount now = steps();
        const std::optional<StepCount> stab = stabilization_step();
        ++segment_;
        construct_engine(m);
        with_engine([&](auto& e) { e.adopt_census(census, now, stab); });
        ++switches_;
    }

    /// Builds the inner engine for `m` on the current segment's stream (a
    /// fresh all-initial configuration at step 0; callers adopt a census
    /// into it when continuing a run).
    void construct_engine(EngineKind m) {
        const std::uint64_t seed = derive_seed(root_seed_, hybrid_segment_tag + segment_);
        agent_.reset();
        gillespie_.reset();
        if (m == EngineKind::agent) {
            agent_ = std::make_unique<Engine<P>>(protocol_, n_, seed);
        } else {
            gillespie_ = std::make_unique<GillespieEngine<P>>(protocol_, n_, seed);
        }
        mode_ = m;
    }

    [[nodiscard]] RunResult make_result(bool converged) const noexcept {
        RunResult r;
        r.converged = converged;
        r.steps = steps();
        r.parallel_time = to_parallel_time(r.steps, n_);
        r.leader_count = leader_count();
        r.stabilization_step = stabilization_step();
        return r;
    }

    P protocol_;
    std::size_t n_;
    std::uint64_t root_seed_;
    EngineKind mode_ = EngineKind::agent;
    std::unique_ptr<Engine<P>> agent_;               ///< active iff mode_ == agent
    std::unique_ptr<GillespieEngine<P>> gillespie_;  ///< active iff mode_ == gillespie
    std::uint64_t segment_ = 0;       ///< current segment index (stream split)
    std::size_t switches_ = 0;        ///< mid-run handoffs performed
    StepCount eval_interval_ = 0;     ///< current threshold spacing
    StepCount next_eval_step_ = 0;    ///< absolute step of the next evaluation
    bool forced_ = false;             ///< force_mode pinned the mode (tests)
};

}  // namespace ppsim
