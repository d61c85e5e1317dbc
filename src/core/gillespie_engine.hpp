/// \file gillespie_engine.hpp
/// \brief Reaction-rate simulation engine: the population protocol viewed as
/// a chemical reaction network, simulated by Gillespie's stochastic
/// simulation algorithm (SSA) over reaction channels with a τ-leaping fast
/// path.
///
/// The discrete scheduler picks a uniformly random ordered pair of agents
/// per step, so conditioned on the per-state counts the *channel* — the
/// ordered (initiator-state, responder-state) pair — of step t is
/// categorical with weight c_a·(c_b − [a = b]) out of n(n−1). Channels whose
/// transition is the identity ("null reactions") leave the configuration
/// unchanged, which is what the two execution paths exploit:
///
///  * **Exact SSA.** The number of steps until the next *non-null* firing is
///    geometric with success probability W_nonnull / n(n−1), where W_nonnull
///    sums the non-null channel weights. One geometric draw skips every null
///    step at once, then one categorical draw over the non-null channels
///    picks the reaction — the embedded-jump-chain form of Gillespie's
///    direct method, exact in distribution for the step-indexed chain (the
///    analogue of exponential waiting times in continuous time). Channel
///    enumeration is O(d²) per event (d = live states) and is used while
///    d ≤ `channel_state_cap`; wider configurations at small n fall back to
///    an exact per-step categorical sampler (O(d) per step, still the exact
///    chain — it just cannot skip nulls).
///
///  * **τ-leaping.** At large n the engine freezes the per-state counts for
///    a leap of L = n/`leap_divisor` steps and spreads the L interactions
///    over the states at once: initiator and responder multisets are
///    multinomial draws over the counts (conditional chains of `binomial`
///    draws — the with-replacement sibling of the batched engine's
///    hypergeometric chains), paired through the pluggable batch-pairing
///    layer (batch_pairing.hpp) and applied through the shared memoised
///    transition cache with per-cell multiplicities. Unlike the batched
///    engine, a leap is NOT bounded by the birthday-problem collision-free
///    run (Θ(√n)): the per-leap O(#live states + #cells) overheads amortise
///    over Θ(n) steps, which is what wins on wide-state protocols where
///    those overheads bound the batched engine. The price is the standard
///    τ-leaping approximation: propensities are frozen within a leap
///    (relative drift ≤ ~1/leap_divisor per state per leap), sampling is
///    with replacement (a state can be over-drawn past its count; excess
///    pairs are dropped as nulls, counted in `dropped_pairs()`), and the
///    initiator/responder draws ignore the same-agent exclusion (O(1/n)
///    per pair). Statistical agreement with the exact engines is enforced
///    by the KS harness in tests/test_statistical.cpp.
///
/// **Rate-annotated protocols** (RatedProtocol, protocol.hpp) are this
/// engine's native habitat: a channel's propensity simply becomes
/// c_a·(c_b − [a = b])·rate(a, b)/max_rate — the geometric null-skip then
/// jumps both null *transitions* and rate-thinned steps at once, and the
/// categorical draw picks among non-null channels by their rated weights.
/// No rejection loop: rates enter the weights directly (exact for the
/// thinned chain defined in protocol.hpp). The τ-leap path thins each cell
/// binomially, identical in distribution to the batched engine's thinning.
/// Unrated protocols keep the integer-weight hot path bit-for-bit.
///
/// The paths compose automatically: leaping needs n ≥ `leap_min_population`
/// (below that the engine is *exact* — the configuration is one of the two
/// SSA forms), and when the enumerated channels show fewer than
/// `ssa_event_threshold` expected non-null firings per leap the engine drops
/// back to exact SSA — near stabilisation of annihilation-style protocols
/// (angluin06's last few leaders) one geometric draw then jumps millions of
/// null steps at once, which is both exact and far faster than leaping.
///
/// Stabilisation steps are recorded exactly on the SSA paths by
/// construction; a leap that crosses to a single leader is localised by
/// replaying the leap's per-pair leader deltas in a uniformly shuffled
/// order, exactly as the batched engine replays its batches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "batch_pairing.hpp"
#include "common.hpp"
#include "count_store.hpp"
#include "engine.hpp"  // RunResult
#include "fault.hpp"
#include "protocol.hpp"
#include "random.hpp"
#include "state_index.hpp"
#include "transition_cache.hpp"

namespace ppsim {

/// One row of the exact-SSA firing tally (test introspection): an ordered
/// channel identified by the canonical state keys of its input pair, and
/// how many times it fired. See GillespieEngine::enable_channel_tally.
struct ChannelFiredCount {
    std::uint64_t initiator_key = 0;
    std::uint64_t responder_key = 0;
    std::uint64_t fired = 0;
};

/// Reaction-rate (Gillespie SSA + τ-leaping) simulation engine. Drop-in
/// alternative to Engine<P> / BatchedEngine<P> for the run/verify surface
/// (run_until_one_leader, run_for, verify_outputs_stable, RunResult), minus
/// per-agent observation — like the batched engine it works on counts.
template <typename P>
    requires InternableProtocol<P>
class GillespieEngine {
public:
    using State = typename P::State;

    /// Population floor for the τ-leaping path; below it every step is
    /// simulated by an exact SSA form, which is what the cross-engine KS
    /// harness relies on at small n.
    static constexpr std::size_t leap_min_population = 4096;
    /// Live-state cap for per-event channel enumeration (O(d²) per event).
    static constexpr std::size_t channel_state_cap = 32;
    /// Leap length as a fraction of n: L = max(1, n / leap_divisor), the
    /// τ-selection bound — each state's expected relative drift per leap is
    /// at most ~2/leap_divisor. 64 keeps the per-leap drift below ~3%, the
    /// level at which the KS agreement harness (tests/test_statistical.cpp)
    /// cannot distinguish leaped from exact runs, while leaps stay 1–2
    /// orders of magnitude longer than the batched engine's Θ(√n) batches.
    static constexpr std::uint64_t leap_divisor = 64;
    /// Expected non-null firings per leap below which exact SSA (geometric
    /// null-skipping) replaces leaping — the near-stabilisation fallback.
    static constexpr double ssa_event_threshold = 4.0;
    /// Steps per round of the exact per-step categorical form (wide d at
    /// small n), so callers regain control at a bounded cadence.
    static constexpr StepCount categorical_chunk = 4096;

    GillespieEngine(P protocol, std::size_t n, std::uint64_t seed)
        : protocol_(std::move(protocol)),
          n_(n),
          rng_(seed),
          fault_rng_(derive_seed(seed, fault_stream_tag)) {
        require(n >= 2, "population must contain at least two agents");
        // Channel weights c_a·c_b are computed in 64 bits; n ≤ 2^32 keeps
        // them (and their sum, ≤ n(n−1)) below 2^64, matching the agent-id
        // ceiling of the rest of the library.
        require(n <= (std::uint64_t{1} << 32U),
                "gillespie engine supports populations up to 2^32 agents");
        const StateId init = intern(protocol_.initial_state());
        store_.counts()[init] = n_;
        store_.make_live(init);
        leader_count_ = store_.index().is_leader(init) ? n_ : 0;
        initiators_.reserve(64);
        responders_.reserve(64);
        pairs_.cells.reserve(64);
        channels_.reserve(64);
    }

    // --- observation ------------------------------------------------------

    [[nodiscard]] std::size_t population_size() const noexcept { return n_; }
    [[nodiscard]] StepCount steps() const noexcept { return steps_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return to_parallel_time(steps_, n_);
    }
    [[nodiscard]] std::size_t leader_count() const noexcept { return leader_count_; }
    [[nodiscard]] const P& protocol() const noexcept { return protocol_; }
    [[nodiscard]] std::optional<StepCount> stabilization_step() const noexcept {
        return first_single_leader_step_;
    }

    /// Exact count of agents currently in state `s` (0 when never interned).
    [[nodiscard]] std::uint64_t count_of(const State& s) const {
        return store_.count_of(protocol_, s);
    }

    /// Number of distinct states with a non-zero count.
    [[nodiscard]] std::size_t live_state_count() const noexcept {
        return store_.live_state_count();
    }

    /// Sum of all counts — the population size, by conservation.
    [[nodiscard]] std::uint64_t total_count() const noexcept {
        return store_.total_count();
    }

    /// τ-leaps executed so far (introspection for tests and benches).
    [[nodiscard]] std::uint64_t leaps_taken() const noexcept { return leaps_; }
    /// Exact SSA firings executed so far (both enumerated and categorical).
    [[nodiscard]] std::uint64_t exact_events() const noexcept { return exact_events_; }
    /// Over-drawn pairs dropped by τ-leap clamping — the engine's measure of
    /// its own leaping error (0 whenever the engine never leaped).
    [[nodiscard]] std::uint64_t dropped_pairs() const noexcept { return dropped_pairs_; }

    /// Test introspection: start counting exact-SSA firings per ordered
    /// channel (one branch per non-null event while enabled; τ-leap cells
    /// are not tallied — use small n so the engine stays on the SSA paths).
    /// The sampler-marginal chi-square tests compare the tally against the
    /// propensity ratios c_a·(c_b − [a = b])·rate(a, b).
    void enable_channel_tally() noexcept { tally_enabled_ = true; }

    /// Clears the tally (e.g. after a warm-up phase).
    void clear_channel_tally() { tally_.clear(); }

    /// The firing tally as (initiator key, responder key, fired) rows,
    /// sorted by key pair for deterministic comparison.
    [[nodiscard]] std::vector<ChannelFiredCount> channel_tally() const {
        std::vector<ChannelFiredCount> out;
        out.reserve(tally_.size());
        for (const auto& [packed, fired] : tally_) {
            const auto a = static_cast<StateId>(packed >> 32U);
            const auto b = static_cast<StateId>(packed & 0xFFFFFFFFULL);
            out.push_back(ChannelFiredCount{
                state_key_of(protocol_, store_.index().state(a)),
                state_key_of(protocol_, store_.index().state(b)), fired});
        }
        std::sort(out.begin(), out.end(),
                  [](const ChannelFiredCount& x, const ChannelFiredCount& y) {
                      return x.initiator_key != y.initiator_key
                                 ? x.initiator_key < y.initiator_key
                                 : x.responder_key < y.responder_key;
                  });
        return out;
    }

    /// Visits every state with a non-zero count as (state, count, role) —
    /// O(#states) regardless of n; only valid between public calls.
    template <typename Visitor>
    void visit_counts(Visitor&& visit) const {
        store_.visit_counts(visit);
    }

    /// Recomputes the leader count from the count vector (tests / checks).
    std::size_t recount_leaders() {
        leader_count_ = store_.recount_leaders();
        return leader_count_;
    }

    /// Read-only view of the shared count store (hybrid-engine feature
    /// extraction, tests).
    [[nodiscard]] const InternedCountStore<P>& store() const noexcept { return store_; }

    /// Read-only view of the memoised transition cache (introspection).
    [[nodiscard]] const TransitionCache& transition_cache() const noexcept {
        return cache_;
    }

    /// Adopts a configuration handed over by another engine (the hybrid
    /// meta-engine's mid-run switch, hybrid_engine.hpp): replaces the count
    /// vector with the census and carries the step counter and
    /// stabilisation step across. The census must conserve this engine's
    /// population size; channels are rebuilt from the counts at the next
    /// round as always. The SSA / fault streams keep the seed this engine
    /// was built with — each hybrid segment owns its stream.
    void adopt_census(const std::vector<std::pair<State, std::uint64_t>>& census,
                      StepCount steps, std::optional<StepCount> stabilization_step) {
        const std::uint64_t total = store_.adopt_census(protocol_, census);
        require(total == n_, "census does not conserve the population");
        steps_ = steps;
        first_single_leader_step_ = stabilization_step;
        leader_count_ = store_.recount_leaders();
    }

    // --- execution --------------------------------------------------------

    /// Runs until exactly one leader remains or `max_steps` further steps
    /// have been executed, whichever comes first. A final τ-leap may run a
    /// few interactions past the stabilisation step (harmless for absorbing
    /// predicates); `stabilization_step` is exact.
    RunResult run_until_one_leader(StepCount max_steps) {
        StepCount executed = 0;
        while (leader_count_ != 1 && executed < max_steps) {
            executed += round(max_steps - executed, /*stop_at_single_leader=*/true);
        }
        return make_result(leader_count_ == 1);
    }

    /// Runs exactly `count` steps: every path clamps to the remaining
    /// budget, so there is no overrun.
    RunResult run_for(StepCount count) {
        StepCount executed = 0;
        while (executed < count) {
            executed += round(count - executed, /*stop_at_single_leader=*/false);
        }
        return make_result(leader_count_ == 1);
    }

    /// Runs `count` additional steps and reports whether any agent's output
    /// changed during them (and the leader count stayed put). Null reactions
    /// never change outputs, so the geometric skips are free here too.
    [[nodiscard]] bool verify_outputs_stable(StepCount count) {
        const std::size_t leaders_before = leader_count_;
        role_change_seen_ = false;
        StepCount executed = 0;
        while (executed < count) {
            executed += round(count - executed, /*stop_at_single_leader=*/false);
        }
        return !role_change_seen_ && leader_count_ == leaders_before;
    }

    // --- fault injection ---------------------------------------------------

    /// Applies one crash/rejoin/reset fault between rounds by count-vector
    /// surgery on the shared store. No explicit propensity invalidation is
    /// needed: the channel list is rebuilt from the live counts at the top
    /// of every round (`build_channels` / the leap multiset chains read the
    /// counts directly), and the transition cache is keyed on state ids,
    /// which surgery never perturbs. All randomness comes from the
    /// dedicated fault stream, so the post-fault SSA stream replays
    /// deterministically. Silence never reaches the engine.
    void apply_fault(const FaultAction& action) {
        require(action.kind != FaultKind::silence,
                "silence is applied by the run layer, not the engine");
        switch (action.kind) {
            case FaultKind::crash: {
                std::uint64_t k = resolve_fault_count(action, n_);
                if (k >= n_) k = n_ - 1;  // always leave one survivor
                const std::uint64_t leaders_removed =
                    remove_uniform_agents(store_, fault_rng_, k, n_);
                n_ -= k;
                leader_count_ -= leaders_removed;
                break;
            }
            case FaultKind::rejoin: {
                const std::uint64_t k = action.count;
                require(n_ + k <= (std::uint64_t{1} << 32U),
                        "rejoin would grow the population past 2^32 agents");
                const StateId init = intern(protocol_.initial_state());
                store_.counts()[init] += k;
                store_.make_live(init);
                n_ += k;
                if (store_.index().is_leader(init)) leader_count_ += k;
                break;
            }
            case FaultKind::reset: {
                std::uint64_t k = resolve_fault_count(action, n_);
                if (k > n_) k = n_;
                const std::uint64_t leaders_removed =
                    remove_uniform_agents(store_, fault_rng_, k, n_);
                const StateId init = intern(protocol_.initial_state());
                store_.counts()[init] += k;
                store_.make_live(init);
                leader_count_ -= leaders_removed;
                if (store_.index().is_leader(init)) leader_count_ += k;
                break;
            }
            case FaultKind::silence: break;  // unreachable (guarded above)
        }
        // Re-anchor single-leader detection at the post-fault configuration.
        first_single_leader_step_ = leader_count_ == 1
                                        ? std::optional<StepCount>(steps_)
                                        : std::nullopt;
    }

    /// Advances the step counter through a rate-zero silence window without
    /// touching counts or randomness.
    void advance_silent(StepCount count) noexcept { steps_ += count; }

    // --- checkpointing ------------------------------------------------------

    /// Serialises the engine's complete replay-relevant state: the SSA and
    /// fault stream positions, the interned count store, the
    /// step/leader/stabilisation counters and the leap/event tallies. The
    /// channel list and its weights are per-round transients (rebuilt from
    /// the live counts at the top of every round), so they are never
    /// persisted. Legal between public calls only.
    void save_state(CheckpointWriter& w) const {
        w.u64(n_);
        w.pod(rng_.state());
        w.pod(fault_rng_.state());
        store_.save_state(w);
        w.u64(steps_);
        w.u64(leader_count_);
        w.opt_u64(first_single_leader_step_);
        w.boolean(role_change_seen_);
        w.u64(leaps_);
        w.u64(exact_events_);
        w.u64(dropped_pairs_);
    }

    /// Restores a `save_state` payload into an engine built with the same
    /// protocol. The transition cache is dropped (its entries may reference
    /// states interned after the checkpoint); recomputation re-interns
    /// outputs in the original order, keeping replay bit-identical.
    void restore_state(CheckpointReader& r) {
        n_ = r.u64();
        rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
        fault_rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
        store_.restore_state(protocol_, r);
        steps_ = r.u64();
        leader_count_ = r.u64();
        first_single_leader_step_ = r.opt_u64();
        role_change_seen_ = r.boolean();
        leaps_ = r.u64();
        exact_events_ = r.u64();
        dropped_pairs_ = r.u64();
        cache_ = TransitionCache{};
    }

private:
    /// One non-null reaction channel: the ordered state pair and its current
    /// propensity weight. `weight` is the structural part c_a·(c_b − [a = b])
    /// (always integral); rated protocols scale it by the memoised firing
    /// probability into `rated_weight` and draw against the scaled weights.
    /// The transition itself is re-read from the cache at firing time (the
    /// cache may reallocate).
    struct Channel {
        StateId a;
        StateId b;
        std::uint64_t weight;
        double rated_weight;
    };

    // --- interning --------------------------------------------------------

    StateId intern(const State& s) { return store_.intern(protocol_, s); }

    /// Memoised transition lookup through the shared cache
    /// (transition_cache.hpp).
    const CachedTransition& transition(StateId a, StateId b) {
        return cache_.get(a, b,
                          [this](StateId x, StateId y) { return compute_transition(x, y); });
    }

    CachedTransition compute_transition(StateId a, StateId b) {
        return compute_cached_transition(protocol_, store_.index(), a, b,
                                         [this](const State& s) { return intern(s); });
    }

    // --- round dispatch ---------------------------------------------------

    /// Executes one round of at most `budget` steps on the path the current
    /// configuration calls for; returns the number executed (≥ 1 for
    /// budget ≥ 1).
    StepCount round(StepCount budget, bool stop_at_single_leader) {
        if (budget == 0) return 0;
        if (n_ < 2) {  // crash fault left a single survivor: no pairs exist
            steps_ += budget;
            return budget;
        }
        store_.compact_live();
        const std::size_t d = store_.live_ids().size();
        const StepCount leap_len =
            std::min<StepCount>(budget, std::max<std::uint64_t>(1, n_ / leap_divisor));
        if (d <= channel_state_cap) {
            build_channels();
            if (total_nonnull_weight() == 0.0) {  // dead: every channel null
                steps_ += budget;
                return budget;
            }
            if (n_ >= leap_min_population && expected_firings(leap_len) >= ssa_event_threshold) {
                return leap_round(leap_len);
            }
            return enumerated_ssa_event(budget);
        }
        if (n_ >= leap_min_population) return leap_round(leap_len);
        return categorical_steps(std::min(budget, categorical_chunk),
                                 stop_at_single_leader);
    }

    /// The summed non-null channel weight on whichever scale the protocol
    /// uses (integer structural weights, or rate-scaled ones).
    [[nodiscard]] double total_nonnull_weight() const noexcept {
        if constexpr (RatedProtocol<P>) {
            return w_rated_;
        } else {
            return static_cast<double>(w_nonnull_);
        }
    }

    /// Expected non-null firings over a leap of `len` steps under the
    /// enumerated channel weights.
    [[nodiscard]] double expected_firings(StepCount len) const noexcept {
        const double w_total =
            static_cast<double>(n_) * (static_cast<double>(n_) - 1.0);
        return static_cast<double>(len) * total_nonnull_weight() / w_total;
    }

    // --- exact SSA, enumerated channels -----------------------------------

    /// Rebuilds the non-null channel list and its total weight from the live
    /// counts. O(d²) cache lookups; only entered while d ≤ channel_state_cap.
    void build_channels() {
        channels_.clear();
        w_nonnull_ = 0;
        w_rated_ = 0.0;
        const std::vector<std::uint64_t>& counts = store_.counts();
        for (const StateId a : store_.live_ids()) {
            const std::uint64_t ca = counts[a];
            for (const StateId b : store_.live_ids()) {
                const std::uint64_t weight = a == b ? ca * (ca - 1) : ca * counts[b];
                if (weight == 0) continue;
                const CachedTransition& tr = transition(a, b);
                if (tr.out_a == a && tr.out_b == b) continue;  // null reaction
                if constexpr (RatedProtocol<P>) {
                    const double rated =
                        static_cast<double>(weight) * static_cast<double>(tr.fire_weight);
                    if (rated <= 0.0) continue;  // rate-zero channel never fires
                    channels_.push_back(Channel{a, b, weight, rated});
                    w_rated_ += rated;
                } else {
                    channels_.push_back(Channel{a, b, weight, 0.0});
                    w_nonnull_ += weight;
                }
            }
        }
    }

    /// One exact SSA event: a geometric draw skips every null step up to the
    /// next non-null firing; if that firing lies beyond the budget the round
    /// consumes the budget as nulls (exact: geometric memorylessness). For
    /// rated protocols the skip probability and the categorical draw use the
    /// rate-scaled weights — thinned steps are nulls, skipped for free.
    StepCount enumerated_ssa_event(StepCount budget) {
        const double w_total =
            static_cast<double>(n_) * (static_cast<double>(n_) - 1.0);
        const double p = total_nonnull_weight() / w_total;
        const StepCount gap = geometric(rng_, p);
        if (gap > budget) {  // the next reaction lies beyond this round
            steps_ += budget;
            return budget;
        }
        steps_ += gap;
        const Channel* fired = nullptr;
        if constexpr (RatedProtocol<P>) {
            double r = uniform_unit(rng_) * w_rated_;
            for (const Channel& ch : channels_) {
                if (r < ch.rated_weight) {
                    fired = &ch;
                    break;
                }
                r -= ch.rated_weight;
            }
            // Floating-point rounding can walk the scan past the total;
            // the mass belongs to the last channel.
            if (fired == nullptr) fired = &channels_.back();
        } else {
            std::uint64_t r = uniform_below(rng_, w_nonnull_);
            for (const Channel& ch : channels_) {
                if (r < ch.weight) {
                    fired = &ch;
                    break;
                }
                r -= ch.weight;
            }
            if (fired == nullptr) [[unlikely]] {
                ensure(false, "SSA channel draw ran past the total weight");
            }
        }
        const StateId a = fired->a;
        const StateId b = fired->b;
        const CachedTransition tr = transition(a, b);  // copy: cache may grow
        apply_single(a, b, tr);
        ++exact_events_;
        return gap;
    }

    // --- exact SSA, per-step categorical (wide d at small n) ---------------

    /// Exact per-step form for configurations too wide to enumerate: the
    /// initiator is a categorical draw over the counts, the responder over
    /// the remaining n−1 agents. O(d) per step; cannot skip nulls. Rated
    /// protocols thin each non-null pick by one Bernoulli draw against the
    /// memoised firing probability.
    StepCount categorical_steps(StepCount chunk, bool stop_at_single_leader) {
        StepCount executed = 0;
        while (executed < chunk) {
            const StateId a = draw_categorical(uniform_below(rng_, n_), invalid_state_id);
            const StateId b = draw_categorical(uniform_below(rng_, n_ - 1), a);
            const CachedTransition tr = transition(a, b);  // copy: cache may grow
            ++steps_;
            ++executed;
            if (tr.out_a != a || tr.out_b != b) {
                if constexpr (RatedProtocol<P>) {
                    if (tr.fire_weight < 1.0F &&
                        uniform_unit(rng_) >= static_cast<double>(tr.fire_weight)) {
                        continue;  // thinned: the pair met, nothing happened
                    }
                }
                apply_single(a, b, tr);
                ++exact_events_;
                if (stop_at_single_leader && leader_count_ == 1) break;
            }
        }
        return executed;
    }

    /// Walks the live counts to locate the state owning offset `r`, with one
    /// agent of `exclude` removed from the mass (the already-picked
    /// initiator; pass invalid_state_id to draw over the full population).
    [[nodiscard]] StateId draw_categorical(std::uint64_t r, StateId exclude) const {
        const std::vector<std::uint64_t>& counts = store_.counts();
        for (const StateId id : store_.live_ids()) {
            const std::uint64_t c = counts[id] - (id == exclude ? 1 : 0);
            if (r < c) return id;
            r -= c;
        }
        ensure(false, "categorical state draw ran past the population");
        return 0;
    }

    /// Applies one firing of channel (a, b) through its already-fetched
    /// transition: counts, leader count, role tracking and exact
    /// stabilisation-step recording. Callers guarantee availability (the
    /// channel weight was positive).
    void apply_single(StateId a, StateId b, const CachedTransition& tr) {
        if (tally_enabled_) [[unlikely]] {
            ++tally_[(static_cast<std::uint64_t>(a) << 32U) | b];
        }
        std::vector<std::uint64_t>& counts = store_.counts();
        --counts[a];
        --counts[b];
        ++counts[tr.out_a];
        ++counts[tr.out_b];
        store_.make_live(tr.out_a);
        store_.make_live(tr.out_b);
        role_change_seen_ = role_change_seen_ || tr.role_changed;
        leader_count_ = static_cast<std::size_t>(
            static_cast<std::int64_t>(leader_count_) + tr.leader_delta);
        if (!first_single_leader_step_ && leader_count_ == 1) {
            first_single_leader_step_ = steps_;
        }
    }

    // --- τ-leaping ---------------------------------------------------------

    /// Advances `len` steps with propensities frozen at the current counts:
    /// multinomial initiator/responder multisets, a uniform pairing through
    /// the batch-pairing layer, and clamped per-cell application (plus a
    /// binomial thinning per cell for rated protocols, identical in
    /// distribution to the batched engine's thinning).
    StepCount leap_round(StepCount len) {
        const StepCount steps_before = steps_;
        sample_leap_multiset(len, initiators_);
        sample_leap_multiset(len, responders_);
        sample_batch_pairing(BatchMode::automatic, rng_, initiators_, responders_, len,
                             pairs_);

        std::vector<std::uint64_t>& counts = store_.counts();
        applied_mult_.clear();
        std::int64_t delta_total = 0;
        bool role_changed = false;
        std::uint64_t dropped = 0;
        // Forced inline: left to the heuristics, whether this body is inlined
        // into the per-pair loop of BatchPairs::for_each depends on how much
        // inlining budget the instantiating translation unit has left, so
        // unrelated code there could slow every pairwise leap.
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult)
                            __attribute__((always_inline)) {
            // Clamp to what the running counts can supply: with-replacement
            // sampling may over-draw a state past its count; the excess
            // pairs are dropped as nulls (counted, and rare by the leap
            // bound — states with counts ≫ n/leap_divisor never clamp).
            const std::uint64_t avail =
                a == b ? counts[a] / 2 : std::min(counts[a], counts[b]);
            const CachedTransition tr = transition(a, b);  // copy: cache may grow
            std::uint64_t m = std::min(mult, avail);
            dropped += mult - m;
            if constexpr (RatedProtocol<P>) {
                // Rate thinning: only m' ~ Binomial(m, rate/max_rate) of the
                // scheduled pairs react; the rest met without reacting.
                if (m > 0 && tr.fire_weight < 1.0F && (tr.out_a != a || tr.out_b != b)) {
                    m = binomial(rng_, m, static_cast<double>(tr.fire_weight));
                }
            }
            applied_mult_.push_back(static_cast<std::uint32_t>(m));
            if (m == 0) return;
            if (a == b) {
                counts[a] -= 2 * m;
            } else {
                counts[a] -= m;
                counts[b] -= m;
            }
            touch(tr.out_a, m);
            touch(tr.out_b, m);
            delta_total += static_cast<std::int64_t>(tr.leader_delta) *
                           static_cast<std::int64_t>(m);
            role_changed |= tr.role_changed;
        });
        steps_ += len;
        dropped_pairs_ += dropped;
        role_change_seen_ = role_change_seen_ || role_changed;
        const auto post = static_cast<std::size_t>(
            static_cast<std::int64_t>(leader_count_) + delta_total);
        if (!first_single_leader_step_ && post == 1 && leader_count_ != 1) {
            first_single_leader_step_ = steps_before + leap_crossing_offset();
        }
        leader_count_ = post;
        store_.merge_touched();
        ++leaps_;
        return len;
    }

    /// Draws a with-replacement multiset of `len` step slots over the live
    /// counts (multinomial conditional chain of binomial draws) into `out`.
    /// Sparse specialisation of `multinomial` (random.hpp): that primitive
    /// is the dense reference form whose distribution tests pin the chain
    /// math; this loop fuses sparse emission and the live-list walk a dense
    /// out-array cannot express. Mirror changes across both chains.
    void sample_leap_multiset(std::uint64_t len, StateMultiset& out) {
        out.clear();
        const std::vector<std::uint64_t>& counts = store_.counts();
        std::uint64_t pool = n_;
        std::uint64_t remaining = len;
        for (const StateId id : store_.live_ids()) {
            const std::uint64_t c = counts[id];
            if (c == 0) continue;
            if (remaining == 0) break;
            const std::uint64_t x =
                c == pool ? remaining : binomial(rng_, remaining, c, pool);
            pool -= c;
            if (x > 0) {
                out.emplace_back(id, x);
                remaining -= x;
            }
        }
        if (remaining != 0) [[unlikely]] {  // cheap check: no string temporary
            ensure(false, "multinomial chain under-drew the leap multiset");
        }
    }

    /// Locates the crossing interaction inside a leap that reached a single
    /// leader via the shared exchangeability replay (`locate_leader_crossing`,
    /// transition_cache.hpp): applied pairs contribute their leader deltas;
    /// dropped and rate-thinned pairs zeros. Called at most once per run.
    [[nodiscard]] std::uint64_t leap_crossing_offset() {
        scratch_deltas_.clear();
        std::size_t group = 0;
        // Forced inline: left to the heuristics, whether this body is inlined
        // into the per-pair loop of BatchPairs::for_each depends on how much
        // inlining budget the instantiating translation unit has left, so
        // unrelated code there could slow every pairwise leap.
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult)
                            __attribute__((always_inline)) {
            const std::uint64_t m = applied_mult_[group++];
            scratch_deltas_.insert(scratch_deltas_.end(), m,
                                   transition(a, b).leader_delta);
            scratch_deltas_.insert(scratch_deltas_.end(), mult - m, 0);
        });
        return locate_leader_crossing(scratch_deltas_, rng_, leader_count_);
    }

    // --- pending-output bookkeeping ----------------------------------------

    /// Outputs produced within a leap accumulate in the store's touched
    /// multiset so they are never re-consumed by later cells of the same
    /// leap (they were not part of the frozen pre-leap counts).
    void touch(StateId id, std::uint64_t mult) { store_.touch(id, mult); }

    [[nodiscard]] RunResult make_result(bool converged) const noexcept {
        RunResult r;
        r.converged = converged;
        r.steps = steps_;
        r.parallel_time = to_parallel_time(steps_, n_);
        r.leader_count = leader_count_;
        r.stabilization_step = first_single_leader_step_;
        return r;
    }

    P protocol_;
    std::size_t n_;
    Rng rng_;
    Rng fault_rng_;  ///< fault-surgery stream; never touches the SSA stream
    InternedCountStore<P> store_;  ///< counts + live list + touched multiset
    TransitionCache cache_;
    std::vector<Channel> channels_;       ///< non-null channels (rebuilt per SSA event)
    std::uint64_t w_nonnull_ = 0;         ///< Σ weights of channels_ (unrated)
    double w_rated_ = 0.0;                ///< Σ rated weights of channels_ (rated)
    StateMultiset initiators_;
    StateMultiset responders_;
    BatchPairs pairs_;
    std::vector<std::uint32_t> applied_mult_;  ///< per-cell applied multiplicity
    std::vector<std::int8_t> scratch_deltas_;
    StepCount steps_ = 0;
    std::size_t leader_count_ = 0;
    std::optional<StepCount> first_single_leader_step_;
    bool role_change_seen_ = false;
    std::uint64_t leaps_ = 0;
    std::uint64_t exact_events_ = 0;
    std::uint64_t dropped_pairs_ = 0;
    bool tally_enabled_ = false;
    std::unordered_map<std::uint64_t, std::uint64_t> tally_;  ///< packed id pair → fired
};

/// Convenience mirror of simulate_to_single_leader for the Gillespie engine.
template <typename P>
    requires InternableProtocol<P>
[[nodiscard]] RunResult gillespie_simulate_to_single_leader(P proto, std::size_t n,
                                                            std::uint64_t seed,
                                                            StepCount max_steps) {
    GillespieEngine<P> engine(std::move(proto), n, seed);
    return engine.run_until_one_leader(max_steps);
}

}  // namespace ppsim
