/// \file count_engine.hpp
/// \brief The core shared by the count-based engines (BatchedEngine,
/// GillespieEngine): everything but their round algorithms.
///
/// Both engines hold the configuration as interned per-state counts
/// (InternedCountStore, count_store.hpp), memoise transitions by state id
/// (TransitionCache, transition_cache.hpp) and advance in rounds that each
/// apply many interactions at once. They differ only in how a round samples
/// its interactions: the batched engine draws a collision-free run without
/// replacement and ends it with one exact collision step, the gillespie
/// engine skips null reactions geometrically or τ-leaps. `CountEngine` owns
/// the rest, once:
///
///  * the protocol, the population size, the main and fault streams, the
///    store, the cache, the initiator/responder multisets and the pairing;
///  * the step, leader, stabilisation and role-change counters;
///  * the population ceiling, checked before any engine member is built;
///  * the observation surface;
///  * the run loops, all around `Derived::round(budget,
///    stop_at_single_leader)`, which executes at least one and at most
///    `budget` steps and returns how many;
///  * count-vector fault surgery and silence;
///  * the checkpoint prefix (an engine appends its own fields after it);
///  * interning, transition lookup, the leader-crossing replay and the run
///    result.
///
/// The derived engine is a CRTP parameter, so the round call is static and
/// the engines keep their hot loops exactly as a hand-written class would.
/// A derived engine may shadow three hooks: `population_changed()` (after a
/// crash, a rejoin or a restore changed n), and `save_tail(w)` /
/// `restore_tail(r)` (fields persisted after the shared prefix).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "batch_pairing.hpp"
#include "checkpoint_io.hpp"
#include "common.hpp"
#include "count_store.hpp"
#include "engine.hpp"  // RunResult
#include "fault.hpp"
#include "protocol.hpp"
#include "random.hpp"
#include "state_index.hpp"
#include "transition_cache.hpp"

namespace ppsim {

/// The largest population the count engines, and the hybrid meta-engine
/// that runs one, accept. Channel weights c_a·c_b, their sum n(n − 1) and
/// the batched engine's collision-step weights t(t − 1) and t(n − t) are
/// 64-bit products, which n ≤ 2^32 keeps below 2^64. (Agents stored one by
/// one stop at `max_agent_population` = 2^32 − 1, common.hpp.)
inline constexpr std::uint64_t max_count_population = std::uint64_t{1} << 32U;

/// Throws InvalidArgument unless `n` agents plus `added` more stay within
/// `max_count_population` (no overflow for any `added`). The one check
/// behind every count-engine constructor, every rejoin fault and the hybrid
/// meta-engine.
inline void require_count_population(std::uint64_t n, std::uint64_t added = 0) {
    require(n <= max_count_population && added <= max_count_population - n,
            "the count engines support populations up to 2^32 agents");
}

/// CRTP core of the count-based engines; see the file comment.
template <typename Derived, typename P>
    requires InternableProtocol<P>
class CountEngine {
public:
    using State = typename P::State;

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

    /// Visits every state with a non-zero count as (state, count, role) —
    /// O(#states) regardless of n, the count engines' snapshot primitive.
    /// Only valid between public calls (a round's in-flight touched
    /// multiset has been merged back by then).
    template <typename Visitor>
    void visit_counts(Visitor&& visit) const {
        store_.visit_counts(visit);
    }

    /// Recomputes the leader count from the count vector (tests / checks).
    std::size_t recount_leaders() {
        leader_count_ = store_.recount_leaders();
        return leader_count_;
    }

    /// Read-only view of the shared count store (introspection).
    [[nodiscard]] const InternedCountStore<P>& store() const noexcept { return store_; }

    /// Read-only view of the memoised transition cache (introspection).
    [[nodiscard]] const TransitionCache& transition_cache() const noexcept {
        return cache_;
    }

    // --- execution --------------------------------------------------------

    /// Runs until exactly one leader remains or `max_steps` further steps
    /// have been executed, whichever comes first. The final round may run a
    /// few interactions past the stabilisation step (they cannot change the
    /// outcome: single-leader is absorbing); `stabilization_step` is exact.
    RunResult run_until_one_leader(StepCount max_steps) {
        StepCount executed = 0;
        while (leader_count_ != 1 && executed < max_steps) {
            executed += derived().round(max_steps - executed, /*stop_at_single_leader=*/true);
        }
        return make_result(leader_count_ == 1);
    }

    /// Runs exactly `count` steps: every round clamps to the remaining
    /// budget, so there is no overrun.
    RunResult run_for(StepCount count) {
        StepCount executed = 0;
        while (executed < count) {
            executed += derived().round(count - executed, /*stop_at_single_leader=*/false);
        }
        return make_result(leader_count_ == 1);
    }

    /// Runs `count` additional steps and reports whether any agent's output
    /// changed during them (and the leader count stayed put).
    [[nodiscard]] bool verify_outputs_stable(StepCount count) {
        const std::size_t leaders_before = leader_count_;
        role_change_seen_ = false;
        (void)run_for(count);
        return !role_change_seen_ && leader_count_ == leaders_before;
    }

    // --- fault injection ---------------------------------------------------

    /// Applies one crash/rejoin/reset fault between rounds by count-vector
    /// surgery on the store. The transition cache stays valid: it is keyed
    /// on state ids, which surgery never perturbs. All randomness comes from
    /// the dedicated fault stream, so the main stream replays
    /// deterministically after the fault. Silence never reaches the engine
    /// (run-layer concern).
    void apply_fault(const FaultAction& action) {
        require(action.kind != FaultKind::silence,
                "silence is applied by the run layer, not the engine");
        switch (action.kind) {
            case FaultKind::crash: {
                const std::uint64_t k = resolve_fault_count(action, n_);
                leader_count_ -= remove_uniform_agents(k);
                n_ -= k;
                derived().population_changed();
                break;
            }
            case FaultKind::rejoin:
                require_count_population(n_, action.count);
                add_initial_agents(action.count);
                n_ += action.count;
                derived().population_changed();
                break;
            case FaultKind::reset: {
                const std::uint64_t k = resolve_fault_count(action, n_);
                leader_count_ -= remove_uniform_agents(k);
                add_initial_agents(k);
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

    /// Serialises the engine's replay-relevant state: the main and fault
    /// stream positions, the interned count store and the
    /// step/leader/stabilisation counters, then the derived engine's
    /// `save_tail`. Legal between public calls only (touched multiset
    /// empty), which the store asserts.
    void save_state(CheckpointWriter& w) const {
        w.u64(n_);
        w.pod(rng_.state());
        w.pod(fault_rng_.state());
        store_.save_state(w);
        w.u64(steps_);
        w.u64(leader_count_);
        w.opt_u64(first_single_leader_step_);
        w.boolean(role_change_seen_);
        derived().save_tail(w);
    }

    /// Restores a `save_state` payload into an engine built with the same
    /// protocol; its population must pass the constructor's check, and its
    /// counts must sum to it. The transition cache is dropped (a pure memo,
    /// but its entries may reference states interned after the checkpoint
    /// was taken); recomputation re-interns outputs in the exact order the
    /// original run did, so replay stays bit-identical.
    void restore_state(CheckpointReader& r) {
        const std::uint64_t n = r.u64();
        require_population(n);
        n_ = n;
        rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
        fault_rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
        store_.restore_state(protocol_, r);
        require(store_.total_count() == n_,
                "checkpointed counts do not sum to the population");
        steps_ = r.u64();
        leader_count_ = r.u64();
        first_single_leader_step_ = r.opt_u64();
        role_change_seen_ = r.boolean();
        cache_ = TransitionCache{};
        derived().restore_tail(r);
        derived().population_changed();
    }

protected:
    CountEngine(P protocol, std::size_t n, std::uint64_t seed)
        // n is checked before any member is built.
        : protocol_((require_population(n), std::move(protocol))),
          n_(n),
          rng_(seed),
          fault_rng_(derive_seed(seed, fault_stream_tag)) {
        add_initial_agents(n_);
        initiators_.reserve(64);
        responders_.reserve(64);
        pairs_.cells.reserve(64);
    }

    // Default hooks; a derived engine shadows the ones it needs.
    void population_changed() {}
    void save_tail(CheckpointWriter& w) const { (void)w; }
    void restore_tail(CheckpointReader& r) { (void)r; }

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

    /// Locates the crossing interaction inside a round of `pairs_` that
    /// reached a single leader, via the shared exchangeability replay
    /// (`locate_leader_crossing`, transition_cache.hpp). `applied` holds each
    /// group's applied pairs in `pairs_` order, or is null when every pair
    /// applied; applied pairs contribute their leader deltas, the rest
    /// (over-drawn) zeros, since null interactions occupy step slots too.
    /// Called at most once per run.
    [[nodiscard]] std::uint64_t crossing_offset(
        const std::vector<std::uint32_t>* applied = nullptr) {
        scratch_deltas_.clear();
        std::size_t group = 0;
        // Forced inline, although it runs once per run: left to the
        // heuristics, this body stays out of line, and registry.cpp, which
        // instantiates every engine, then compiles the batched engine's
        // per-pair loop with an out-of-line transition-cache lookup.
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult)
                            __attribute__((always_inline)) {
            const std::uint64_t m = applied == nullptr ? mult : (*applied)[group++];
            scratch_deltas_.insert(scratch_deltas_.end(), m,
                                   transition(a, b).leader_delta);
            scratch_deltas_.insert(scratch_deltas_.end(), mult - m, 0);
        });
        return locate_leader_crossing(scratch_deltas_, rng_, leader_count_);
    }

    P protocol_;
    std::size_t n_;
    Rng rng_;
    Rng fault_rng_;  ///< fault-surgery stream; never touches the main stream
    InternedCountStore<P> store_;  ///< counts + live list + touched multiset
    TransitionCache cache_;
    StateMultiset initiators_;
    StateMultiset responders_;
    BatchPairs pairs_;
    std::vector<std::int8_t> scratch_deltas_;  ///< crossing replay scratch
    StepCount steps_ = 0;
    std::size_t leader_count_ = 0;
    std::optional<StepCount> first_single_leader_step_;
    bool role_change_seen_ = false;

private:
    [[nodiscard]] Derived& derived() noexcept { return static_cast<Derived&>(*this); }
    [[nodiscard]] const Derived& derived() const noexcept {
        return static_cast<const Derived&>(*this);
    }

    /// Throws InvalidArgument unless `n` is a valid count-engine population.
    static void require_population(std::size_t n) {
        require(n >= 2, "population must contain at least two agents");
        require_count_population(n);
    }

    /// Adds `k` agents in the protocol's initial state.
    void add_initial_agents(std::uint64_t k) {
        const StateId init = intern(protocol_.initial_state());
        store_.counts()[init] += k;
        store_.make_live(init);
        if (store_.index().is_leader(init)) leader_count_ += k;
    }

    /// Removes `k` agents drawn uniformly without replacement from the n
    /// agents of the store — a multivariate hypergeometric split realised as
    /// the conditional chain the batched engine uses for its multisets —
    /// and compacts the live list. Returns how many of the removed agents
    /// output leader.
    std::uint64_t remove_uniform_agents(std::uint64_t k) {
        ensure(k <= n_, "fault surgery cannot remove more agents than exist");
        std::uint64_t pool = n_;
        std::uint64_t remaining = k;
        std::uint64_t leaders_removed = 0;
        std::vector<std::uint64_t>& counts = store_.counts();
        for (const StateId id : store_.live_ids()) {
            if (remaining == 0) break;
            const std::uint64_t c = counts[id];
            if (c == 0) continue;
            const std::uint64_t x =
                c >= pool ? remaining : hypergeometric(fault_rng_, pool, c, remaining);
            pool -= c;
            if (x > 0) {
                counts[id] -= x;
                remaining -= x;
                if (store_.index().is_leader(id)) leaders_removed += x;
            }
        }
        ensure(remaining == 0, "fault surgery failed to place all removals");
        store_.compact_live();
        return leaders_removed;
    }

    [[nodiscard]] RunResult make_result(bool converged) const noexcept {
        RunResult r;
        r.converged = converged;
        r.steps = steps_;
        r.parallel_time = to_parallel_time(steps_, n_);
        r.leader_count = leader_count_;
        r.stabilization_step = first_single_leader_step_;
        return r;
    }
};

}  // namespace ppsim
