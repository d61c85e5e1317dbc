/// \file batched_engine.hpp
/// \brief Count-based batched simulation engine: Gillespie-style simulation
/// of the population-protocol model with sub-constant expected cost per
/// interaction at large n.
///
/// The agent-based `Engine<P>` pays one PRNG draw plus one transition plus
/// two random memory accesses per interaction — Θ(n log n) sequential work
/// per stabilisation run. This engine instead represents the configuration
/// as a dense vector of per-state *counts* (the shared InternedCountStore,
/// count_store.hpp; states interned on first sight by `StateIndex`) and
/// advances time in batches, following the scheme of Berenbrink, Hammer,
/// Kaaser, Meyer, Penschuck and Tran ("Simulating Population Protocols in
/// Sub-Constant Time per Interaction", ESA 2020), the same algorithm behind
/// Doty & Severson's `ppsim` package:
///
///  1. Sample the collision-free run length L — the number of consecutive
///     interactions whose 2L agents are all distinct (birthday problem,
///     E[L] = Θ(√n)) — directly from its survival function.
///  2. The 2L agents are a uniform sample without replacement, so the
///     initiator and responder state multisets come from multivariate
///     hypergeometric chains over the count vector, and the pairing between
///     them is a uniform random bijection. The bijection is delegated to
///     the pluggable pairing layer (batch_pairing.hpp): contingency-table
///     sampling (O(#state pairs) per batch) or a Fisher–Yates shuffle of
///     the expanded responder multiset (Θ(L)), selected by `BatchMode` —
///     forced, or chosen per batch from the sampled state-count profile.
///  3. Each distinct ordered state pair (q_u, q_v) is applied through a
///     memoised transition table (dense matrix for low ids, hash map
///     beyond) and its count delta scaled by the pair's multiplicity —
///     O(#distinct pairs) transition evaluations, not O(#interactions).
///  4. The interaction that ends the batch involves at least one
///     already-touched agent; it is sampled exactly from the conditional
///     distribution (both-touched : touched-untouched : untouched-touched
///     with weights t(t−1) : t(n−t) : (n−t)t) and applied individually.
///
/// Every step of the construction reproduces the model's semantics in
/// distribution: ordered pairs stay uniform, and the initiator/responder
/// asymmetry (PLL's coin flips) is preserved because initiator and responder
/// multisets are sampled per slot parity, never merged.
///
/// **Rate-annotated protocols** (RatedProtocol, protocol.hpp) are honoured
/// by rejection thinning against the maximum rate: each cell of a batch
/// draws the number of pairs that actually fire as
/// Binomial(mult, rate/max_rate); the rest met without reacting and re-enter
/// the touched multiset with their states unchanged — exactly the thinned
/// chain the agent engine runs pair by pair, so cross-engine agreement is
/// preserved (KS harness, tests/test_statistical.cpp). Unrated protocols
/// compile to the identical pre-rate hot path (`if constexpr`), so their
/// seeded replay streams are bit-for-bit unchanged.
///
/// The stabilisation step is recorded *exactly*, not at batch granularity:
/// when a batch crosses to a single leader, the per-pair leader deltas are
/// replayed in a uniformly shuffled order (the pair sequence is exchangeable,
/// so a uniform permutation is the exact conditional order distribution) to
/// locate the crossing interaction. This happens at most once per run for
/// the absorbing single-leader predicate. For protocols where one leader is
/// NOT absorbing (the loosely-stabilising baseline), a transient mid-batch
/// visit to a single leader that the batch leaves again is not observed —
/// leader-count detection is then batch-granular, a documented deviation
/// from the agent engine (see README "Choosing an engine").
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "batch_pairing.hpp"
#include "common.hpp"
#include "count_store.hpp"
#include "engine.hpp"  // RunResult
#include "fault.hpp"
#include "population.hpp"
#include "protocol.hpp"
#include "random.hpp"
#include "state_index.hpp"
#include "transition_cache.hpp"

namespace ppsim {

/// Count-based batched simulation engine. Drop-in alternative to Engine<P>
/// for the run/verify surface (run_until_one_leader, run_for,
/// verify_outputs_stable, RunResult), minus per-agent observation — a
/// count-based configuration has no agent identities.
template <typename P>
    requires InternableProtocol<P>
class BatchedEngine {
public:
    using State = typename P::State;

    BatchedEngine(P protocol, std::size_t n, std::uint64_t seed,
                  BatchMode batch_mode = BatchMode::automatic)
        : protocol_(std::move(protocol)),
          n_(n),
          rng_(seed),
          fault_rng_(derive_seed(seed, fault_stream_tag)),
          run_sampler_(n),
          batch_mode_(batch_mode) {
        require(n >= 2, "population must contain at least two agents");
        // The collision-step case weights t(t−1) and t(n−t) are computed in
        // 64 bits; with t = Θ(√n) they stay far below 2^64 for any n ≤ 2^32,
        // which is also the agent-id ceiling of the rest of the library.
        require(n <= (std::uint64_t{1} << 32U),
                "batched engine supports populations up to 2^32 agents");
        const StateId init = intern(protocol_.initial_state());
        store_.counts()[init] = n_;
        store_.make_live(init);
        leader_count_ = store_.index().is_leader(init) ? n_ : 0;
        initiators_.reserve(64);
        responders_.reserve(64);
        pairs_.cells.reserve(64);
    }

    // --- observation ------------------------------------------------------

    [[nodiscard]] std::size_t population_size() const noexcept { return n_; }
    [[nodiscard]] StepCount steps() const noexcept { return steps_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return to_parallel_time(steps_, n_);
    }
    [[nodiscard]] std::size_t leader_count() const noexcept { return leader_count_; }
    [[nodiscard]] const P& protocol() const noexcept { return protocol_; }
    /// The pairing strategy this engine was configured with.
    [[nodiscard]] BatchMode batch_mode() const noexcept { return batch_mode_; }
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
    /// O(#states) regardless of n, the batched engine's snapshot primitive.
    /// Only valid between public calls (the in-flight touched multiset of a
    /// batch round has been merged back by then).
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
    /// have been executed, whichever comes first. The final batch may run a
    /// few interactions past the stabilisation step (they cannot change the
    /// outcome: single-leader is absorbing); `stabilization_step` is exact.
    RunResult run_until_one_leader(StepCount max_steps) {
        StepCount executed = 0;
        while (leader_count_ != 1 && executed < max_steps) {
            executed += round(max_steps - executed);
        }
        return make_result(leader_count_ == 1);
    }

    /// Runs exactly `count` steps: the final batch's collision-free run is
    /// clamped to the remaining budget, so there is no overrun.
    RunResult run_for(StepCount count) {
        StepCount executed = 0;
        while (executed < count) executed += round(count - executed);
        return make_result(leader_count_ == 1);
    }

    /// Runs `count` additional steps and reports whether any agent's output
    /// changed during them (and the leader count stayed put).
    [[nodiscard]] bool verify_outputs_stable(StepCount count) {
        const std::size_t leaders_before = leader_count_;
        role_change_seen_ = false;
        StepCount executed = 0;
        while (executed < count) executed += round(count - executed);
        return !role_change_seen_ && leader_count_ == leaders_before;
    }

    // --- fault injection ---------------------------------------------------

    /// Applies one crash/rejoin/reset fault between rounds by count-vector
    /// surgery on the shared store. The transition cache stays valid (it is
    /// keyed on state ids, never on counts); the repairs the surgery *does*
    /// owe are the live-list compaction (inside `remove_uniform_agents`)
    /// and re-sizing the collision-run sampler to the new population. All
    /// randomness comes from the dedicated fault stream, so the batch
    /// stream replays deterministically after the fault. Silence never
    /// reaches the engine (run-layer concern).
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
                if (n_ >= 2) run_sampler_ = CollisionRunSampler(n_);
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
                run_sampler_ = CollisionRunSampler(n_);
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

    /// Serialises the engine's complete replay-relevant state: the batch and
    /// fault stream positions, the interned count store, and the
    /// step/leader/stabilisation counters. Legal between public calls only
    /// (touched multiset empty), which the store asserts.
    void save_state(CheckpointWriter& w) const {
        w.u64(n_);
        w.pod(rng_.state());
        w.pod(fault_rng_.state());
        store_.save_state(w);
        w.u64(steps_);
        w.u64(leader_count_);
        w.opt_u64(first_single_leader_step_);
        w.boolean(role_change_seen_);
    }

    /// Restores a `save_state` payload into an engine built with the same
    /// protocol and batch mode. The transition cache is dropped (a pure memo,
    /// but its entries may reference states interned after the checkpoint was
    /// taken); recomputation re-interns outputs in the exact order the
    /// original run did, so replay stays bit-identical.
    void restore_state(CheckpointReader& r) {
        n_ = r.u64();
        rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
        fault_rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
        store_.restore_state(protocol_, r);
        steps_ = r.u64();
        leader_count_ = r.u64();
        first_single_leader_step_ = r.opt_u64();
        role_change_seen_ = r.boolean();
        cache_ = TransitionCache{};
        if (n_ >= 2) run_sampler_ = CollisionRunSampler(n_);
    }

private:
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

    // --- batch round ------------------------------------------------------

    /// Executes one batch of at most `budget` interactions; returns the
    /// number executed (≥ 1 for budget ≥ 1).
    StepCount round(StepCount budget) {
        if (budget == 0) return 0;
        if (n_ < 2) {  // crash fault left a single survivor: no pairs exist
            steps_ += budget;
            return budget;
        }
        const std::uint64_t run = run_sampler_.sample(rng_);
        // Room for the batch-ending collision interaction only when the
        // whole collision-free run fits in the budget.
        const bool with_collision = budget > run;
        const std::uint64_t fresh = with_collision ? run : budget;

        untouched_ = n_;

        sample_fresh_pairs(fresh);
        apply_pairs(fresh);
        StepCount executed = fresh;
        if (with_collision) {
            collision_step();
            ++executed;
        }
        store_.merge_touched();
        return executed;
    }

    /// Draws a without-replacement multiset of `k` agents' states from the
    /// untouched counts (multivariate hypergeometric chain) into `out`.
    /// `compact` additionally drops dead ids from the live list — only legal
    /// on the first chain of a round, when a zero count means genuinely
    /// empty rather than in-flight.
    void sample_multiset(std::uint64_t k,
                         std::vector<std::pair<StateId, std::uint64_t>>& out,
                         bool compact) {
        out.clear();
        std::vector<StateId>& live_ids = store_.live_ids();
        std::vector<std::uint64_t>& counts = store_.counts();
        std::uint64_t pool = untouched_;
        std::size_t i = 0;
        while (i < live_ids.size()) {
            const StateId id = live_ids[i];
            const std::uint64_t c = counts[id];
            if (c == 0) {
                if (compact && store_.drop_dead_at(i)) {
                    continue;  // revisit index i (swapped-in id)
                }
                ++i;
                continue;
            }
            if (k == 0) break;
            const std::uint64_t x = hypergeometric(rng_, pool, c, k);
            pool -= c;
            if (x > 0) {
                out.emplace_back(id, x);
                counts[id] -= x;
                untouched_ -= x;
                k -= x;
            }
            ++i;
        }
        if (k != 0) [[unlikely]] {  // cheap check: no string temporary on the hot path
            ensure(false, "hypergeometric chain under-drew the batch multiset");
        }
    }

    /// Samples the `fresh` ordered state pairs of the collision-free run:
    /// initiator multiset, responder multiset, then a uniform random
    /// bijection between them via the pairing layer (batch_pairing.hpp) —
    /// contingency-table sampling or the expanded-multiset shuffle, per the
    /// engine's BatchMode (the `auto` heuristic decides per batch from the
    /// sampled state-count profile).
    void sample_fresh_pairs(std::uint64_t fresh) {
        sample_multiset(fresh, initiators_, /*compact=*/true);
        sample_multiset(fresh, responders_, /*compact=*/false);
        sample_batch_pairing(batch_mode_, rng_, initiators_, responders_, fresh, pairs_);
    }

    /// Applies every pair group of the batch through the transition cache;
    /// locates the exact stabilisation step when this batch crosses to one
    /// leader. O(#groups): cell count under bulk pairing, batch length under
    /// pairwise. Rated protocols thin each group binomially first (the
    /// thinned pairs met without reacting).
    void apply_pairs(std::uint64_t fresh) {
        const StepCount steps_before = steps_;
        std::int64_t delta_total = 0;
        bool role_changed = false;
        if constexpr (RatedProtocol<P>) fired_mult_.clear();
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult) {
            const CachedTransition& tr = transition(a, b);
            std::uint64_t fired = mult;
            if constexpr (RatedProtocol<P>) {
                // Thinning only matters for non-null transitions (a thinned
                // null is a null); skipping the draw there keeps unrated-like
                // cells cheap and changes nothing in distribution.
                if (tr.fire_weight < 1.0F && (tr.out_a != a || tr.out_b != b)) {
                    fired = binomial(rng_, mult, static_cast<double>(tr.fire_weight));
                }
                fired_mult_.push_back(fired);
                const std::uint64_t nulls = mult - fired;
                if (nulls > 0) {  // met without reacting: states unchanged
                    store_.touch(a, nulls);
                    store_.touch(b, nulls);
                }
                if (fired == 0) return;
            }
            store_.touch(tr.out_a, fired);
            store_.touch(tr.out_b, fired);
            delta_total += static_cast<std::int64_t>(tr.leader_delta) *
                           static_cast<std::int64_t>(fired);
            role_changed |= tr.role_changed;
        });
        role_change_seen_ = role_change_seen_ || role_changed;
        steps_ += fresh;
        const auto post = static_cast<std::size_t>(
            static_cast<std::int64_t>(leader_count_) + delta_total);
        if (!first_single_leader_step_ && post == 1 && leader_count_ != 1) {
            first_single_leader_step_ = steps_before + crossing_offset();
        }
        leader_count_ = post;
    }

    /// The batch's pairs are exchangeable — contingency cells no less than
    /// shuffled pairs — so the shared replay (`locate_leader_crossing`,
    /// transition_cache.hpp) localises the crossing from their expanded
    /// leader deltas. Rated protocols expand each group as its fired count's
    /// deltas plus zeros for the thinned pairs (null interactions occupy
    /// step slots too). Called at most once per run (single-leader is
    /// absorbing).
    [[nodiscard]] std::uint64_t crossing_offset() {
        scratch_deltas_.clear();
        std::size_t group = 0;
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult) {
            std::uint64_t fired = mult;
            if constexpr (RatedProtocol<P>) {
                fired = fired_mult_[group++];
            } else {
                (void)group;
            }
            scratch_deltas_.insert(scratch_deltas_.end(), fired,
                                   transition(a, b).leader_delta);
            scratch_deltas_.insert(scratch_deltas_.end(), mult - fired, 0);
        });
        return locate_leader_crossing(scratch_deltas_, rng_, leader_count_);
    }

    /// The interaction that ends the batch: at least one participant is an
    /// already-touched agent. Ordered-slot cases weighted t(t−1) : t(n−t)
    /// : (n−t)t; a touched slot samples a uniform touched agent (post-batch
    /// state multiset), an untouched slot a uniform untouched agent. Rated
    /// protocols thin the single interaction by one Bernoulli draw.
    void collision_step() {
        const std::uint64_t t = store_.touched_total();
        const std::uint64_t m = untouched_;
        const std::uint64_t w_both = t * (t - 1);
        const std::uint64_t w_mixed = t * m;
        const std::uint64_t r = uniform_below(rng_, w_both + 2 * w_mixed);
        const bool a_touched = r < w_both + w_mixed;
        const bool b_touched = r < w_both || r >= w_both + w_mixed;

        const StateId qa = a_touched ? take_touched() : take_untouched();
        const StateId qb = b_touched ? take_touched() : take_untouched();
        const CachedTransition& tr = transition(qa, qb);
        if constexpr (RatedProtocol<P>) {
            if (tr.fire_weight < 1.0F && (tr.out_a != qa || tr.out_b != qb) &&
                uniform_unit(rng_) >= static_cast<double>(tr.fire_weight)) {
                // Thinned: the pair met, nothing happened.
                store_.touch(qa, 1);
                store_.touch(qb, 1);
                ++steps_;
                return;
            }
        }
        store_.touch(tr.out_a, 1);
        store_.touch(tr.out_b, 1);
        role_change_seen_ = role_change_seen_ || tr.role_changed;
        leader_count_ = static_cast<std::size_t>(
            static_cast<std::int64_t>(leader_count_) + tr.leader_delta);
        ++steps_;
        if (!first_single_leader_step_ && leader_count_ == 1) {
            first_single_leader_step_ = steps_;
        }
    }

    // --- touched-multiset draws --------------------------------------------

    /// Removes and returns a uniformly random touched agent's state.
    [[nodiscard]] StateId take_touched() {
        std::uint64_t r = uniform_below(rng_, store_.touched_total());
        for (const StateId id : store_.touched_ids()) {
            const std::uint64_t c = store_.touched()[id];
            if (r < c) {
                store_.untouch_one(id);
                return id;
            }
            r -= c;
        }
        ensure(false, "touched multiset sampling ran past its total");
        return 0;
    }

    /// Removes and returns a uniformly random untouched agent's state.
    [[nodiscard]] StateId take_untouched() {
        std::uint64_t r = uniform_below(rng_, untouched_);
        for (const StateId id : store_.live_ids()) {
            const std::uint64_t c = store_.counts()[id];
            if (r < c) {
                store_.counts()[id] -= 1;
                untouched_ -= 1;
                return id;
            }
            r -= c;
        }
        ensure(false, "untouched count sampling ran past its total");
        return 0;
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

    P protocol_;
    std::size_t n_;
    Rng rng_;
    Rng fault_rng_;  ///< fault-surgery stream; never touches the batch stream
    CollisionRunSampler run_sampler_;
    InternedCountStore<P> store_;  ///< counts + live list + touched multiset
    std::uint64_t untouched_ = 0;
    TransitionCache cache_;
    BatchMode batch_mode_ = BatchMode::automatic;
    StateMultiset initiators_;
    StateMultiset responders_;
    BatchPairs pairs_;
    std::vector<std::uint64_t> fired_mult_;  ///< per-group fired count (rated only)
    std::vector<std::int8_t> scratch_deltas_;
    StepCount steps_ = 0;
    std::size_t leader_count_ = 0;
    std::optional<StepCount> first_single_leader_step_;
    bool role_change_seen_ = false;
};

/// Convenience mirror of simulate_to_single_leader for the batched engine.
template <typename P>
    requires InternableProtocol<P>
[[nodiscard]] RunResult batched_simulate_to_single_leader(
    P proto, std::size_t n, std::uint64_t seed, StepCount max_steps,
    BatchMode batch_mode = BatchMode::automatic) {
    BatchedEngine<P> engine(std::move(proto), n, seed, batch_mode);
    return engine.run_until_one_leader(max_steps);
}

}  // namespace ppsim
