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
///     the expanded responder multiset (Θ(L)), chosen per batch from the
///     sampled state-count profile.
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
#include <utility>
#include <vector>

#include "batch_pairing.hpp"
#include "common.hpp"
#include "count_engine.hpp"
#include "population.hpp"
#include "protocol.hpp"
#include "random.hpp"
#include "state_index.hpp"
#include "transition_cache.hpp"

namespace ppsim {

/// Count-based batched simulation engine. Drop-in alternative to Engine<P>
/// for the run/verify surface (run_until_one_leader, run_for,
/// verify_outputs_stable, RunResult), minus per-agent observation — a
/// count-based configuration has no agent identities. Everything but the
/// batch round lives in the shared core (count_engine.hpp).
template <typename P>
    requires InternableProtocol<P>
class BatchedEngine : public CountEngine<BatchedEngine<P>, P> {
    using Base = CountEngine<BatchedEngine<P>, P>;
    friend Base;

public:
    BatchedEngine(P protocol, std::size_t n, std::uint64_t seed)
        : Base(std::move(protocol), n, seed), run_sampler_(n) {}

private:
    using Base::crossing_offset;
    using Base::first_single_leader_step_;
    using Base::initiators_;
    using Base::leader_count_;
    using Base::n_;
    using Base::pairs_;
    using Base::responders_;
    using Base::rng_;
    using Base::role_change_seen_;
    using Base::steps_;
    using Base::store_;
    using Base::transition;

    /// Re-sizes the collision-run sampler to the population after a crash,
    /// a rejoin or a restore.
    void population_changed() {
        run_sampler_ = CollisionRunSampler(n_);
    }

    // --- batch round ------------------------------------------------------

    /// Executes one batch of at most `budget` ≥ 1 interactions; returns the
    /// number executed. A batch never stops early at a single leader: its
    /// crossing replay records the exact stabilisation step instead. Kept
    /// out of line: inlined into the core's run loops, one copy per loop and
    /// protocol spends the inlining budget of registry.cpp, which
    /// instantiates every engine, and the gillespie engine's leap code there
    /// then calls its multiset sampler and its transition lookups out of
    /// line.
    __attribute__((noinline)) StepCount round(StepCount budget,
                                              bool /*stop_at_single_leader*/) {
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
    /// contingency-table sampling or the expanded-multiset shuffle, chosen
    /// per batch from the sampled state-count profile (`use_bulk_pairing`).
    void sample_fresh_pairs(std::uint64_t fresh) {
        sample_multiset(fresh, initiators_, /*compact=*/true);
        sample_multiset(fresh, responders_, /*compact=*/false);
        sample_batch_pairing(BatchMode::automatic, rng_, initiators_, responders_, fresh,
                             pairs_);
    }

    /// Applies every pair group of the batch through the transition cache;
    /// locates the exact stabilisation step when this batch crosses to one
    /// leader. O(#groups): cell count under bulk pairing, batch length under
    /// pairwise.
    void apply_pairs(std::uint64_t fresh) {
        const StepCount steps_before = steps_;
        std::int64_t delta_total = 0;
        bool role_changed = false;
        // Forced inline: left to the heuristics, registry.cpp, which
        // instantiates every engine, compiles this per-pair loop with an
        // out-of-line transition-cache lookup.
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult)
                            __attribute__((always_inline)) {
            const CachedTransition& tr = transition(a, b);
            store_.touch(tr.out_a, mult);
            store_.touch(tr.out_b, mult);
            delta_total += static_cast<std::int64_t>(tr.leader_delta) *
                           static_cast<std::int64_t>(mult);
            role_changed |= tr.role_changed;
        });
        role_change_seen_ = role_change_seen_ || role_changed;
        steps_ += fresh;
        const auto post = static_cast<std::size_t>(
            static_cast<std::int64_t>(leader_count_) + delta_total);
        if (!first_single_leader_step_ && post == 1 && leader_count_ != 1) {
            // The batch's pairs are exchangeable — contingency cells no less
            // than shuffled pairs — so the shared replay localises the
            // crossing; a batch applies every pair.
            first_single_leader_step_ = steps_before + crossing_offset();
        }
        leader_count_ = post;
    }

    /// The interaction that ends the batch: at least one participant is an
    /// already-touched agent. Ordered-slot cases weighted t(t−1) : t(n−t)
    /// : (n−t)t; a touched slot samples a uniform touched agent (post-batch
    /// state multiset), an untouched slot a uniform untouched agent.
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

    CollisionRunSampler run_sampler_;
    std::uint64_t untouched_ = 0;
};

}  // namespace ppsim
