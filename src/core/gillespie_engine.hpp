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
/// unchanged, which is what the execution paths exploit:
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
///    (expected relative drift ≤ ~2/leap_divisor per state per leap),
///    sampling is with replacement (a state can be over-drawn past its
///    count; excess pairs are dropped as nulls, counted in
///    `dropped_pairs()`), and the initiator/responder draws ignore the
///    same-agent exclusion (O(1/n) per pair). Because no agent interacts
///    twice within a leap, every per-agent counter loses a share ≈ 2L/n of
///    its per-leap variance: on PLL the timer count variance at t = 64
///    reads 3.1–3.2% low and the first wrap comes 0.7–0.8% late. The KS
///    harness in tests/test_statistical.cpp compares stabilisation times
///    and cannot see either.
///
///  * **Separable leaps.** When every live cell *factorises* — out_a(a, b)
///    = f(a) = out_a(a, a) and out_b(a, b) = g(b) = out_b(b, b) for all
///    live a, b — the pairing cannot change what a leap does: the sampled
///    initiators of each state a move to f(a), the responders of each b to
///    g(b), in O(d) with no pairing draws. `CellFactorisation` counts each
///    live state's cells whose own output is not f or g, updated only as
///    states are born or die and only while d² ≤ `separable_cell_factor`·L;
///    every cell factorises when every count is 0. Such a leap draws its
///    2L step slots as one multiset T ~ Mult(2L, c/n), the law of the sum
///    of the two sides' Mult(L, c/n) draws. Where every live state has
///    f = g, only T matters and it moves through f. Otherwise T is split
///    into the initiator side X ~ MVH(T; L) and the responder side
///    Y = T − X, their exact joint law. A leap that over-draws a state
///    (where the clamp needs cells) or crosses to a single leader (where
///    the replay needs pairs) splits T if it has not and is paired, so
///    separable leaps sample exactly what paired leaps sample and add no
///    approximation of their own. PLL's count-up wait, where timer agents
///    advance whatever they meet, is separable and symmetric (f = g)
///    almost throughout.
///
///  * **Folded leaps.** Where only some live states are *self-determined*
///    (SD: against every live partner a state becomes f(a) as initiator and
///    g(a) as responder), a leap pairs only the states whose next state
///    depends on the partner. `CellFactorisation` groups the SD states into
///    *partner classes* — states that every partner-dependent state, in
///    either role, treats alike — each named by a token, its first member.
///    A leap folds when some class holds two or more live states: it draws
///    X and Y ~ Mult(L) as a paired leap does, replaces each SD state by
///    its class token in both, pairs the much smaller folded table through
///    the unchanged pairing layer, applies only the partner-dependent side
///    of each cell (through the transition cache, against the token) and
///    moves every SD slot through f or g, as a separable leap does. The
///    folded table has exactly the law of the image of the paired table,
///    and every table over states that folds into it applies the same way,
///    so a folded leap samples what a paired leap samples. A leap pairs
///    unfolded when it over-draws a state, or when its sides hold so many
///    leader slots that it could end at a single leader, where the
///    crossing replay needs the pairs over states. Both tests read only X
///    and Y, never the pairing, so either way the leap has the paired
///    leap's law. PLL's QuickElimination folds: its timers and its
///    finished status-A agents at the top level are SD and fall into a few
///    classes.
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
#include "count_engine.hpp"
#include "count_store.hpp"
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

/// Which live states need a partner to know their next state, and how the
/// others group by what they do to those that do. Over the tracked states:
///
///  * a state s is *self-determined* (SD) when, against every tracked
///    partner, it becomes f(s) = out_a(s, s) as initiator and g(s) =
///    out_b(s, s) as responder, and *partner-dependent* otherwise. Each
///    state keeps its count of own-side mismatches — cells where its own
///    output differs from f or g — and is SD while the count is 0. Every
///    state is SD exactly when every cell *factorises* into (f(a), g(b)):
///    then pairing a leap's initiator and responder multisets cannot change
///    what the leap does (the gillespie engine's separable leaps);
///  * SD states fall into *partner classes*: two share a class when every
///    partner-dependent state, as initiator and as responder, ends in the
///    same state whichever of the two it meets. Classes are formed in
///    live-list order and each is named by its first member, its *token*:
///    a folded leap pairs each class as one token;
///  * the states with f(s) ≠ g(s) are counted: while none is, a separable
///    leap depends only on how many slots each state fills.
///
/// `update` brings the tracked set up to the store's live set. A newborn
/// runs its cells against every tracked state in both orders (2·d protocol
/// calls), and a state that this turns partner-dependent runs its own (2·d
/// more). Each partner-dependent state keeps its own output keys against
/// every tracked state, as initiator and as responder: d_dep·d key pairs,
/// none while every state is SD. A death therefore runs no cell, and the
/// classes are regrouped, whenever the live list changed, by comparing
/// stored keys. Cells are run on state copies and compared by canonical
/// key, which interns nothing. Everything here is therefore a pure function
/// of the live list, and the engine's id assignment — part of its seeded
/// stream — never depends on when, or from what tracked set, it was brought
/// up to date (a resumed run starts from an empty one).
template <typename P>
    requires InternableProtocol<P>
class CellFactorisation {
public:
    /// `class_of` of a partner-dependent state.
    static constexpr std::uint32_t no_class = std::numeric_limits<std::uint32_t>::max();

    /// Brings the tracked set up to the live ids of `store` (which must be
    /// compacted: every listed id alive) and returns the number of
    /// partner-dependent states among them: 0 when every cell factorises.
    std::size_t update(const P& proto, const InternedCountStore<P>& store) {
        const StateIndex<P>& index = store.index();
        if (slot_.size() < index.size()) {
            slot_.resize(index.size(), untracked);
            f_key_.resize(index.size(), 0);
            g_key_.resize(index.size(), 0);
            own_mismatches_.resize(index.size(), 0);
            rows_.resize(index.size());
            class_of_.resize(index.size(), no_class);
        }
        const std::vector<std::uint64_t>& counts = store.counts();
        std::size_t i = 0;
        while (i < tracked_.size()) {
            if (counts[tracked_[i]] != 0) {
                ++i;
                continue;
            }
            remove_at(i);
        }
        // The classes stay current while the live list is the one they
        // were built from, checked in the same pass as the births.
        const std::vector<StateId>& live = store.live_ids();
        bool classes_current = live.size() == grouped_order_.size();
        for (std::size_t j = 0; j < live.size(); ++j) {
            if (slot_[live[j]] == untracked) add(proto, index, live[j]);
            classes_current = classes_current && grouped_order_[j] == live[j];
        }
        if (!classes_current) regroup(live);
        return dependent_;
    }

    /// Tracked states a with f(a) ≠ g(a) — an initiator and a responder in
    /// state a leave it for different states — as of the last `update`.
    [[nodiscard]] std::uint64_t asymmetric_states() const noexcept { return asymmetric_; }

    /// Whether a leap over the tracked set folds: some but not all of its
    /// states are SD, and some partner class holds two or more of them.
    [[nodiscard]] bool folds() const noexcept { return folds_; }

    /// The partner class of live state `s`, an index below `class_count()`,
    /// or `no_class` when `s` is partner-dependent (as of the last
    /// `update`).
    [[nodiscard]] std::uint32_t class_of(StateId s) const noexcept { return class_of_[s]; }
    [[nodiscard]] std::size_t class_count() const noexcept { return tokens_.size(); }
    /// The first member of class `c` in live-list order.
    [[nodiscard]] StateId class_token(std::uint32_t c) const noexcept { return tokens_[c]; }

    /// Forgets the tracked set (its ids may no longer name the same states).
    void clear() noexcept {
        tracked_.clear();
        slot_.clear();
        f_key_.clear();
        g_key_.clear();
        own_mismatches_.clear();
        rows_.clear();
        class_of_.clear();
        tokens_.clear();
        class_size_.clear();
        grouped_order_.clear();
        dependent_ = 0;
        asymmetric_ = 0;
        folds_ = false;
    }

private:
    static constexpr std::uint32_t untracked = std::numeric_limits<std::uint32_t>::max();

    /// What one state becomes against one partner, by canonical key.
    struct OwnOutputs {
        std::uint64_t as_initiator;
        std::uint64_t as_responder;
        friend bool operator==(const OwnOutputs&, const OwnOutputs&) = default;
    };

    /// Runs the cell (a, b) and returns what `a` becomes as initiator and
    /// `b` as responder.
    [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> run_cell(
        const P& proto, const StateIndex<P>& index, StateId a, StateId b) {
        typename P::State initiator = index.state(a);
        typename P::State responder = index.state(b);
        proto.interact(initiator, responder);
        return {state_key_of(proto, initiator), state_key_of(proto, responder)};
    }

    /// Own-side mismatches of `outputs`, the outputs of state `s`.
    [[nodiscard]] std::uint32_t mismatches_of(StateId s, const OwnOutputs& outputs) const {
        return static_cast<std::uint32_t>(outputs.as_initiator != f_key_[s]) +
               static_cast<std::uint32_t>(outputs.as_responder != g_key_[s]);
    }

    // `add`, `remove_at` and `regroup` run only when the live list changes
    // and are kept out of line, so the per-leap path through `update` stays
    // its two scans of the live list.

    /// Tracks newborn `s`: runs its cells against every tracked state in
    /// both orders, and gives each state this turns partner-dependent its
    /// row.
    __attribute__((noinline)) void add(const P& proto, const StateIndex<P>& index, StateId s) {
        const auto [f, g] = run_cell(proto, index, s, s);
        f_key_[s] = f;
        g_key_[s] = g;
        asymmetric_ += f != g ? 1 : 0;
        const std::size_t column = tracked_.size();
        newborn_row_.resize(column + 1);
        flipped_.clear();
        std::uint32_t mismatches = 0;
        for (std::size_t j = 0; j < column; ++j) {
            const StateId t = tracked_[j];
            const auto [s_initiator, t_responder] = run_cell(proto, index, s, t);
            const auto [t_initiator, s_responder] = run_cell(proto, index, t, s);
            newborn_row_[j] = OwnOutputs{s_initiator, s_responder};
            mismatches += mismatches_of(s, newborn_row_[j]);
            const OwnOutputs theirs{t_initiator, t_responder};
            const std::uint32_t their_mismatches = mismatches_of(t, theirs);
            if (own_mismatches_[t] != 0) {
                rows_[t].push_back(theirs);
            } else if (their_mismatches != 0) {
                flipped_.push_back(t);
            }
            own_mismatches_[t] += their_mismatches;
        }
        newborn_row_[column] = OwnOutputs{f, g};
        slot_[s] = static_cast<std::uint32_t>(column);
        tracked_.push_back(s);
        own_mismatches_[s] = mismatches;
        if (mismatches != 0) {
            rows_[s] = newborn_row_;
            ++dependent_;
        }
        for (const StateId t : flipped_) {
            std::vector<OwnOutputs>& row = rows_[t];
            row.resize(tracked_.size());
            for (std::size_t j = 0; j < tracked_.size(); ++j) {
                const StateId u = tracked_[j];
                row[j] = OwnOutputs{run_cell(proto, index, t, u).first,
                                    run_cell(proto, index, u, t).second};
            }
            ++dependent_;
        }
    }

    /// Untracks the dead state at `tracked_[i]`: takes its cells out of the
    /// other states' counts through their stored rows (a state that is SD
    /// has no mismatch to take out) and swap-removes its column.
    __attribute__((noinline)) void remove_at(std::size_t i) {
        const StateId s = tracked_[i];
        const std::size_t last = tracked_.size() - 1;
        asymmetric_ -= f_key_[s] != g_key_[s] ? 1 : 0;
        if (own_mismatches_[s] != 0) {
            own_mismatches_[s] = 0;
            std::vector<OwnOutputs>().swap(rows_[s]);
            --dependent_;
        }
        for (const StateId t : tracked_) {
            if (own_mismatches_[t] == 0) continue;
            std::vector<OwnOutputs>& row = rows_[t];
            own_mismatches_[t] -= mismatches_of(t, row[i]);
            row[i] = row[last];
            row.pop_back();
            if (own_mismatches_[t] == 0) {  // t is SD again
                std::vector<OwnOutputs>().swap(row);
                --dependent_;
            }
        }
        tracked_[i] = tracked_[last];
        slot_[tracked_[i]] = static_cast<std::uint32_t>(i);
        tracked_.pop_back();
        slot_[s] = untracked;
    }

    /// Groups the SD states of `live` into partner classes: states whose
    /// columns agree in every partner-dependent row share a class, named by
    /// its first member in `live`. Sorting by a hash of the column and live
    /// position keeps this O(d log d + d_SD·d_dep) however many classes
    /// there are. The hash reads the rows in live-list order, not in the
    /// order births and deaths left `tracked_`, so the class numbers too
    /// depend on the live list alone.
    __attribute__((noinline)) void regroup(const std::vector<StateId>& live) {
        grouped_order_ = live;
        tokens_.clear();
        class_size_.clear();
        folds_ = false;
        if (dependent_ == 0) {  // no partner to tell SD states apart: one class
            tokens_.push_back(live.front());
            class_size_.push_back(static_cast<std::uint32_t>(live.size()));
            for (const StateId s : live) class_of_[s] = 0;
            return;
        }
        dependent_rows_.clear();
        for (const StateId t : live) {
            if (own_mismatches_[t] != 0) dependent_rows_.push_back(&rows_[t]);
        }
        signatures_.clear();
        for (std::uint32_t pos = 0; pos < live.size(); ++pos) {
            const StateId s = live[pos];
            class_of_[s] = no_class;
            if (own_mismatches_[s] != 0) continue;
            std::uint64_t hash = 0;
            for (const std::vector<OwnOutputs>* row : dependent_rows_) {
                const OwnOutputs& out = (*row)[slot_[s]];
                hash = (hash ^ out.as_initiator) * 0x9E3779B97F4A7C15ULL;
                hash = (hash ^ out.as_responder) * 0xBF58476D1CE4E5B9ULL;
            }
            signatures_.emplace_back(hash, pos);
        }
        std::sort(signatures_.begin(), signatures_.end());
        std::size_t run_begin = 0;  // first signature of the current equal-hash run
        for (std::size_t k = 0; k < signatures_.size(); ++k) {
            if (signatures_[k].first != signatures_[run_begin].first) run_begin = k;
            const StateId s = live[signatures_[k].second];
            // Positions ascend within a run, so a class's first member here
            // is its first in `live`.
            std::uint32_t c = no_class;
            for (std::size_t r = run_begin; r < k && c == no_class; ++r) {
                const StateId other = live[signatures_[r].second];
                if (tokens_[class_of_[other]] == other && same_partners(s, other)) {
                    c = class_of_[other];
                }
            }
            if (c == no_class) {
                c = static_cast<std::uint32_t>(tokens_.size());
                tokens_.push_back(s);
                class_size_.push_back(0);
            }
            class_of_[s] = c;
            ++class_size_[c];
            folds_ = folds_ || class_size_[c] == 2;
        }
    }

    /// Whether every partner-dependent state ends in the same state against
    /// SD states `a` and `b`, in both roles.
    [[nodiscard]] bool same_partners(StateId a, StateId b) const {
        for (const std::vector<OwnOutputs>* row : dependent_rows_) {
            if (!((*row)[slot_[a]] == (*row)[slot_[b]])) return false;
        }
        return true;
    }

    std::vector<StateId> tracked_;               ///< the states the counts cover
    std::vector<std::uint32_t> slot_;            ///< per id: position in tracked_, or untracked
    std::vector<std::uint64_t> f_key_;           ///< per id: key of out_a(id, id)
    std::vector<std::uint64_t> g_key_;           ///< per id: key of out_b(id, id)
    std::vector<std::uint32_t> own_mismatches_;  ///< per id: own-side mismatching cells
    /// Per partner-dependent id: its outputs against tracked_[j] at [j].
    std::vector<std::vector<OwnOutputs>> rows_;
    std::vector<std::uint32_t> class_of_;        ///< per live id: partner class or no_class
    std::vector<StateId> tokens_;                ///< per class: its first member
    std::vector<std::uint32_t> class_size_;      ///< per class: its members
    std::vector<StateId> grouped_order_;         ///< the live list the classes were built from
    std::size_t dependent_ = 0;                  ///< tracked states that are not SD
    std::uint64_t asymmetric_ = 0;               ///< tracked states with f_key ≠ g_key
    bool folds_ = false;
    // Scratch.
    std::vector<OwnOutputs> newborn_row_;
    std::vector<StateId> flipped_;
    std::vector<const std::vector<OwnOutputs>*> dependent_rows_;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> signatures_;
};

/// Splits the 2·`len` step slots of a separable leap into its two sides. On
/// entry `initiators` holds T, the states drawn for all 2·`len` slots; on
/// exit it holds X ~ MVH(T; `len`), the `len` of them drawn without
/// replacement, and `responders` holds Y = T − X, both in T's order and
/// without zero entries. For T ~ Mult(2·len, p) that is exactly the joint
/// law of two independent Mult(len, p) draws: given their sum T, X is
/// multivariate hypergeometric. A T over one state splits as (len, len)
/// with no draw for len ≥ 2. `scratch` is reused storage. Kept out of line
/// like the engine's once-per-leap helpers (see there).
template <typename Generator>
__attribute__((noinline)) void split_leap_multiset(Generator& gen, std::uint64_t len,
                                                   StateMultiset& initiators,
                                                   StateMultiset& responders,
                                                   std::vector<std::uint64_t>& scratch) {
    scratch.clear();
    for (const auto& [id, t] : initiators) scratch.push_back(t);
    multivariate_hypergeometric(gen, scratch.data(), scratch.size(), len, scratch.data());
    responders.clear();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
        const auto [id, t] = initiators[i];
        if (t > scratch[i]) responders.emplace_back(id, t - scratch[i]);
        if (scratch[i] > 0) initiators[kept++] = {id, scratch[i]};
    }
    initiators.resize(kept);
}

/// Reaction-rate (Gillespie SSA + τ-leaping) simulation engine. Drop-in
/// alternative to Engine<P> / BatchedEngine<P> for the run/verify surface
/// (run_until_one_leader, run_for, verify_outputs_stable, RunResult), minus
/// per-agent observation — like the batched engine it works on counts, and
/// everything but its rounds lives in the shared core (count_engine.hpp).
template <typename P>
    requires InternableProtocol<P>
class GillespieEngine : public CountEngine<GillespieEngine<P>, P> {
    using Base = CountEngine<GillespieEngine<P>, P>;
    friend Base;

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
    /// at most ~2/leap_divisor. The price of 64 is measured, not bounded:
    /// per-agent counters lose ≈ 2L/n = 1/32 of their per-leap variance
    /// (PLL's timer count variance at t = 64 reads 3.1–3.2% low, its first
    /// wrap 0.7–0.8% late), which the KS agreement harness on stabilisation
    /// times (tests/test_statistical.cpp) cannot see. Leaps stay 1–2 orders
    /// of magnitude longer than the batched engine's Θ(√n) batches.
    static constexpr std::uint64_t leap_divisor = 64;
    /// Expected non-null firings per leap below which exact SSA (geometric
    /// null-skipping) replaces leaping — the near-stabilisation fallback.
    static constexpr double ssa_event_threshold = 4.0;
    /// Separable and folded leaps are considered only while d² ≤
    /// separable_cell_factor × n/leap_divisor (d = live states): bringing
    /// the factorisation up to a new live set from scratch checks d² cells,
    /// which this bounds by a few leaps' worth of pair work, and it bounds
    /// the partner-dependent states' stored rows (d_dep·d key pairs) too.
    /// Wide-state configurations skip the bookkeeping and pair every leap.
    static constexpr std::uint64_t separable_cell_factor = 4;
    /// Steps per round of the exact per-step categorical form (wide d at
    /// small n), so callers regain control at a bounded cadence.
    static constexpr StepCount categorical_chunk = 4096;

    GillespieEngine(P protocol, std::size_t n, std::uint64_t seed)
        : Base(std::move(protocol), n, seed) {
        channels_.reserve(64);
    }

    // --- observation ------------------------------------------------------

    /// τ-leaps executed so far, separable ones included (introspection for
    /// tests and benches).
    [[nodiscard]] std::uint64_t leaps_taken() const noexcept { return leaps_; }
    /// τ-leaps that skipped the pairing because every live cell factorised,
    /// counted since construction or the last `restore_state` (introspection
    /// only; not checkpointed).
    [[nodiscard]] std::uint64_t separable_leaps() const noexcept { return separable_leaps_; }
    /// τ-leaps that paired only the partner-dependent states and one token
    /// per partner class (see CellFactorisation), counted like
    /// `separable_leaps()`.
    [[nodiscard]] std::uint64_t folded_leaps() const noexcept { return folded_leaps_; }
    /// The self-determined states and partner classes as of the last leap
    /// that consulted them (test introspection).
    [[nodiscard]] const CellFactorisation<P>& factorisation() const noexcept {
        return factorisation_;
    }
    /// Exact SSA firings executed so far (both enumerated and categorical).
    [[nodiscard]] std::uint64_t exact_events() const noexcept { return exact_events_; }
    /// Over-drawn pairs dropped by τ-leap clamping — the engine's measure of
    /// its own leaping error (0 whenever the engine never leaped).
    [[nodiscard]] std::uint64_t dropped_pairs() const noexcept { return dropped_pairs_; }

    /// Test introspection: start counting exact-SSA firings per ordered
    /// channel (one branch per non-null event while enabled; τ-leap cells
    /// are not tallied — use small n so the engine stays on the SSA paths).
    /// The sampler-marginal chi-square tests compare the tally against the
    /// propensity ratios c_a·(c_b − [a = b]).
    void enable_channel_tally() noexcept { tally_enabled_ = true; }

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
        factorisation_.clear();
    }

private:
    using Base::crossing_offset;
    using Base::first_single_leader_step_;
    using Base::initiators_;
    using Base::leader_count_;
    using Base::n_;
    using Base::pairs_;
    using Base::protocol_;
    using Base::responders_;
    using Base::rng_;
    using Base::role_change_seen_;
    using Base::steps_;
    using Base::store_;
    using Base::transition;

    // --- checkpoint tail ----------------------------------------------------

    /// The leap/event tallies follow the shared checkpoint prefix. The
    /// channel list and its weights are per-round transients (rebuilt from
    /// the live counts at the top of every round), so they are never
    /// persisted.
    void save_tail(CheckpointWriter& w) const {
        w.u64(leaps_);
        w.u64(exact_events_);
        w.u64(dropped_pairs_);
    }

    /// Reads the tallies back. The factorisation is dropped (it is rebuilt
    /// from the live set), and `separable_leaps()` and `folded_leaps()`
    /// restart from 0.
    void restore_tail(CheckpointReader& r) {
        leaps_ = r.u64();
        exact_events_ = r.u64();
        dropped_pairs_ = r.u64();
        factorisation_.clear();
        separable_leaps_ = 0;
        folded_leaps_ = 0;
    }

    /// One non-null reaction channel: the ordered state pair and its current
    /// propensity weight c_a·(c_b − [a = b]). The transition itself is
    /// re-read from the cache at firing time (the cache may reallocate).
    struct Channel {
        StateId a;
        StateId b;
        std::uint64_t weight;
    };

    // --- round dispatch ---------------------------------------------------

    /// Executes one round of at most `budget` ≥ 1 steps on the path the
    /// current configuration calls for; returns the number executed.
    StepCount round(StepCount budget, bool stop_at_single_leader) {
        store_.compact_live();
        const std::size_t d = store_.live_ids().size();
        const StepCount leap_len =
            std::min<StepCount>(budget, std::max<std::uint64_t>(1, n_ / leap_divisor));
        if (d <= channel_state_cap) {
            build_channels();
            if (w_nonnull_ == 0) {  // dead: every channel null
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

    /// Expected non-null firings over a leap of `len` steps under the
    /// enumerated channel weights.
    [[nodiscard]] double expected_firings(StepCount len) const noexcept {
        const double w_total =
            static_cast<double>(n_) * (static_cast<double>(n_) - 1.0);
        return static_cast<double>(len) * static_cast<double>(w_nonnull_) / w_total;
    }

    // --- exact SSA, enumerated channels -----------------------------------

    /// Rebuilds the non-null channel list and its total weight from the live
    /// counts. O(d²) cache lookups; only entered while d ≤ channel_state_cap.
    void build_channels() {
        channels_.clear();
        w_nonnull_ = 0;
        const std::vector<std::uint64_t>& counts = store_.counts();
        for (const StateId a : store_.live_ids()) {
            const std::uint64_t ca = counts[a];
            for (const StateId b : store_.live_ids()) {
                const std::uint64_t weight = a == b ? ca * (ca - 1) : ca * counts[b];
                if (weight == 0) continue;
                const CachedTransition& tr = transition(a, b);
                if (tr.out_a == a && tr.out_b == b) continue;  // null reaction
                channels_.push_back(Channel{a, b, weight});
                w_nonnull_ += weight;
            }
        }
    }

    /// One exact SSA event: a geometric draw skips every null step up to the
    /// next non-null firing; if that firing lies beyond the budget the round
    /// consumes the budget as nulls (exact: geometric memorylessness).
    StepCount enumerated_ssa_event(StepCount budget) {
        const double w_total =
            static_cast<double>(n_) * (static_cast<double>(n_) - 1.0);
        const double p = static_cast<double>(w_nonnull_) / w_total;
        const StepCount gap = geometric(rng_, p);
        if (gap > budget) {  // the next reaction lies beyond this round
            steps_ += budget;
            return budget;
        }
        steps_ += gap;
        const Channel* fired = nullptr;
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
    /// the remaining n−1 agents. O(d) per step; cannot skip nulls.
    StepCount categorical_steps(StepCount chunk, bool stop_at_single_leader) {
        StepCount executed = 0;
        while (executed < chunk) {
            const StateId a = draw_categorical(uniform_below(rng_, n_), invalid_state_id);
            const StateId b = draw_categorical(uniform_below(rng_, n_ - 1), a);
            const CachedTransition tr = transition(a, b);  // copy: cache may grow
            ++steps_;
            ++executed;
            if (tr.out_a != a || tr.out_b != b) {
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
    /// the batch-pairing layer, and clamped per-cell application. When every
    /// live cell factorises, one Mult(2·len) draw T replaces the two
    /// Mult(len) draws — their sum has that law — and `separable_leap`
    /// applies it without the pairing. T is split into its sides X and
    /// Y = T − X only when they differ (some live state has f ≠ g) or when
    /// the leap declines to the pairing; the split draws X from its exact law
    /// given T. When only some live states are self-determined and some
    /// partner class holds two or more, `fold_sides` folds each class into
    /// its token, the folded sides are paired, and `folded_leap` applies
    /// them, unless the sides over-draw a state or could end at a single
    /// leader.
    StepCount leap_round(StepCount len) {
        const StepCount steps_before = steps_;
        const LeapKind kind = classify_leap();
        const bool separable = kind == LeapKind::separable;
        // A separable leap draws its 2·len slots as one multiset T into
        // `initiators_` and leaves `responders_` empty until T is split.
        sample_leap_multiset(separable ? 2 * len : len, initiators_);
        sample_leap_multiset(separable ? 0 : len, responders_);
        if (separable) {
            if (factorisation_.asymmetric_states() != 0) {
                split_leap_multiset(rng_, len, initiators_, responders_, split_scratch_);
            }
            if (separable_leap(len)) return len;
            if (responders_.empty()) {
                split_leap_multiset(rng_, len, initiators_, responders_, split_scratch_);
            }
        }
        const bool folded = kind == LeapKind::folded && fold_sides();
        sample_batch_pairing(BatchMode::automatic, rng_,
                             folded ? folded_initiators_ : initiators_,
                             folded ? folded_responders_ : responders_, len, pairs_);
        if (folded) {
            folded_leap(len);
            return len;
        }

        std::vector<std::uint64_t>& counts = store_.counts();
        applied_mult_.clear();
        std::int64_t delta_total = 0;
        bool role_changed = false;
        std::uint64_t dropped = 0;
        // Forced inline: left to the heuristics, registry.cpp, which
        // instantiates every engine, compiles this body as a separate
        // function called once per pair group of every pairwise leap.
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult)
                            __attribute__((always_inline)) {
            // Clamp to what the running counts can supply: with-replacement
            // sampling may over-draw a state past its count; the excess
            // pairs are dropped as nulls (counted, and rare by the leap
            // bound — states with counts ≫ n/leap_divisor never clamp).
            const std::uint64_t avail =
                a == b ? counts[a] / 2 : std::min(counts[a], counts[b]);
            const CachedTransition tr = transition(a, b);  // copy: cache may grow
            const std::uint64_t m = std::min(mult, avail);
            dropped += mult - m;
            applied_mult_.push_back(static_cast<std::uint32_t>(m));
            if (m == 0) return;
            if (a == b) {
                counts[a] -= 2 * m;
            } else {
                counts[a] -= m;
                counts[b] -= m;
            }
            store_.touch(tr.out_a, m);
            store_.touch(tr.out_b, m);
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
            first_single_leader_step_ = steps_before + crossing_offset(&applied_mult_);
        }
        leader_count_ = post;
        store_.merge_touched();
        ++leaps_;
        return len;
    }

    // The separable- and folded-leap helpers below, and
    // `split_leap_multiset`, run once per leap and are kept out of line:
    // inlined into leap_round, any one spends registry.cpp's inlining
    // budget, and leap_round then calls its multiset sampler out of line.
    // For the same reason leap_round calls that sampler from two sites,
    // both on every leap: with the responder draw on the paired path only,
    // GCC 12 compiled it as an out-of-line call there (leap_round<Pll>
    // 0x6a1 bytes plus a 0x144-byte sampler, against 0x7c5 bytes with both
    // sites inline). The sampler is also forced inline: with the folded-leap
    // helpers, moving one loop inside one of them tipped the budget into
    // inlining the paired application's pair loop instead, and both sites
    // called the sampler out of line (leap_round<Pll> 0x9e6). Forced, it is
    // 0x7a0 with both sites inline and the pair loop (0x755) out of line;
    // classify_leap 0x5f1, separable_leap 0x503, fold_sides 0x16d calling
    // fold_side (0x247) twice, folded_leap 0x758 with its cell visitor
    // inline, and CellFactorisation's out-of-line add 0xcf6, remove_at 0x1c5
    // and regroup 0x76a (GCC 12.2, Release `registry.cpp.o`).

    /// How a leap over the current live set is applied.
    enum class LeapKind : std::uint8_t {
        paired,     ///< pair the sampled multisets
        separable,  ///< every live state is self-determined: no pairing
        folded,     ///< pair the partner-dependent states and class tokens
    };

    /// Classifies the next leap through `CellFactorisation`, under the
    /// `separable_cell_factor` gate: separable when every live cell
    /// factorises, folded when the factorisation folds, paired otherwise. A
    /// pure function of the live list and n, so a resumed run decides every
    /// leap as the uninterrupted run did.
    __attribute__((noinline)) LeapKind classify_leap() {
        const std::uint64_t d = store_.live_ids().size();
        const std::uint64_t leap = std::max<std::uint64_t>(1, n_ / leap_divisor);
        if (d * d > separable_cell_factor * leap) return LeapKind::paired;
        if (factorisation_.update(protocol_, store_) == 0) return LeapKind::separable;
        return factorisation_.folds() ? LeapKind::folded : LeapKind::paired;
    }

    /// Whether the sampled sides draw some state past its count
    /// (x_a + y_a > c_a), where the paired application's clamp would drop
    /// pairs. Both multisets list their states in live-list order.
    [[nodiscard]] bool overdrawn() const {
        const std::vector<std::uint64_t>& counts = store_.counts();
        auto x = initiators_.cbegin();
        auto y = responders_.cbegin();
        for (const StateId id : store_.live_ids()) {
            std::uint64_t drawn = 0;
            if (x != initiators_.cend() && x->first == id) drawn += (x++)->second;
            if (y != responders_.cend() && y->first == id) drawn += (y++)->second;
            if (drawn > counts[id]) return true;
        }
        return false;
    }

    /// The separable leap: with every live cell factorising, each sampled
    /// initiator of state a moves to f(a) = out_a(a, a) and each responder of
    /// state b to g(b) = out_b(b, b) — one count update, one touch and one
    /// leader/role delta per sampled state, and no pairing draws. With
    /// `responders_` empty, `initiators_` holds both sides' slots T (every
    /// live state has f = g) and moves through f. That is what the pairing
    /// path would apply, pair for pair, provided no state is over-drawn in
    /// total (x_a + y_a ≤ c_a, so the clamp never bites). Declines, changing
    /// no count, when a state is over-drawn or when the leap would cross to
    /// a single leader (the crossing replay needs the pairs); the caller
    /// then splits T if it has not, and pairs the two sides.
    __attribute__((noinline)) bool separable_leap(StepCount len) {
        if (overdrawn()) return false;
        bool role_changed = false;
        const std::int64_t delta_total =
            self_determined_moves(initiators_, responders_, role_changed);
        const auto post = static_cast<std::size_t>(
            static_cast<std::int64_t>(leader_count_) + delta_total);
        if (!first_single_leader_step_ && post == 1 && leader_count_ != 1) return false;
        apply_self_determined_moves(initiators_, responders_);
        finish_unpaired_leap(len, post, role_changed);
        ++separable_leaps_;
        return true;
    }

    /// The moves of self-determined slots: each slot of state a in `x` to
    /// f(a) = out_a(a, a), each slot of state b in `y` to g(b) =
    /// out_b(b, b). Records the targets for `apply_self_determined_moves`
    /// and returns their leader delta; raises `role_changed` when an output
    /// symbol changes. The one loop over such slots, for separable and
    /// folded leaps alike.
    std::int64_t self_determined_moves(const StateMultiset& x, const StateMultiset& y,
                                       bool& role_changed) {
        self_determined_out_.clear();
        std::int64_t delta_total = 0;
        for (const StateMultiset* side : {&x, &y}) {
            for (const auto& [id, mult] : *side) {
                const CachedTransition& tr = transition(id, id);
                const StateId out = side == &x ? tr.out_a : tr.out_b;
                self_determined_out_.push_back(out);
                count_move(id, out, mult, delta_total, role_changed);
            }
        }
        return delta_total;
    }

    /// Adds to `delta_total` and `role_changed` what `mult` agents moving
    /// from state `in` to state `out` do to the leader count and the
    /// output symbols.
    void count_move(StateId in, StateId out, std::uint64_t mult, std::int64_t& delta_total,
                    bool& role_changed) const {
        const StateIndex<P>& index = store_.index();
        delta_total += static_cast<std::int64_t>(mult) *
                       (static_cast<std::int64_t>(index.is_leader(out)) -
                        static_cast<std::int64_t>(index.is_leader(in)));
        role_changed |= index.role(out) != index.role(in);
    }

    /// Moves the slots of `x` and `y` to the targets `self_determined_moves`
    /// recorded for them.
    void apply_self_determined_moves(const StateMultiset& x, const StateMultiset& y) {
        std::vector<std::uint64_t>& counts = store_.counts();
        std::size_t i = 0;
        for (const StateMultiset* side : {&x, &y}) {
            for (const auto& [id, mult] : *side) {
                counts[id] -= mult;
                store_.touch(self_determined_out_[i++], mult);
            }
        }
    }

    /// Books a separable or folded leap that moved its slots without the
    /// paired application.
    void finish_unpaired_leap(StepCount len, std::size_t post, bool role_changed) {
        steps_ += len;
        role_change_seen_ = role_change_seen_ || role_changed;
        leader_count_ = post;
        store_.merge_touched();
        ++leaps_;
    }

    /// Folds the sampled sides for a folded leap: the slots of every
    /// self-determined state leave `initiators_` / `responders_` for
    /// `self_determined_initiators_` / `self_determined_responders_`, and
    /// each partner class appears in `folded_initiators_` /
    /// `folded_responders_` as one entry under its token, beside the
    /// partner-dependent states, where its first sampled member stood.
    /// Pairing the folded sides samples exactly the image, under that map,
    /// of the table the unfolded sides would pair into. Declines, folding
    /// nothing, when a state is over-drawn (the clamp needs the cells over
    /// states) or when the leap could end at a single leader (the crossing
    /// replay needs them too); the caller then pairs the unfolded sides.
    /// Both tests read only the sampled sides, never the pairing, so the
    /// leaps that fold and those that pair each sample the paired leap's
    /// law.
    __attribute__((noinline)) bool fold_sides() {
        if (overdrawn() || could_cross()) return false;
        fold_side(initiators_, folded_initiators_, self_determined_initiators_);
        fold_side(responders_, folded_responders_, self_determined_responders_);
        return true;
    }

    /// Whether the sampled sides could take the leader count to 1 from
    /// another count before the stabilisation step is recorded. Only the
    /// agents in the leap's slots change, so at least leader_count_ minus
    /// the leader slots stay leaders.
    [[nodiscard]] bool could_cross() const {
        if (first_single_leader_step_ || leader_count_ == 1) return false;
        const StateIndex<P>& index = store_.index();
        std::uint64_t leader_slots = 0;
        for (const StateMultiset* side : {&initiators_, &responders_}) {
            for (const auto& [id, mult] : *side) leader_slots += index.is_leader(id) ? mult : 0;
        }
        return leader_count_ < leader_slots + 2;
    }

    void fold_side(const StateMultiset& side, StateMultiset& folded,
                   StateMultiset& self_determined) {
        folded.clear();
        self_determined.clear();
        class_entry_.assign(factorisation_.class_count(), no_entry);
        for (const auto& [id, mult] : side) {
            const std::uint32_t c = factorisation_.class_of(id);
            if (c == CellFactorisation<P>::no_class) {
                folded.emplace_back(id, mult);
                continue;
            }
            self_determined.emplace_back(id, mult);
            if (class_entry_[c] == no_entry) {
                class_entry_[c] = folded.size();
                folded.emplace_back(factorisation_.class_token(c), mult);
            } else {
                folded[class_entry_[c]].second += mult;
            }
        }
    }

    /// The folded leap, over the folded table in `pairs_`: in every cell
    /// each partner-dependent side moves to what it becomes against the
    /// other side — the same against every member of a class, so against
    /// its token — and every self-determined slot moves through f or g.
    /// That is what the paired leap applies, pair for pair, to any table
    /// over states that folds into this one; no state is over-drawn, so no
    /// pair is dropped, and the leader count cannot reach 1, so no crossing
    /// is replayed.
    __attribute__((noinline)) void folded_leap(StepCount len) {
        constexpr std::uint32_t no_class = CellFactorisation<P>::no_class;
        std::vector<std::uint64_t>& counts = store_.counts();
        std::int64_t delta_total = 0;
        bool role_changed = false;
        const auto move = [&](StateId in, StateId out, std::uint64_t mult) {
            count_move(in, out, mult, delta_total, role_changed);
            counts[in] -= mult;
            store_.touch(out, mult);
        };
        pairs_.for_each([&](StateId a, StateId b, std::uint64_t mult) {
            const bool a_depends = factorisation_.class_of(a) == no_class;
            const bool b_depends = factorisation_.class_of(b) == no_class;
            if (!a_depends && !b_depends) return;
            const CachedTransition tr = transition(a, b);  // copy: cache may grow
            if (a_depends) move(a, tr.out_a, mult);
            if (b_depends) move(b, tr.out_b, mult);
        });
        delta_total += self_determined_moves(self_determined_initiators_,
                                             self_determined_responders_, role_changed);
        apply_self_determined_moves(self_determined_initiators_, self_determined_responders_);
        const auto post = static_cast<std::size_t>(
            static_cast<std::int64_t>(leader_count_) + delta_total);
        finish_unpaired_leap(len, post, role_changed);
        ++folded_leaps_;
    }

    /// Draws a with-replacement multiset of `len` step slots over the live
    /// counts (multinomial conditional chain of binomial draws) into `out`.
    /// Sparse specialisation of `multinomial` (random.hpp): that primitive
    /// is the dense reference form whose distribution tests pin the chain
    /// math; this loop fuses sparse emission and the live-list walk a dense
    /// out-array cannot express. Mirror changes across both chains. Forced
    /// inline into both of leap_round's call sites (see there).
    __attribute__((always_inline)) void sample_leap_multiset(std::uint64_t len,
                                                             StateMultiset& out) {
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

    std::vector<Channel> channels_;       ///< non-null channels (rebuilt per SSA event)
    std::uint64_t w_nonnull_ = 0;         ///< Σ weights of channels_
    std::vector<std::uint32_t> applied_mult_;  ///< per-cell applied multiplicity
    CellFactorisation<P> factorisation_;  ///< self-determined states, classes (not persisted)
    std::vector<StateId> self_determined_out_;  ///< per self-determined slot entry: f or g
    std::vector<std::uint64_t> split_scratch_;  ///< split_leap_multiset's draw counts
    // Folded leaps: the folded sides and the self-determined slots each
    // side folded away.
    StateMultiset folded_initiators_;
    StateMultiset folded_responders_;
    StateMultiset self_determined_initiators_;
    StateMultiset self_determined_responders_;
    static constexpr std::size_t no_entry = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> class_entry_;  ///< per class: its folded entry, or no_entry
    std::uint64_t leaps_ = 0;
    std::uint64_t separable_leaps_ = 0;
    std::uint64_t folded_leaps_ = 0;
    std::uint64_t exact_events_ = 0;
    std::uint64_t dropped_pairs_ = 0;
    bool tally_enabled_ = false;
    std::unordered_map<std::uint64_t, std::uint64_t> tally_;  ///< packed id pair → fired
};

}  // namespace ppsim
