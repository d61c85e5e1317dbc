/// \file batch_pairing.hpp
/// \brief The pluggable pairing layer of the count engines: strategies that
/// turn a batch's initiator and responder state multisets into the multiset
/// of ordered (initiator-state, responder-state) pairs.
///
/// A batch of L collision-free interactions touches 2L distinct agents. The
/// engine samples the initiator and responder state multisets (multivariate
/// hypergeometric chains over the count vector); what remains is pairing
/// them by a uniformly random bijection. Conditioned on the two multisets,
/// the result is fully described by the *contingency table* of pair counts
/// — and the table's cells are exchangeable, so any consumer that needs the
/// exact interaction order (the stabilisation-step replay) can recover it by
/// a uniform shuffle of the expanded cells. Two exact strategies with
/// different cost profiles implement the bijection:
///
///  * `PairwiseShufflePairing` — expand both multisets and Fisher–Yates
///    shuffle the responder side: Θ(L) PRNG draws and Θ(L) downstream
///    transition applications. Cost is independent of how many distinct
///    states are live, so it is the right tool for high-entropy profiles
///    (many sampled states, e.g. `mst18_style`'s wide nonces).
///
///  * `ContingencyTablePairing` — sample the table row by row: the
///    responder-state counts matched to one initiator state's block form a
///    multivariate hypergeometric draw from the remaining responder
///    multiset (the same conditional-chain factorisation as
///    `multivariate_hypergeometric` in random.hpp, specialised to the
///    in-place sparse multiset). O(#distinct state pairs) sampler calls and
///    O(#non-zero cells) downstream transition applications per batch —
///    *independent of the batch size*, which removes the Θ(L)-per-batch
///    term that bounds multi-state protocols under the shuffle strategy.
///
/// Both engines pick the strategy per batch from the sampled state-count
/// profile (`use_bulk_pairing`): bulk when distinct initiators × distinct
/// responders does not exceed the batch length, pairwise otherwise. The
/// choice changes cost only; both strategies sample the same bijection.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common.hpp"
#include "random.hpp"
#include "state_index.hpp"

namespace ppsim {

/// Pairing strategy selector. The engines always pass `automatic`; the
/// forced values let tests and replays run one strategy on its own.
enum class BatchMode : std::uint8_t {
    automatic = 0,  ///< per-batch choice from the sampled state-count profile
    pairwise = 1,   ///< always the expanded-multiset Fisher–Yates shuffle
    bulk = 2,       ///< always contingency-table sampling
};

/// One contingency-table cell: an ordered state pair and its multiplicity.
struct PairCount {
    StateId a;
    StateId b;
    std::uint64_t mult;
};

/// A state multiset as (state id, count) entries — the form in which the
/// engine samples a batch's initiator and responder sides.
using StateMultiset = std::vector<std::pair<StateId, std::uint64_t>>;

/// Output of a pairing strategy. Two representations behind one visitation
/// interface: aggregated contingency cells (bulk) or expanded per-pair
/// arrays (pairwise; pair i = (flat_a[i], flat_b[i])). Owned by the engine
/// and reused across batches so neither path allocates in steady state.
class BatchPairs {
public:
    void clear() noexcept {
        cells.clear();
        flat_a.clear();
        flat_b.clear();
        aggregated = false;
    }

    /// Visits every ordered pair group as (initiator, responder, multiplicity).
    template <typename Visitor>
    void for_each(Visitor&& visit) const {
        if (aggregated) {
            for (const PairCount& pc : cells) visit(pc.a, pc.b, pc.mult);
        } else {
            for (std::size_t i = 0; i < flat_a.size(); ++i) {
                visit(flat_a[i], flat_b[i], std::uint64_t{1});
            }
        }
    }

    /// Total number of pairs across all groups (= the batch length).
    [[nodiscard]] std::uint64_t pair_total() const noexcept {
        if (!aggregated) return flat_a.size();
        std::uint64_t total = 0;
        for (const PairCount& pc : cells) total += pc.mult;
        return total;
    }

    /// Number of visited groups: #cells when aggregated, #pairs otherwise.
    [[nodiscard]] std::size_t group_count() const noexcept {
        return aggregated ? cells.size() : flat_a.size();
    }

    std::vector<PairCount> cells;   ///< bulk representation (non-zero cells)
    std::vector<StateId> flat_a;    ///< pairwise representation, initiators
    std::vector<StateId> flat_b;    ///< pairwise representation, responders
    bool aggregated = false;        ///< which representation is live
};

/// Uniform bijection via Fisher–Yates: expand the responder multiset and
/// shuffle it against the (fixed-order) initiator expansion. Θ(fresh) PRNG
/// draws; downstream consumers see one group per pair.
struct PairwiseShufflePairing {
    template <typename Generator>
    static void pair(Generator& gen, const StateMultiset& initiators,
                     const StateMultiset& responders, std::uint64_t fresh,
                     BatchPairs& out) {
        out.aggregated = false;
        for (const auto& [state_a, count_a] : initiators) {
            out.flat_a.insert(out.flat_a.end(), count_a, state_a);
        }
        for (const auto& [state_b, count_b] : responders) {
            out.flat_b.insert(out.flat_b.end(), count_b, state_b);
        }
        if (out.flat_a.size() != fresh || out.flat_b.size() != fresh) [[unlikely]] {
            ensure(false, "pairing multisets disagree with the batch length");
        }
        shuffle_vector(out.flat_b, gen);
    }
};

/// Uniform bijection via direct contingency-table sampling: row i (one
/// initiator state, multiplicity r_i) is a multivariate hypergeometric draw
/// of r_i responders from the multiset left over by rows 0..i−1 — the exact
/// conditional-chain factorisation of the table's distribution, valid for
/// any fixed row/column order. The responder multiset is consumed in place.
/// This is a sparse specialisation of `multivariate_hypergeometric`
/// (random.hpp): that primitive is the dense reference form — its
/// distribution tests in test_random.cpp pin the shared math — while this
/// loop fuses cell emission, in-place consumption, early row exit and a
/// batched (want ≤ cap) categorical path that a dense out-array cannot
/// express without an O(#columns) pass per row. Changes to either chain's
/// fast paths should be mirrored in the other.
///
/// Cost per batch is O(Σ_i columns visited in row i) scalar hypergeometric
/// draws, bounded by #distinct_initiators × #distinct_responders and usually
/// far below it: columns are pre-sorted by descending count so heavy columns
/// absorb each row's demand first, rows stop as soon as their demand is met,
/// and two generator-free/cheap shortcuts (take-the-rest, single-item
/// categorical draw) mirror `multivariate_hypergeometric`'s fast paths.
struct ContingencyTablePairing {
    /// Rows wanting at most this many items are filled by sequential
    /// categorical draws (uniform pick of one remaining responder each, a
    /// handful of ns) instead of the per-column hypergeometric chain (tens
    /// of ns per column visited). Sequential without-replacement picks are
    /// exactly a simple random sample, so the cut-over is free of bias; the
    /// constant is a measured cost crossover, not a tuning knob that affects
    /// distribution.
    static constexpr std::uint64_t categorical_row_cap = 8;

    template <typename Generator>
    static void pair(Generator& gen, const StateMultiset& initiators,
                     StateMultiset& responders, std::uint64_t fresh, BatchPairs& out) {
        out.aggregated = true;
        // Descending-count column order: exact for any fixed order (the
        // chain factorisation holds column by column), and it minimises both
        // the columns a row's chain visits before its demand is exhausted
        // and the scan length of a categorical draw. Ties break on state id:
        // std::sort is unstable and an implementation-defined tie order
        // would consume the RNG in a different column order per stdlib,
        // breaking cross-platform reproducibility of seeded runs.
        std::sort(responders.begin(), responders.end(),
                  [](const auto& x, const auto& y) {
                      return x.second != y.second ? x.second > y.second
                                                  : x.first < y.first;
                  });
        std::uint64_t responders_left = fresh;
        for (const auto& [state_a, count_a] : initiators) {
            std::uint64_t want = count_a;
            std::uint64_t pool = responders_left;  // Σ counts from column j on
            for (std::size_t j = 0; j < responders.size() && want > 0; ++j) {
                std::uint64_t& count_b = responders[j].second;
                if (count_b == 0) continue;
                if (want <= categorical_row_cap) {
                    // Small demand: pick the remaining items one at a time,
                    // each a uniform categorical draw over the responder
                    // mass from column j on (pool counts exactly that).
                    while (want > 0) {
                        std::uint64_t r = uniform_below(gen, pool);
                        std::size_t k = j;
                        while (k < responders.size() && r >= responders[k].second) {
                            r -= responders[k].second;
                            ++k;
                        }
                        if (k >= responders.size()) [[unlikely]] {
                            // cheap check: no string temporary per pick
                            ensure(false, "contingency-table categorical draw overran");
                        }
                        if (!out.cells.empty() && out.cells.back().a == state_a &&
                            out.cells.back().b == responders[k].first) {
                            out.cells.back().mult += 1;  // coalesce repeat picks
                        } else {
                            out.cells.push_back(PairCount{state_a, responders[k].first, 1});
                        }
                        responders[k].second -= 1;
                        responders_left -= 1;
                        pool -= 1;
                        want -= 1;
                    }
                    break;
                }
                // Take the rest without touching the generator when the row
                // must absorb everything that remains.
                const std::uint64_t y =
                    want == pool ? count_b : hypergeometric(gen, pool, count_b, want);
                pool -= count_b;
                if (y > 0) {
                    out.cells.push_back(PairCount{state_a, responders[j].first, y});
                    count_b -= y;
                    want -= y;
                    responders_left -= y;
                }
            }
            if (want != 0) [[unlikely]] {  // cheap check: no string temporary per row
                ensure(false, "contingency-table row under-matched");
            }
        }
    }
};

/// The per-batch rule: bulk pairing when the worst-case number of visited
/// cells (distinct initiators × distinct responders) does not exceed the
/// batch length — below that the table costs fewer sampler calls than the
/// shuffle costs PRNG draws *and* the downstream transition loop shrinks
/// from Θ(fresh) applications to the cell count. Forced modes bypass the
/// profile entirely.
[[nodiscard]] constexpr bool use_bulk_pairing(BatchMode mode, std::size_t distinct_initiators,
                                              std::size_t distinct_responders,
                                              std::uint64_t fresh) noexcept {
    if (mode == BatchMode::pairwise) return false;
    if (mode == BatchMode::bulk) return true;
    return static_cast<std::uint64_t>(distinct_initiators) * distinct_responders <= fresh;
}

/// Dispatches one batch's pairing to the strategy selected by `mode` (and,
/// under `automatic`, by the sampled profile). Returns true when the bulk
/// (contingency-table) strategy ran. The responder multiset is scratch:
/// bulk reorders and consumes it (counts drop to zero), pairwise leaves it
/// untouched — callers must not rely on its contents afterwards.
template <typename Generator>
bool sample_batch_pairing(BatchMode mode, Generator& gen, const StateMultiset& initiators,
                          StateMultiset& responders, std::uint64_t fresh, BatchPairs& out) {
    out.clear();
    if (use_bulk_pairing(mode, initiators.size(), responders.size(), fresh)) {
        ContingencyTablePairing::pair(gen, initiators, responders, fresh, out);
        return true;
    }
    PairwiseShufflePairing::pair(gen, initiators, responders, fresh, out);
    return false;
}

}  // namespace ppsim
