// TransitionCache (src/core/transition_cache.hpp): an entry is empty when
// its `filled` flag is 0, so a transition whose bytes are otherwise all zero
// must still be cached; and every entry must read back as computed, through
// each doubling of the dense matrix and in the overflow map beyond it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/transition_cache.hpp"

namespace ppsim {
namespace {

using Pair = std::pair<StateId, StateId>;

/// A transition that is a pure function of its input pair, with every field
/// varying and (0, 0) mapped to an entry whose bytes are all zero.
[[nodiscard]] CachedTransition expected_transition(StateId a, StateId b) {
    CachedTransition tr;
    tr.out_a = (a * 7U + b) % 1500U;
    tr.out_b = (a + b * 13U) % 1500U;
    tr.leader_delta =
        static_cast<std::int8_t>(static_cast<int>((a ^ b) % 5U) - static_cast<int>((a + b) % 3U));
    tr.role_changed = ((a + b) % 3U) == 1U;
    return tr;
}

void expect_entry(const CachedTransition& got, StateId a, StateId b) {
    const CachedTransition want = expected_transition(a, b);
    EXPECT_EQ(got.out_a, want.out_a) << a << "," << b;
    EXPECT_EQ(got.out_b, want.out_b) << a << "," << b;
    EXPECT_EQ(got.leader_delta, want.leader_delta) << a << "," << b;
    EXPECT_EQ(got.role_changed, want.role_changed) << a << "," << b;
}

/// Counts compute calls per pair.
struct CountingCompute {
    std::map<Pair, int> calls;
    int total = 0;

    CachedTransition operator()(StateId a, StateId b) {
        ++calls[{a, b}];
        ++total;
        return expected_transition(a, b);
    }
};

TEST(TransitionCache, AllZeroTransitionIsComputedOnce) {
    // Outputs (0, 0), no leader change and no role change: every byte but
    // the cache's own flag is zero.
    const auto zero = [](StateId, StateId) { return CachedTransition{}; };
    for (const Pair& pair : {Pair{0, 0}, Pair{5, 63}, Pair{700, 2}, Pair{1024, 0}, Pair{3, 90000}}) {
        TransitionCache cache;
        int calls = 0;
        const auto compute = [&](StateId a, StateId b) {
            ++calls;
            return zero(a, b);
        };
        for (int i = 0; i < 4; ++i) {
            const CachedTransition& tr = cache.get(pair.first, pair.second, compute);
            EXPECT_EQ(tr.out_a, 0U);
            EXPECT_EQ(tr.out_b, 0U);
            EXPECT_EQ(tr.leader_delta, 0);
            EXPECT_FALSE(tr.role_changed);
        }
        EXPECT_EQ(calls, 1) << pair.first << "," << pair.second;
    }
}

TEST(TransitionCache, EntriesReadBackThroughEveryDoublingAndTheOverflowMap) {
    TransitionCache cache;
    CountingCompute compute;
    const auto get = [&](StateId a, StateId b) -> const CachedTransition& {
        return cache.get(a, b, [&](StateId x, StateId y) { return compute(x, y); });
    };
    // Pairs past dense_cap on either side live in the overflow map, which no
    // growth of the matrix drops.
    std::vector<Pair> overflow;
    for (StateId i = 0; i < 40; ++i) {
        overflow.push_back({TransitionCache::dense_cap + i, i});
        overflow.push_back({i * 3, TransitionCache::dense_cap + 17 * i});
    }

    // One matrix generation per dimension: the first lookup of an id in
    // [dim/2, dim) grows the matrix to dim and drops what it held.
    for (StateId dim = 64; dim <= TransitionCache::dense_cap; dim *= 2) {
        const std::map<Pair, int> before = compute.calls;
        std::vector<Pair> pairs = {{dim - 1, 0}, {0, 0}, {0, dim - 1}, {dim - 1, dim - 1}};
        for (StateId a = 0; a < dim; a += 7) {
            for (StateId b = dim / 2 - 3; b < dim; b += 29) pairs.push_back({a, b});
        }
        for (int pass = 0; pass < 2; ++pass) {
            for (const Pair& p : pairs) expect_entry(get(p.first, p.second), p.first, p.second);
            for (const Pair& p : overflow) expect_entry(get(p.first, p.second), p.first, p.second);
        }
        // compute ran once in this generation for each dense pair, and once
        // ever for each overflow pair.
        for (const Pair& p : pairs) {
            const auto old = before.find(p);
            EXPECT_EQ(compute.calls[p], (old == before.end() ? 0 : old->second) + 1)
                << "dim " << dim << ": " << p.first << "," << p.second;
        }
        for (const Pair& p : overflow) EXPECT_EQ(compute.calls[p], 1);
    }

    // Enough overflow pairs to rehash the map several times; all read back.
    const int total_before = compute.total;
    std::vector<Pair> many;
    for (StateId i = 0; i < 3000; ++i) many.push_back({2000 + i, (i * 7919U) % 5000U});
    for (const Pair& p : many) expect_entry(get(p.first, p.second), p.first, p.second);
    for (const Pair& p : many) expect_entry(get(p.first, p.second), p.first, p.second);
    for (const Pair& p : overflow) expect_entry(get(p.first, p.second), p.first, p.second);
    EXPECT_EQ(compute.total - total_before, 3000);
}

TEST(TransitionCache, MovedCacheKeepsItsEntries) {
    TransitionCache cache;
    CountingCompute compute;
    const auto via = [&](TransitionCache& c, StateId a, StateId b) -> const CachedTransition& {
        return c.get(a, b, [&](StateId x, StateId y) { return compute(x, y); });
    };
    // (300, 4) first: it grows the matrix to 512, which would drop (1, 2).
    const Pair pairs[] = {{300, 4}, {1, 2}, {2048, 9}};
    for (const Pair& p : pairs) (void)via(cache, p.first, p.second);
    TransitionCache moved = std::move(cache);
    for (const Pair& p : pairs) expect_entry(via(moved, p.first, p.second), p.first, p.second);
    EXPECT_EQ(compute.total, 3);
    cache = TransitionCache{};  // the engines' restore resets it this way
    expect_entry(via(cache, 1, 2), 1, 2);
    EXPECT_EQ(compute.total, 4);
}

}  // namespace
}  // namespace ppsim
