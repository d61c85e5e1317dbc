/// \file transition_cache.hpp
/// \brief Memoised transition table shared by the count-based engines
/// (BatchedEngine, GillespieEngine): ordered (initiator, responder) state-id
/// pairs → cached transition outputs, leader-count delta and role-change
/// flag.
///
/// Transitions between ids below the current dense dimension live in a flat
/// matrix (2–3 ns lookups; the hot sub-block is small and cache resident);
/// the dimension doubles with the interned state count up to `dense_cap`,
/// beyond which an open-addressing table takes over. The cache knows nothing
/// about protocols — callers supply a compute callback on miss, so the one
/// implementation serves every engine that works on interned state ids.
///
/// Memory rule: the matrix commits memory only for the pairs it caches. An
/// entry is empty while its `filled` byte is 0, so an all-zero entry is
/// empty and the matrix is a `calloc`'d block that nothing initialises:
/// calloc does not clear memory fresh from the kernel, so pages the cache
/// never writes stay uncommitted. (glibc does clear heap memory it has
/// handed out before, and after a process frees its first large block it
/// serves later ones of that size from the heap.) A pll election at
/// n = 2^20 interns ~800 states, a 1024 × 1024 matrix of 12 MB, while its
/// leaps look up a few hundred pairs. Growth frees the old block before it
/// takes the doubled one, so the peak never holds both.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "random.hpp"
#include "state_index.hpp"

namespace ppsim {

// (CachedTransition and TransitionCache below; compute_cached_transition —
// the one shared definition of a cached transition's semantics — follows
// them.)

/// One memoised transition: output ids plus the leader-count delta and
/// whether any output symbol changed (verify_outputs_stable). `filled` is 0
/// in an empty slot, and TransitionCache sets it once the slot holds a
/// computed transition, so an all-zero entry is empty and a valid one may
/// have any outputs, (0, 0) included.
struct CachedTransition {
    StateId out_a = 0;
    StateId out_b = 0;
    std::int8_t leader_delta = 0;
    bool role_changed = false;
    std::uint8_t filled = 0;  ///< set by the cache; 0 marks an empty slot
};
static_assert(sizeof(CachedTransition) == 12,
              "the filled flag must sit in padding: an entry stays 12 bytes");

/// Memoised (initiator id, responder id) → CachedTransition table: dense
/// matrix for low ids, open-addressing hash map beyond.
class TransitionCache {
public:
    /// Ids below this cap use the dense matrix; beyond it (protocols with
    /// thousands of live states, e.g. PLL's timer×colour product) the
    /// overflow table takes over.
    static constexpr StateId dense_cap = 1024;

    /// Returns the cached transition for ordered pair (a, b), invoking
    /// `compute(a, b) -> CachedTransition` on first sight. The callback may
    /// re-enter the caller's interning (it never touches this cache).
    template <typename Compute>
    const CachedTransition& get(StateId a, StateId b, Compute&& compute) {
        if (a >= dense_dim_ || b >= dense_dim_) {
            if (a >= dense_cap || b >= dense_cap) {
                const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32U) | b;
                if (CachedTransition* hit = overflow_cache_.find(key)) return *hit;
                return *overflow_cache_.insert(key, compute(a, b));
            }
            grow_dense(std::max(a, b));
        }
        CachedTransition& slot = dense_[a * dense_dim_ + b];
        if (slot.filled == 0) {
            slot = compute(a, b);
            slot.filled = 1;
        }
        return slot;
    }

private:
    /// Minimal open-addressing hash table for transitions between high ids.
    /// Linear probing over a power-of-two slot array: one cache line per hit
    /// in the common case, vs. two-plus for unordered_map.
    class FlatTransitionMap {
    public:
        [[nodiscard]] CachedTransition* find(std::uint64_t key) noexcept {
            if (slots_.empty()) return nullptr;
            for (std::size_t i = mix(key) & mask_;; i = (i + 1) & mask_) {
                Slot& slot = slots_[i];
                if (slot.value.filled == 0) return nullptr;
                if (slot.key == key) return &slot.value;
            }
        }

        CachedTransition* insert(std::uint64_t key, const CachedTransition& value) {
            if (slots_.empty()) rehash(1024);
            if ((size_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
            for (std::size_t i = mix(key) & mask_;; i = (i + 1) & mask_) {
                Slot& slot = slots_[i];
                if (slot.value.filled == 0) {
                    slot.key = key;
                    slot.value = value;
                    slot.value.filled = 1;
                    ++size_;
                    return &slot.value;
                }
            }
        }

    private:
        struct Slot {
            std::uint64_t key = 0;
            CachedTransition value;  // value.filled == 0 marks empty
        };

        [[nodiscard]] static std::uint64_t mix(std::uint64_t key) noexcept {
            key ^= key >> 33U;
            key *= 0xff51afd7ed558ccdULL;
            key ^= key >> 33U;
            return key;
        }

        void rehash(std::size_t capacity) {
            std::vector<Slot> old = std::move(slots_);
            slots_.assign(capacity, Slot{});
            mask_ = capacity - 1;
            size_ = 0;
            for (const Slot& slot : old) {
                if (slot.value.filled != 0) insert(slot.key, slot.value);
            }
        }

        std::vector<Slot> slots_;
        std::size_t mask_ = 0;
        std::size_t size_ = 0;
    };

    struct FreeBlock {
        void operator()(CachedTransition* block) const noexcept { std::free(block); }
    };

    /// Doubles the dense matrix dimension to cover id `needed` (< dense_cap).
    /// Cached entries are dropped and lazily recomputed — growth happens a
    /// handful of times per engine lifetime. The old block is freed before
    /// the new one is taken, and the new one is never written in bulk: an
    /// all-zero entry is already empty (memory rule, file comment).
    void grow_dense(StateId needed) {
        StateId dim = dense_dim_ == 0 ? 64 : dense_dim_;
        while (dim <= needed) dim *= 2;
        dense_.reset();
        dense_dim_ = 0;  // stays empty if the allocation throws
        void* block = std::calloc(static_cast<std::size_t>(dim) * dim, sizeof(CachedTransition));
        if (block == nullptr) throw std::bad_alloc();
        dense_.reset(static_cast<CachedTransition*>(block));
        dense_dim_ = dim;
    }

    StateId dense_dim_ = 0;
    std::unique_ptr<CachedTransition[], FreeBlock> dense_;
    FlatTransitionMap overflow_cache_;
};

/// Evaluates one transition of `proto` on the states behind ids (a, b) and
/// assembles the CachedTransition — output ids, leader-count delta,
/// role-change flag. The one shared definition of these semantics for every
/// count-based engine, so a fix here reaches all of them. `intern_state`
/// is the engine's interning hook (state → dense id, typically resizing the
/// engine's per-id vectors on first sight); it runs for both outputs before
/// any role is read, because interning may reallocate the index.
template <typename P, typename InternFn>
    requires InternableProtocol<P>
[[nodiscard]] CachedTransition compute_cached_transition(const P& proto,
                                                         const StateIndex<P>& index,
                                                         StateId a, StateId b,
                                                         InternFn&& intern_state) {
    typename P::State sa = index.state(a);  // copies: interning may reallocate
    typename P::State sb = index.state(b);
    const Role role_a = index.role(a);
    const Role role_b = index.role(b);
    const int before = static_cast<int>(role_a == Role::leader) +
                       static_cast<int>(role_b == Role::leader);
    CachedTransition tr;
    proto.interact(sa, sb);
    tr.out_a = intern_state(sa);
    tr.out_b = intern_state(sb);
    const int after = static_cast<int>(index.is_leader(tr.out_a)) +
                      static_cast<int>(index.is_leader(tr.out_b));
    tr.leader_delta = static_cast<std::int8_t>(after - before);
    tr.role_changed = index.role(tr.out_a) != role_a || index.role(tr.out_b) != role_b;
    return tr;
}

/// Localises the exact stabilisation step inside a batch or leap that
/// crossed to a single leader: the round's interactions are exchangeable, so
/// conditioned on their multiset the order is a uniform permutation —
/// shuffle the per-interaction leader deltas and scan for the first prefix
/// reaching exactly one leader (1-based offset into the round). The one
/// shared definition of the replay for every count-based engine; callers
/// fill `deltas` with one entry per interaction of the round (the batched
/// engine expands cell multiplicities, the gillespie engine additionally
/// pads dropped pairs with zeros) and it is consumed in place. Called at
/// most once per run for the absorbing single-leader predicate.
template <typename Generator>
[[nodiscard]] inline std::uint64_t locate_leader_crossing(std::vector<std::int8_t>& deltas,
                                                          Generator& gen,
                                                          std::size_t leaders_before) {
    shuffle_vector(deltas, gen);
    std::int64_t running = static_cast<std::int64_t>(leaders_before);
    for (std::uint64_t i = 0; i < deltas.size(); ++i) {
        running += deltas[i];
        if (running == 1) return i + 1;
    }
    ensure(false, "leader-count crossing not found within the round");
    return deltas.size();
}

}  // namespace ppsim
