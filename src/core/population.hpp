/// \file population.hpp
/// \brief Contiguous storage of agent states — the configuration C: V → Q —
/// and the census that turns one into (state, count) pairs.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common.hpp"
#include "protocol.hpp"

namespace ppsim {

/// A configuration of the population: one state per agent, stored
/// contiguously for cache-friendly access by the engine. `State` must be a
/// small trivially-copyable value (enforced at the protocol concept level).
template <typename State>
class Population {
public:
    /// Creates a population of `n` agents, all in `initial` — the paper's
    /// C_init where every agent is in state s_init. `n` is checked against
    /// `max_agent_population` before anything is allocated.
    Population(std::size_t n, const State& initial)
        : states_(checked_size(n), initial) {}

    [[nodiscard]] std::size_t size() const noexcept { return states_.size(); }

    [[nodiscard]] State& operator[](AgentId id) noexcept { return states_[id]; }
    [[nodiscard]] const State& operator[](AgentId id) const noexcept { return states_[id]; }

    [[nodiscard]] std::span<State> states() noexcept { return states_; }
    [[nodiscard]] std::span<const State> states() const noexcept { return states_; }

    /// Counts agents whose state satisfies `pred`.
    template <typename Pred>
    [[nodiscard]] std::size_t count_if(Pred pred) const {
        return static_cast<std::size_t>(
            std::count_if(states_.begin(), states_.end(), pred));
    }

    /// Resets every agent to `initial`.
    void reset(const State& initial) {
        std::fill(states_.begin(), states_.end(), initial);
    }

    /// Appends `k` agents in state `s` (fault injection: rejoin, and the
    /// agent engine's resize on restore). Throws InvalidArgument, before
    /// allocating, when the result would pass `max_agent_population`.
    void append(const State& s, std::size_t k) {
        require_within_ceiling(states_.size(), k);
        states_.insert(states_.end(), k, s);
    }

    /// Removes agent `id` by swapping with the last agent and popping
    /// (fault injection: crash). Identities are not stable across removals
    /// — irrelevant under the uniform scheduler, which carries no
    /// per-agent state. Callers keep at least two agents: a crash removes
    /// at most n − 2 (`resolve_fault_count`, fault.hpp).
    void remove_swap(AgentId id) {
        states_[id] = states_.back();
        states_.pop_back();
    }

private:
    /// `n`, once it is checked to be a valid population size.
    static std::size_t checked_size(std::size_t n) {
        require(n >= 2, "population must contain at least two agents");
        require_within_ceiling(n);
        return n;
    }

    /// Throws InvalidArgument unless `n` agents plus `added` more stay within
    /// `max_agent_population` (no overflow for any `added`).
    static void require_within_ceiling(std::uint64_t n, std::uint64_t added = 0) {
        require(n <= max_agent_population && added <= max_agent_population - n,
                "a population of agents holds at most 2^32 - 1 agents");
    }

    std::vector<State> states_;
};

/// The census of an agent population: one (state, count) entry per distinct
/// canonical key (`state_key_of`), sorted by key; each entry holds the state
/// of the first agent with that key. One hashed O(n) pass groups agents by
/// the raw bytes of their state in a flat open-addressing table, then
/// `state_key_of` runs once per distinct raw state rather than once per
/// agent, and raw groups with equal keys are merged. Padding bytes or
/// non-canonical encodings can only split one key over several raw groups,
/// which the merge re-joins, so the result is the same for any State.
template <Protocol P>
[[nodiscard]] std::vector<std::pair<typename P::State, std::uint64_t>> census_of(
    const P& proto, std::span<const typename P::State> states) {
    using State = typename P::State;
    static_assert(std::is_trivially_copyable_v<State>);
    // One slot per distinct raw state: its bytes, its agent count (0 marks an
    // empty slot) and its rank in first-seen order. States and slots are
    // copied with memcpy, never by assignment: a member-wise copy may drop
    // padding bytes, and two stored states differing only there would then
    // collide when the table grows.
    struct Slot {
        State state{};
        std::uint64_t count = 0;
        std::size_t first_seen = 0;
    };
    std::vector<Slot> slots(64);
    std::size_t shift = 64 - 6;  // a state's home slot is the top bits of its hash
    std::size_t distinct = 0;
    const auto find = [&](const State& s) {
        // Hash the state's bytes as 8-byte words, the tail zero-extended.
        std::array<std::uint64_t, (sizeof(State) + 7) / 8> words{};
        std::memcpy(words.data(), &s, sizeof(State));
        std::uint64_t hash = 0;
        for (const std::uint64_t w : words) hash = (hash ^ w) * 0x9E3779B97F4A7C15ULL;
        std::size_t i = static_cast<std::size_t>(hash >> shift);
        while (slots[i].count != 0 &&
               std::memcmp(&slots[i].state, &s, sizeof(State)) != 0) {
            i = (i + 1) & (slots.size() - 1);
        }
        return i;
    };
    for (const State& s : states) {
        Slot& slot = slots[find(s)];
        if (slot.count++ > 0) continue;
        std::memcpy(&slot.state, &s, sizeof(State));
        slot.first_seen = distinct++;
        if (2 * distinct > slots.size()) {  // keep the load at most 1/2
            std::vector<Slot> old(2 * slots.size());
            old.swap(slots);
            --shift;
            for (const Slot& o : old) {
                if (o.count != 0) std::memcpy(&slots[find(o.state)], &o, sizeof(Slot));
            }
        }
    }
    // Sorting by (key, first-seen rank) puts each key's first-seen group first.
    std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>> keyed;
    keyed.reserve(distinct);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].count != 0) {
            keyed.emplace_back(state_key_of(proto, slots[i].state), slots[i].first_seen, i);
        }
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<std::pair<State, std::uint64_t>> census;
    census.reserve(keyed.size());
    for (std::size_t k = 0; k < keyed.size(); ++k) {
        const Slot& slot = slots[std::get<2>(keyed[k])];
        if (k > 0 && std::get<0>(keyed[k]) == std::get<0>(keyed[k - 1])) {
            census.back().second += slot.count;
        } else {
            census.emplace_back(State{}, slot.count);
            std::memcpy(&census.back().first, &slot.state, sizeof(State));
        }
    }
    return census;
}

}  // namespace ppsim
