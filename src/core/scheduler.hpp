/// \file scheduler.hpp
/// \brief Interaction schedulers: the uniformly random scheduler of the
/// population-protocol model, plus deterministic replay schedules for tests.
///
/// In the model of Sudo et al. (PODC 2019), at each step the scheduler Γ
/// selects an ordered pair of distinct agents (u, v) uniformly at random:
/// u is the *initiator*, v the *responder*. The initiator/responder asymmetry
/// is load-bearing — PLL uses the role of an agent in an interaction as a
/// fair coin flip — so the scheduler must produce each of the n(n−1) ordered
/// pairs with equal probability.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common.hpp"
#include "random.hpp"

namespace ppsim {

/// One scheduled interaction: an ordered pair (initiator, responder).
struct Interaction {
    AgentId initiator = invalid_agent;
    AgentId responder = invalid_agent;

    friend constexpr bool operator==(const Interaction&, const Interaction&) = default;
};

/// The uniformly random scheduler Γ. Stateless apart from its PRNG stream;
/// next() draws an ordered pair of distinct agents uniformly at random.
class UniformScheduler {
public:
    /// \param n     population size, in [2, max_agent_population]
    /// \param seed  PRNG seed; equal seeds produce identical schedules
    UniformScheduler(std::size_t n, std::uint64_t seed) : rng_(seed) {
        set_population_size(n);
    }

    /// Draws the next interaction: one unbiased draw r = ⌊x·n(n−1) / 2^64⌋
    /// in [0, n(n−1)) (Lemire's method, accepted word x) indexes the ordered
    /// pair: the quotient ⌊r / (n−1)⌋ picks the initiator and the remainder
    /// the responder among the other n−1 agents, so both orderings of each
    /// pair are equally likely. Since ⌊⌊y⌋ / m⌋ = ⌊y / m⌋ for every integer
    /// m ≥ 1, the quotient is ⌊x·n / 2^64⌋, the high half of one more
    /// multiply, and the remainder is r minus the quotient times n−1: the
    /// same pair as dividing, without a division. The skip over the
    /// initiator is an add, not a branch, and the call is inlined whatever
    /// the caller's inlining budget.
    [[nodiscard]] [[gnu::always_inline]] Interaction next() noexcept {
        const LemireDraw r = lemire_draw(rng_, ordered_pairs_);
        const auto a = static_cast<AgentId>(
            (static_cast<unsigned __int128>(r.word) * static_cast<unsigned __int128>(n_)) >> 64U);
        auto b = static_cast<AgentId>(r.value - a * (n_ - 1));
        b += static_cast<AgentId>(b >= a);
        return Interaction{a, b};
    }

    [[nodiscard]] std::size_t population_size() const noexcept { return n_; }

    /// Re-targets the scheduler after the population changed size (crash,
    /// rejoin, restore), within the constructor's bounds. The PRNG stream
    /// continues uninterrupted, which keeps seeded post-fault replay
    /// deterministic.
    void set_population_size(std::size_t n) {
        require(n >= 2, "population must contain at least two agents");
        require(n <= max_agent_population,
                "a population of agents holds at most 2^32 - 1 agents");
        n_ = n;
        ordered_pairs_ = static_cast<std::uint64_t>(n_) * (n_ - 1);
    }

    /// Access to the underlying generator, e.g. to fork auxiliary streams.
    [[nodiscard]] Rng& rng() noexcept { return rng_; }
    [[nodiscard]] const Rng& rng() const noexcept { return rng_; }

private:
    std::size_t n_ = 0;
    std::uint64_t ordered_pairs_ = 0;  ///< n(n−1); below 2^64 since n < 2^32
    Rng rng_;
};

/// A deterministic schedule: a finite, replayable sequence of interactions.
/// Corresponds to the paper's lowercase γ = γ0, γ1, …; used by unit tests to
/// drive hand-constructed executions and by the engine's record/replay mode.
class RecordedSchedule {
public:
    RecordedSchedule() = default;

    explicit RecordedSchedule(std::vector<Interaction> interactions)
        : interactions_(std::move(interactions)) {}

    /// Appends one interaction to the schedule.
    void append(Interaction interaction) { interactions_.push_back(interaction); }

    /// Appends the ordered pair (initiator, responder).
    void append(AgentId initiator, AgentId responder) {
        interactions_.push_back(Interaction{initiator, responder});
    }

    [[nodiscard]] std::size_t size() const noexcept { return interactions_.size(); }
    [[nodiscard]] bool empty() const noexcept { return interactions_.empty(); }

    [[nodiscard]] const Interaction& operator[](std::size_t i) const noexcept {
        return interactions_[i];
    }

    [[nodiscard]] std::span<const Interaction> view() const noexcept {
        return interactions_;
    }

    /// Validates every pair against a population size; throws on out-of-range
    /// agent ids or self-interactions.
    void validate(std::size_t n) const {
        for (std::size_t i = 0; i < interactions_.size(); ++i) {
            const auto& [u, v] = interactions_[i];
            require(u < n && v < n,
                    "schedule step " + std::to_string(i) + " references agent out of range");
            require(u != v, "schedule step " + std::to_string(i) + " is a self-interaction");
        }
    }

private:
    std::vector<Interaction> interactions_;
};

/// A scheduler adaptor that records every interaction it forwards, so a
/// random run can later be replayed exactly (determinism tests, debugging).
template <typename Inner>
class RecordingScheduler {
public:
    explicit RecordingScheduler(Inner inner) : inner_(std::move(inner)) {}

    [[nodiscard]] Interaction next() {
        Interaction i = inner_.next();
        record_.append(i);
        return i;
    }

    [[nodiscard]] const RecordedSchedule& record() const noexcept { return record_; }

private:
    Inner inner_;
    RecordedSchedule record_;
};

}  // namespace ppsim
