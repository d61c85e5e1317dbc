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
    /// \param n     population size (must be ≥ 2: an interaction needs two agents)
    /// \param seed  PRNG seed; equal seeds produce identical schedules
    UniformScheduler(std::size_t n, std::uint64_t seed)
        : n_(n), rng_(seed) {
        require(n >= 2, "population must contain at least two agents");
        // n(n−1) fits in 64 bits whenever n ≤ 2^32 (always true: agent ids
        // are 32-bit), enabling the single-draw fast path in next().
        if (n_ <= (std::uint64_t{1} << 32U)) {
            ordered_pairs_ = static_cast<std::uint64_t>(n_) * (n_ - 1);
        }
    }

    /// Draws the next interaction. Both orderings of each unordered pair are
    /// equally likely, as the model requires.
    [[nodiscard]] Interaction next() noexcept {
        if (ordered_pairs_ != 0) {
            // Fast path: one unbiased draw in [0, n(n−1)) indexes the ordered
            // pair directly — quotient picks the initiator, remainder the
            // responder's offset among the other n−1 agents.
            const std::uint64_t r = uniform_below(rng_, ordered_pairs_);
            const auto a = static_cast<AgentId>(r / (n_ - 1));
            auto b = static_cast<AgentId>(r % (n_ - 1));
            if (b >= a) ++b;
            return Interaction{a, b};
        }
        const auto a = static_cast<AgentId>(uniform_below(rng_, n_));
        // Sample the responder from the remaining n−1 agents without bias by
        // drawing in [0, n−1) and skipping over the initiator's index.
        auto b = static_cast<AgentId>(uniform_below(rng_, n_ - 1));
        if (b >= a) ++b;
        return Interaction{a, b};
    }

    [[nodiscard]] std::size_t population_size() const noexcept { return n_; }

    /// Re-targets the scheduler after the population changed size (fault
    /// injection: crash/rejoin). Accepts any n ≥ 1 — the engine guards its
    /// stepping paths so next() is never called while n < 2. The PRNG
    /// stream continues uninterrupted, which is what keeps seeded
    /// post-fault replay deterministic.
    void set_population_size(std::size_t n) {
        require(n >= 1, "population cannot be empty");
        n_ = n;
        ordered_pairs_ = 0;
        if (n_ >= 2 && n_ <= (std::uint64_t{1} << 32U)) {
            ordered_pairs_ = static_cast<std::uint64_t>(n_) * (n_ - 1);
        }
    }

    /// Access to the underlying generator, e.g. to fork auxiliary streams.
    [[nodiscard]] Rng& rng() noexcept { return rng_; }
    [[nodiscard]] const Rng& rng() const noexcept { return rng_; }

private:
    std::size_t n_;
    std::uint64_t ordered_pairs_ = 0;  ///< n(n−1) when it fits in 64 bits, else 0
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
