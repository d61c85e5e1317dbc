/// \file common.hpp
/// \brief Fundamental types and small utilities shared across the library.
///
/// Part of ppsim, a population-protocol simulation library reproducing
/// Sudo et al., "Logarithmic Expected-Time Leader Election in Population
/// Protocol Model" (PODC 2019).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <optional>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace ppsim {

/// Index of an agent within a population. A population holds at most
/// `max_agent_population` agents, but step counts are unbounded, so steps
/// use 64 bits.
using AgentId = std::uint32_t;

/// A count of interactions (steps). One unit of *parallel time* equals
/// `n` steps, where `n` is the population size.
using StepCount = std::uint64_t;

/// Sentinel for "no agent".
inline constexpr AgentId invalid_agent = std::numeric_limits<AgentId>::max();

/// The largest population of individually stored agents (`Population`, so
/// the agent engine and the hybrid engine's agent mode): every id must fit
/// `AgentId` and differ from `invalid_agent`, which leaves 2^32 − 1 agents.
inline constexpr std::uint64_t max_agent_population = invalid_agent;

/// The output alphabet of a leader-election protocol (the set `Y` of the
/// paper's protocol tuple restricted to the leader-election problem).
enum class Role : std::uint8_t {
    follower = 0,  ///< output symbol `F`
    leader = 1,    ///< output symbol `L`
};

/// Human-readable name of a role.
[[nodiscard]] constexpr std::string_view to_string(Role r) noexcept {
    return r == Role::leader ? "leader" : "follower";
}

/// Exception type for violated preconditions in public API entry points.
class InvalidArgument : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

/// Exception type for violated internal invariants (bugs, not user errors).
class InvariantViolation : public std::logic_error {
public:
    using std::logic_error::logic_error;
};

/// Throws InvalidArgument with `message` alone when `cond` is false. Used
/// to validate user-facing API preconditions; never compiled out. The
/// message is the caller's error as users read it, so it names no source
/// location.
inline void require(bool cond, const std::string& message) {
    if (!cond) throw InvalidArgument(message);
}

/// Throws InvariantViolation when `cond` is false. Checks internal
/// invariants that indicate a library bug rather than user error; the
/// message starts with the source file's name (no directory) and line.
inline void ensure(bool cond, const std::string& message,
                   std::source_location loc = std::source_location::current()) {
    if (!cond) {
        const std::string_view path = loc.file_name();
        throw InvariantViolation(std::string(path.substr(path.find_last_of('/') + 1)) + ":" +
                                 std::to_string(loc.line()) + ": " + message);
    }
}

/// Converts a step count to parallel time for a population of size n.
/// Parallel time is the paper's unit of time: steps divided by n.
[[nodiscard]] constexpr double to_parallel_time(StepCount steps, std::size_t n) noexcept {
    return n == 0 ? 0.0 : static_cast<double>(steps) / static_cast<double>(n);
}

/// ceil(log2(x)) for x >= 1; 0 for x <= 1.
[[nodiscard]] constexpr unsigned ceil_log2(std::uint64_t x) noexcept {
    if (x <= 1) return 0;
    unsigned bits = 0;
    std::uint64_t v = x - 1;
    while (v > 0) {
        v >>= 1U;
        ++bits;
    }
    return bits;
}

/// floor(log2(x)) for x >= 1; 0 for x == 0.
[[nodiscard]] constexpr unsigned floor_log2(std::uint64_t x) noexcept {
    unsigned bits = 0;
    while (x > 1) {
        x >>= 1U;
        ++bits;
    }
    return bits;
}

/// Converts a model-time point (parallel-time units) to the absolute step
/// index at which it occurs for a population of size n: step = ceil(t * n).
/// Model time T is the paper's parallel time — T units equal T*n steps —
/// and both the deadline observers and the fault-injection plans anchor
/// their triggers at exactly this step on every engine. Saturates to the
/// maximum step count for times beyond the representable range.
[[nodiscard]] inline StepCount model_time_to_step(double time, std::size_t n) {
    require(time >= 0.0, "model time must be non-negative");
    const double steps = std::ceil(time * static_cast<double>(n));
    if (steps >= 1.8e19) return std::numeric_limits<StepCount>::max();
    return static_cast<StepCount>(steps);
}

/// Parses the whole of `token` as an unsigned decimal integer: no sign, no
/// whitespace, no trailing characters, no overflow. Returns nullopt
/// otherwise, so "64x" or "-1" can never silently become 64 or 2^64 − 1.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(std::string_view token) noexcept {
    std::uint64_t value = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

/// Parses the whole of `token` as a finite decimal floating-point number
/// (no whitespace, no trailing characters). Returns nullopt otherwise.
[[nodiscard]] inline std::optional<double> parse_double(std::string_view token) noexcept {
    double value = 0.0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return std::nullopt;
    return value;
}

/// Library version, reported by tools and embedded in result artefacts.
inline constexpr std::string_view library_version = "1.0.0";

}  // namespace ppsim
