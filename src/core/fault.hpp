/// \file fault.hpp
/// \brief Fault-injection plans: model-time-triggered crash / rejoin /
/// reset / silence actions applied exactly and deterministically by every
/// engine.
///
/// The paper's protocols are interesting precisely where things go wrong —
/// the loosely-stabilizing line (loose_sud12) and the companion lower bound
/// are about *re*-electing after disruption. A `FaultPlan` is an ordered
/// list of `{model time, action}` pairs; the run layer
/// (src/core/simulation.hpp) slices the step budget at each fault's step
/// (step = ⌈t·n₀⌉, the same anchoring as DeadlineObserver) and hands the
/// action to the engine between chunks, so a fault at model time T lands
/// after *exactly* ⌈T·n₀⌉ interactions on every engine — agent, batched
/// and gillespie alike.
///
/// Action semantics (n = current population, n₀ = population at plan
/// attach time; fractions resolve against the *current* n):
///
///  * `crash(fraction|count)` — remove k uniformly random agents, leaving
///    at least two. The population shrinks; parallel-time conversion and
///    protocol parameters stay anchored at n₀ (docs/ARCHITECTURE.md).
///  * `rejoin(count)` — inject k fresh agents in the protocol's initial
///    state (new contenders: for an election this reopens the race).
///  * `reset(fraction|count)` — adversarial corruption: k uniformly random
///    agents are overwritten with the initial state. Population unchanged.
///  * `silence(duration)` — a rate-zero window: for ⌈duration·n₀⌉ steps
///    the scheduler ticks (steps advance, observers fire) but no pair
///    reacts. Handled by the run layer; engines never see it.
///
/// Determinism: every engine owns a dedicated `fault_rng_` stream (seeded
/// `derive_seed(seed, fault_stream_tag)` at construction), so fault
/// randomness never perturbs the main schedule stream — no-fault runs keep
/// bit-identical golden-seed streams, and the same seed + plan replays the
/// same post-fault stream on each engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.hpp"

namespace ppsim {

/// The four fault actions of the scenario engine.
enum class FaultKind : std::uint8_t {
    crash = 0,    ///< remove agents uniformly at random
    rejoin = 1,   ///< inject fresh agents in the initial state
    reset = 2,    ///< overwrite random agents with the initial state
    silence = 3,  ///< rate-zero window: steps tick, nothing reacts
};

[[nodiscard]] constexpr std::string_view to_string(FaultKind kind) noexcept {
    switch (kind) {
        case FaultKind::crash: return "crash";
        case FaultKind::rejoin: return "rejoin";
        case FaultKind::reset: return "reset";
        case FaultKind::silence: return "silence";
    }
    return "unknown";
}

/// One fault action. `count > 0` selects an absolute number of agents;
/// otherwise `fraction` of the *current* population (rounded to nearest,
/// at least one agent). `duration` is only meaningful for silence.
struct FaultAction {
    FaultKind kind = FaultKind::crash;
    double fraction = 0.0;     ///< fraction of the current population (crash/reset)
    std::uint64_t count = 0;   ///< absolute agent count (crash/rejoin/reset)
    double duration = 0.0;     ///< silence window length, parallel-time units

    [[nodiscard]] static FaultAction crash_fraction(double f) {
        return FaultAction{FaultKind::crash, f, 0, 0.0};
    }
    [[nodiscard]] static FaultAction crash_count(std::uint64_t k) {
        return FaultAction{FaultKind::crash, 0.0, k, 0.0};
    }
    [[nodiscard]] static FaultAction rejoin_count(std::uint64_t k) {
        return FaultAction{FaultKind::rejoin, 0.0, k, 0.0};
    }
    [[nodiscard]] static FaultAction reset_fraction(double f) {
        return FaultAction{FaultKind::reset, f, 0, 0.0};
    }
    [[nodiscard]] static FaultAction reset_count(std::uint64_t k) {
        return FaultAction{FaultKind::reset, 0.0, k, 0.0};
    }
    [[nodiscard]] static FaultAction transient_silence(double duration) {
        return FaultAction{FaultKind::silence, 0.0, 0, duration};
    }
};

/// A fault at a model-time point (parallel-time units, anchored at the
/// population size when the plan is attached).
struct TimedFault {
    double time = 0.0;
    FaultAction action;
};

/// An ordered fault schedule. Order of insertion breaks ties at equal
/// times (the run layer stable-sorts by step).
struct FaultPlan {
    std::vector<TimedFault> faults;

    [[nodiscard]] bool empty() const noexcept { return faults.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return faults.size(); }

    FaultPlan& add(double time, FaultAction action) {
        faults.push_back(TimedFault{time, std::move(action)});
        return *this;
    }
};

/// Validates one action's parameters (throws InvalidArgument). Shared by
/// the CLI parser and `Simulation::set_fault_plan`.
inline void validate_fault_action(const FaultAction& a) {
    switch (a.kind) {
        case FaultKind::crash:
        case FaultKind::reset:
            require(a.count > 0 || (a.fraction > 0.0 && a.fraction <= 1.0),
                    std::string(to_string(a.kind)) +
                        " needs a count >= 1 or a fraction in (0, 1]");
            break;
        case FaultKind::rejoin:
            require(a.count > 0, "rejoin needs a count >= 1");
            break;
        case FaultKind::silence:
            require(a.duration > 0.0, "silence needs a positive duration");
            break;
    }
}

/// The number of agents an action touches at the current population n ≥ 2.
/// Absolute counts pass through; fractions round to nearest, at least one
/// agent. A crash removes at most n − 2, since the model schedules pairs of
/// distinct agents (at n = 2 it removes no one); a reset touches at most n.
[[nodiscard]] inline std::uint64_t resolve_fault_count(const FaultAction& a,
                                                       std::uint64_t population) {
    const double exact = a.fraction * static_cast<double>(population);
    const std::uint64_t k =
        a.count > 0 ? a.count
                    : std::max<std::uint64_t>(static_cast<std::uint64_t>(exact + 0.5), 1);
    if (a.kind == FaultKind::crash) return std::min(k, population - 2);
    return a.kind == FaultKind::reset ? std::min(k, population) : k;
}

/// Parses one `--inject` specification:
///
///     t=<time>:crash=<fraction|count>
///     t=<time>:rejoin=<count>
///     t=<time>:reset=<fraction|count>
///     t=<time>:silence=<duration>
///
/// A value containing '.' or an exponent is a fraction (crash/reset) or a
/// duration (silence); a plain integer is an absolute agent count. Throws
/// InvalidArgument on malformed specs.
[[nodiscard]] inline TimedFault parse_fault_spec(const std::string& spec) {
    const auto fail = [&spec](const std::string& why) -> TimedFault {
        throw InvalidArgument("bad fault spec '" + spec + "': " + why +
                              " (expected t=<time>:crash|rejoin|reset|silence=<value>)");
    };
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) return fail("missing ':'");
    const std::string time_part = spec.substr(0, colon);
    const std::string action_part = spec.substr(colon + 1);
    if (time_part.rfind("t=", 0) != 0) return fail("time must be 't=<time>'");
    const std::size_t eq = action_part.find('=');
    if (eq == std::string::npos) return fail("missing '=' after the action name");
    const std::string name = action_part.substr(0, eq);
    const std::string value = action_part.substr(eq + 1);
    if (value.empty()) return fail("empty value");

    TimedFault out;
    const std::optional<double> time = parse_double(time_part.substr(2));
    if (!time) return fail("not a model-time point: '" + time_part.substr(2) + "'");
    out.time = *time;
    if (out.time < 0.0) return fail("time must be non-negative");

    const bool fractional = value.find_first_of(".eE") != std::string::npos;
    double as_double = 0.0;
    std::uint64_t as_count = 0;
    if (fractional) {
        const std::optional<double> parsed = parse_double(value);
        if (!parsed) return fail("not a numeric value: '" + value + "'");
        as_double = *parsed;
    } else {
        const std::optional<std::uint64_t> parsed = parse_u64(value);
        if (!parsed) return fail("not an unsigned count: '" + value + "'");
        as_count = *parsed;
    }

    if (name == "crash") {
        out.action = fractional ? FaultAction::crash_fraction(as_double)
                                : FaultAction::crash_count(as_count);
    } else if (name == "rejoin") {
        if (fractional) return fail("rejoin takes an absolute agent count");
        out.action = FaultAction::rejoin_count(as_count);
    } else if (name == "reset") {
        out.action = fractional ? FaultAction::reset_fraction(as_double)
                                : FaultAction::reset_count(as_count);
    } else if (name == "silence") {
        out.action = FaultAction::transient_silence(
            fractional ? as_double : static_cast<double>(as_count));
    } else {
        return fail("unknown action '" + name + "'");
    }
    validate_fault_action(out.action);
    return out;
}

/// PRNG stream tag of the per-engine fault stream ("faul"): engines seed
/// `fault_rng_` with `derive_seed(seed, fault_stream_tag)` at construction
/// so fault randomness never touches the main schedule stream.
inline constexpr std::uint64_t fault_stream_tag = 0x6661756cULL;

}  // namespace ppsim
