/// \file engine.hpp
/// \brief The simulation engine: applies scheduled interactions to a
/// population and tracks convergence incrementally.
///
/// The engine is templated on the protocol, so a transition function
/// defined in its header is inlined into the interaction loop (tens of
/// millions of interactions per second). `pll` and `pll_symmetric` define
/// theirs in their .cpp files, so each of their interactions pays one
/// out-of-line call (`Pll::interact` in pll.cpp says why). Leader counts
/// are maintained incrementally by re-evaluating the output map only for
/// the two agents touched by each interaction.
///
/// Stabilisation semantics: for every protocol in this library, "exactly one
/// leader" is an *absorbing* predicate — followers never become leaders and
/// no transition eliminates the last leader (the paper proves this for PLL
/// module by module; the baselines satisfy it by construction). The engine
/// therefore reports the first step at which the leader count reaches one as
/// the stabilisation step. Tests additionally run long post-convergence
/// suffixes through `verify_outputs_stable` to validate the certificates.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint_io.hpp"
#include "common.hpp"
#include "fault.hpp"
#include "population.hpp"
#include "protocol.hpp"
#include "scheduler.hpp"

namespace ppsim {

/// Which simulation back-end to run an election on. `agent` is the exact
/// per-interaction Engine<P>; `batched` is the count-based BatchedEngine<P>
/// — equal in distribution for protocols whose single-leader predicate is
/// absorbing (every election protocol here except the loosely-stabilising
/// baseline, whose transient one-leader visits the batched engine only
/// observes at batch granularity) and orders of magnitude faster at large n.
/// `gillespie` is the reaction-rate GillespieEngine<P>: exact SSA over
/// non-null reaction channels (geometric null-reaction skipping) with a
/// τ-leaping fast path at large n — exact below its leap threshold,
/// approximate above it, with a measured per-agent variance bias
/// (gillespie_engine.hpp, `leap_divisor`). `hybrid` is the adaptive
/// HybridEngine<P>, which runs the agent or the gillespie engine per phase
/// of a run by a fixed rule over n and the census (hybrid_engine.hpp).
enum class EngineKind : std::uint8_t {
    agent = 0,
    batched = 1,
    gillespie = 2,
    hybrid = 3,
};

/// One row of the engine table: the kind, its registry/CLI name, and a
/// one-line summary for help text.
struct EngineDescriptor {
    EngineKind kind;
    std::string_view name;
    std::string_view summary;
};

/// The single source of truth for the engine list. `to_string`,
/// `parse_engine_kind` and every CLI help string derive from this table, so
/// adding an engine is a one-row change that cannot desync them.
inline constexpr std::array<EngineDescriptor, 4> engine_table{{
    {EngineKind::agent, "agent", "exact per-interaction simulation of every agent"},
    {EngineKind::batched, "batched",
     "count-based batch simulation, sub-constant time per interaction at large n"},
    {EngineKind::gillespie, "gillespie",
     "reaction-rate SSA with null-reaction skipping and tau-leaping at large n"},
    {EngineKind::hybrid, "hybrid",
     "adaptive meta-engine: switches between agent and gillespie per phase"},
}};

/// Registry/CLI name of an engine kind.
[[nodiscard]] constexpr std::string_view to_string(EngineKind kind) noexcept {
    for (const EngineDescriptor& d : engine_table) {
        if (d.kind == kind) return d.name;
    }
    return "unknown";
}

/// The engine names joined as "agent | batched | gillespie", for usage
/// strings.
[[nodiscard]] inline std::string engine_kind_list(std::string_view separator = " | ") {
    std::string out;
    for (const EngineDescriptor& d : engine_table) {
        if (!out.empty()) out += separator;
        out += d.name;
    }
    return out;
}

/// Parses an engine name from the engine table; throws on anything else.
/// The error enumerates every valid engine with its one-line summary, so
/// the CLI's `--engine` diagnostics can never desync from the table.
[[nodiscard]] inline EngineKind parse_engine_kind(std::string_view name) {
    for (const EngineDescriptor& d : engine_table) {
        if (d.name == name) return d.kind;
    }
    std::string message = "unknown engine: '" + std::string(name) + "'; valid engines:";
    for (const EngineDescriptor& d : engine_table) {
        message += "\n  ";
        message += d.name;
        message += " — ";
        message += d.summary;
    }
    throw InvalidArgument(message);
}

/// Outcome of a bounded engine run.
struct RunResult {
    bool converged = false;        ///< reached the target predicate within the budget
    StepCount steps = 0;           ///< total steps executed by this engine so far
    double parallel_time = 0.0;    ///< steps / n
    std::size_t leader_count = 0;  ///< leaders at the end of the run
    /// First step index t such that after interaction t the population had
    /// exactly one leader; unset if that never happened.
    std::optional<StepCount> stabilization_step;

    /// Stabilisation time in parallel-time units (steps / n); NaN if the run
    /// never reached a single leader.
    [[nodiscard]] double stabilization_parallel_time(std::size_t n) const noexcept {
        if (!stabilization_step) return std::numeric_limits<double>::quiet_NaN();
        return to_parallel_time(*stabilization_step, n);
    }
};

/// Simulation engine for a statically-typed protocol.
template <Protocol P>
class Engine {
public:
    using State = typename P::State;

    /// Creates an engine over a fresh population of `n` agents in the
    /// protocol's initial state, with an internal uniformly random scheduler.
    Engine(P protocol, std::size_t n, std::uint64_t seed)
        : protocol_(std::move(protocol)),
          population_(n, protocol_.initial_state()),
          scheduler_(n, seed),
          fault_rng_(derive_seed(seed, fault_stream_tag)) {
        recount_leaders();
    }

    // --- observation ------------------------------------------------------

    [[nodiscard]] std::size_t population_size() const noexcept { return population_.size(); }
    [[nodiscard]] StepCount steps() const noexcept { return steps_; }
    [[nodiscard]] double parallel_time() const noexcept {
        return to_parallel_time(steps_, population_.size());
    }
    [[nodiscard]] std::size_t leader_count() const noexcept { return leader_count_; }
    [[nodiscard]] const Population<State>& population() const noexcept { return population_; }
    [[nodiscard]] Population<State>& population() noexcept { return population_; }
    [[nodiscard]] const P& protocol() const noexcept { return protocol_; }
    [[nodiscard]] std::optional<StepCount> stabilization_step() const noexcept {
        return first_single_leader_step_;
    }

    /// Role of a single agent under the protocol's output map.
    [[nodiscard]] Role role_of(AgentId id) const noexcept {
        return protocol_.output(population_[id]);
    }

    // --- execution --------------------------------------------------------

    /// Executes one interaction drawn from the internal random scheduler and
    /// returns the pair that interacted.
    Interaction step() {
        const Interaction interaction = scheduler_.next();
        apply(interaction);
        return interaction;
    }

    /// Applies one specific interaction (replay / hand-driven tests).
    void apply(Interaction interaction) {
        auto& a = population_[interaction.initiator];
        auto& b = population_[interaction.responder];
        const int before = roles_as_int(a, b);
        protocol_.interact(a, b);
        const int after = roles_as_int(a, b);
        leader_count_ =
            static_cast<std::size_t>(static_cast<long long>(leader_count_) + after - before);
        ++steps_;
        if (leader_count_ == 1 && !first_single_leader_step_) {
            first_single_leader_step_ = steps_;
        }
    }

    /// Applies every interaction of a recorded schedule in order.
    void apply(const RecordedSchedule& schedule) {
        for (const Interaction& interaction : schedule.view()) apply(interaction);
    }

    /// Runs until exactly one leader remains or `max_steps` further steps
    /// have been executed, whichever comes first. Specialised hot loop: the
    /// incrementally-maintained leader count is read directly, with no
    /// predicate callback and no re-evaluation before the first step.
    RunResult run_until_one_leader(StepCount max_steps) {
        StepCount executed = 0;
        while (leader_count_ != 1 && executed < max_steps) {
            step();
            ++executed;
        }
        return make_result(leader_count_ == 1);
    }

    /// Runs until `done(*this)` holds or the step budget is exhausted.
    template <typename DonePredicate>
    RunResult run_until(StepCount max_steps, DonePredicate done) {
        StepCount executed = 0;
        bool reached = done(*this);
        while (!reached && executed < max_steps) {
            step();
            ++executed;
            reached = done(*this);
        }
        return make_result(reached);
    }

    /// Runs exactly `count` steps (or fewer if you compose with run_until).
    RunResult run_for(StepCount count) {
        for (StepCount i = 0; i < count; ++i) step();
        return make_result(leader_count_ == 1);
    }

    /// Runs `count` additional steps and reports whether any agent's *output*
    /// changed during them. Used to validate that a detected stabilisation
    /// point really is absorbing.
    [[nodiscard]] bool verify_outputs_stable(StepCount count) {
        const std::size_t leaders_before = leader_count_;
        bool changed = false;
        for (StepCount i = 0; i < count; ++i) {
            const Interaction interaction = scheduler_.next();
            const Role a_before = role_of(interaction.initiator);
            const Role b_before = role_of(interaction.responder);
            apply(interaction);
            if (role_of(interaction.initiator) != a_before ||
                role_of(interaction.responder) != b_before) {
                changed = true;
            }
        }
        return !changed && leader_count_ == leaders_before;
    }

    // --- fault injection ---------------------------------------------------

    /// Applies one crash/rejoin/reset fault between steps (the run layer
    /// slices chunks at fault steps, so this never lands mid-interaction).
    /// All randomness comes from the dedicated fault stream; the scheduler's
    /// stream is untouched, so the post-fault schedule is a deterministic
    /// function of (seed, plan). Silence is a run-layer concern and is never
    /// forwarded here. After the mutation the single-leader detection is
    /// re-anchored: the run layer's stabilisation step becomes the first
    /// step at which the *post-fault* configuration has exactly one leader.
    void apply_fault(const FaultAction& action) {
        require(action.kind != FaultKind::silence,
                "silence is applied by the run layer, not the engine");
        const std::size_t n = population_.size();
        switch (action.kind) {
            case FaultKind::crash: {
                const std::uint64_t k = resolve_fault_count(action, n);
                for (std::uint64_t i = 0; i < k; ++i) {
                    const auto victim = static_cast<AgentId>(
                        uniform_below(fault_rng_, population_.size()));
                    if (protocol_.output(population_[victim]) == Role::leader) {
                        --leader_count_;
                    }
                    population_.remove_swap(victim);
                }
                scheduler_.set_population_size(population_.size());
                break;
            }
            case FaultKind::rejoin: {
                const State fresh = protocol_.initial_state();
                population_.append(fresh, action.count);
                if (protocol_.output(fresh) == Role::leader) {
                    leader_count_ += action.count;
                }
                scheduler_.set_population_size(population_.size());
                break;
            }
            case FaultKind::reset: {
                const std::uint64_t k = resolve_fault_count(action, n);
                // Partial Fisher–Yates picks k distinct victims uniformly.
                std::vector<AgentId> ids(n);
                std::iota(ids.begin(), ids.end(), AgentId{0});
                const State fresh = protocol_.initial_state();
                const bool fresh_leads = protocol_.output(fresh) == Role::leader;
                for (std::uint64_t i = 0; i < k; ++i) {
                    const std::uint64_t j =
                        i + uniform_below(fault_rng_, static_cast<std::uint64_t>(n) - i);
                    std::swap(ids[i], ids[j]);
                    State& victim = population_[ids[i]];
                    const bool led = protocol_.output(victim) == Role::leader;
                    leader_count_ = static_cast<std::size_t>(
                        static_cast<long long>(leader_count_) +
                        static_cast<int>(fresh_leads) - static_cast<int>(led));
                    victim = fresh;
                }
                break;
            }
            case FaultKind::silence: break;  // unreachable (guarded above)
        }
        first_single_leader_step_ = leader_count_ == 1
                                        ? std::optional<StepCount>(steps_)
                                        : std::nullopt;
    }

    /// Advances the step counter through a rate-zero silence window: the
    /// scheduler ticks `count` times with no pair reacting. Consumes no
    /// randomness, so the post-window schedule stream is unperturbed.
    void advance_silent(StepCount count) noexcept { steps_ += count; }

    /// Adopts a configuration handed over by another engine (the hybrid
    /// meta-engine's mid-run switch, hybrid_engine.hpp): lays the census out
    /// over the population in the given order (identities are irrelevant
    /// under the uniform scheduler), and carries the step counter and
    /// stabilisation step across so observers see one continuous run. The
    /// census must conserve this engine's population size. The scheduler and
    /// fault streams keep the seed this engine was built with —
    /// the handoff contract assigns each hybrid segment its own stream.
    void adopt_census(const std::vector<std::pair<State, std::uint64_t>>& census,
                      StepCount steps, std::optional<StepCount> stabilization_step) {
        auto states = population_.states();
        std::size_t i = 0;
        for (const auto& [state, count] : census) {
            require(count <= states.size() - i, "census overfills the population");
            for (std::uint64_t k = 0; k < count; ++k) states[i++] = state;
        }
        require(i == states.size(), "census does not conserve the population");
        steps_ = steps;
        first_single_leader_step_ = stabilization_step;
        recount_leaders();
    }

    /// Recomputes the leader count from scratch (O(n)); the engine keeps the
    /// count incrementally, so this exists for tests and defensive checks.
    std::size_t recount_leaders() {
        leader_count_ = population_.count_if(
            [this](const State& s) { return protocol_.output(s) == Role::leader; });
        return leader_count_;
    }

    // --- checkpointing ------------------------------------------------------

    /// Serialises the engine's complete replay-relevant state: the raw agent
    /// states, both PRNG stream positions (scheduler, fault), and
    /// the step/leader/stabilisation counters. The streams are private by
    /// design, so this is a member rather than an external walker.
    void save_state(CheckpointWriter& w) const {
        static_assert(std::is_trivially_copyable_v<State>);
        w.u64(population_.size());
        w.raw(population_.states().data(), population_.size() * sizeof(State));
        w.pod(scheduler_.rng().state());
        w.pod(fault_rng_.state());
        w.u64(steps_);
        w.u64(leader_count_);
        w.opt_u64(first_single_leader_step_);
    }

    /// Restores a `save_state` payload. The engine must have been built with
    /// the same protocol; the population is resized if faults changed n.
    void restore_state(CheckpointReader& r) {
        const std::uint64_t n = r.u64();
        require(n >= 2, "checkpointed population holds fewer than two agents");
        // Resize in place: append checks the ceiling before it allocates.
        while (population_.size() > n) population_.remove_swap(0);
        if (population_.size() < n) {
            population_.append(protocol_.initial_state(), n - population_.size());
        }
        scheduler_.set_population_size(n);
        r.raw(population_.states().data(), population_.size() * sizeof(State));
        scheduler_.rng().set_state(r.pod<std::array<std::uint64_t, 4>>());
        fault_rng_.set_state(r.pod<std::array<std::uint64_t, 4>>());
        steps_ = r.u64();
        leader_count_ = r.u64();
        first_single_leader_step_ = r.opt_u64();
    }

private:
    [[nodiscard]] int roles_as_int(const State& a, const State& b) const noexcept {
        return static_cast<int>(protocol_.output(a) == Role::leader) +
               static_cast<int>(protocol_.output(b) == Role::leader);
    }

    [[nodiscard]] RunResult make_result(bool converged) const noexcept {
        RunResult r;
        r.converged = converged;
        r.steps = steps_;
        r.parallel_time = to_parallel_time(steps_, population_.size());
        r.leader_count = leader_count_;
        r.stabilization_step = first_single_leader_step_;
        return r;
    }

    P protocol_;
    Population<State> population_;
    UniformScheduler scheduler_;
    Rng fault_rng_;  ///< fault-surgery stream (only drawn from by apply_fault)
    StepCount steps_ = 0;
    std::size_t leader_count_ = 0;
    std::optional<StepCount> first_single_leader_step_;
};

/// Convenience: simulate protocol `proto` on `n` agents with `seed` until one
/// leader remains or the budget runs out, and return the result.
template <Protocol P>
[[nodiscard]] RunResult simulate_to_single_leader(P proto, std::size_t n, std::uint64_t seed,
                                                  StepCount max_steps) {
    Engine<P> engine(std::move(proto), n, seed);
    return engine.run_until_one_leader(max_steps);
}

}  // namespace ppsim
