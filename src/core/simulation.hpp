/// \file simulation.hpp
/// \brief The type-erased run layer: one `Simulation` interface over every
/// back-end (the per-interaction `Engine<P>`, the count-based
/// `BatchedEngine<P>`, the reaction-rate `GillespieEngine<P>` and the
/// adaptive `HybridEngine<P>`), plus the observer hook that lets trajectory recorders and convergence monitors
/// watch any run without entering the per-interaction hot loop.
///
/// Everything above the engines — the registry, the experiment driver, the
/// CLI, the benches — speaks this interface. The engines themselves stay
/// statically typed: one adapter template holds the concrete engine by value
/// and the virtual dispatch sits at *chunk* granularity (one call per run,
/// or one per observer deadline), never per interaction, so registry-level
/// runs keep the templated engines' throughput.
///
/// Observer semantics: an observer declares the absolute step index at which
/// it next wants to look (`next_due`). The run layer slices the step budget
/// at the earliest deadline across observers, advances the engine with its
/// native specialised loop, and notifies every observer at the boundary. On
/// the count engines a boundary merely clamps a batch or a leap, so the
/// cadence cost is O(#states) per observation — independent of n. With no
/// observers attached, run calls delegate straight to the engine's loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batched_engine.hpp"
#include "checkpoint_io.hpp"
#include "common.hpp"
#include "engine.hpp"
#include "fault.hpp"
#include "gillespie_engine.hpp"
#include "hybrid_engine.hpp"
#include "persist.hpp"
#include "protocol.hpp"

namespace ppsim {

/// One state's share of a configuration snapshot, keyed by the protocol's
/// canonical 64-bit state key (`state_key_of` — injective on reachable
/// states, identical across engines for the same protocol).
struct StateCount {
    std::uint64_t key = 0;     ///< canonical state key
    std::uint64_t count = 0;   ///< agents currently in this state
    Role role = Role::follower;  ///< output of the state
};

/// A point-in-time census of the population by state. Obtaining one costs
/// O(#live states) on the count engines and, on the agent engine, one hashed
/// O(n) pass that computes one state key per distinct state (`census_of`,
/// population.hpp).
struct ConfigurationSnapshot {
    StepCount step = 0;              ///< interactions executed when taken
    std::vector<StateCount> counts;  ///< non-zero entries, sorted by key

    /// Total number of agents in the snapshot (= n, by conservation).
    [[nodiscard]] std::uint64_t total() const noexcept {
        std::uint64_t sum = 0;
        for (const StateCount& sc : counts) sum += sc.count;
        return sum;
    }

    /// Number of agents whose output is leader.
    [[nodiscard]] std::uint64_t leaders() const noexcept {
        std::uint64_t sum = 0;
        for (const StateCount& sc : counts) {
            if (sc.role == Role::leader) sum += sc.count;
        }
        return sum;
    }

    /// Count of the state with canonical key `key` (0 when absent).
    [[nodiscard]] std::uint64_t count_of(std::uint64_t key) const noexcept {
        for (const StateCount& sc : counts) {
            if (sc.key == key) return sc.count;
        }
        return 0;
    }
};

class Simulation;

/// Hook into a Simulation's run loop. Observers never see individual
/// interactions — they see the simulation at the step boundaries they ask
/// for, which is what keeps observation free on the engines' hot paths.
class SimulationObserver {
public:
    /// Sentinel deadline: "no scheduled observation" — the observer is then
    /// only notified at natural boundaries (run start and run end).
    static constexpr StepCount no_deadline = std::numeric_limits<StepCount>::max();

    virtual ~SimulationObserver() = default;

    /// Absolute step index at which this observer next wants `observe()`.
    /// The run layer will stop at (not after) this step. Return
    /// `no_deadline` for boundary-only observation.
    [[nodiscard]] virtual StepCount next_due() const noexcept = 0;

    /// Called at run start, at every reached deadline across all attached
    /// observers, and at run end. `sim.steps()` may be short of this
    /// observer's own deadline when another observer's came first.
    virtual void observe(const Simulation& sim) = 0;

    /// Called once at the end of each `run_until_one_leader` (predicate
    /// reached or budget exhausted), after the final `observe` — the hook
    /// for capturing the run's final configuration even off-stride. Plain
    /// `run_for`/`step` calls do not fire it: they may be composed into a
    /// larger caller-driven loop. Default: nothing extra.
    virtual void finish(const Simulation& sim) { (void)sim; }

    /// Serialises the observer's progress into a run checkpoint so a resumed
    /// run neither double-reports nor loses what was already observed (a
    /// deadline that fired must not fire again; recorded samples carry over).
    /// Paired with `restore_state`, which must read exactly what was written
    /// into a freshly constructed observer of the same type and
    /// configuration. The defaults persist nothing (stateless observers).
    virtual void save_state(CheckpointWriter& w) const { (void)w; }
    virtual void restore_state(CheckpointReader& r) { (void)r; }
};

/// Type-erased simulation run: the uniform execution and observation
/// surface over every engine. Instances are created per run (a simulation
/// owns its engine, which owns its population/counts and PRNG stream).
class Simulation {
public:
    virtual ~Simulation() = default;

    // --- observation ------------------------------------------------------

    [[nodiscard]] virtual std::size_t population_size() const noexcept = 0;
    [[nodiscard]] virtual StepCount steps() const noexcept = 0;
    [[nodiscard]] virtual std::size_t leader_count() const noexcept = 0;
    [[nodiscard]] virtual std::optional<StepCount> stabilization_step() const noexcept = 0;
    /// Which back-end this simulation runs on.
    [[nodiscard]] virtual EngineKind engine_kind() const noexcept = 0;
    /// Display name of the protocol being simulated.
    [[nodiscard]] virtual std::string protocol_name() const = 0;
    /// Number of distinct states with at least one agent. O(#states) on the
    /// count engines; on the agent engine one hashed O(n) pass with one
    /// state key per distinct state (`census_of`).
    [[nodiscard]] virtual std::size_t live_state_count() const = 0;
    /// Census of the configuration by state, at the same cost as
    /// `live_state_count`. NOTE: for the loosely-stabilising
    /// baseline the batched engine only reaches snapshot boundaries at batch
    /// granularity, so transient configurations inside a batch are not
    /// observable there (see README "Choosing an engine").
    [[nodiscard]] virtual ConfigurationSnapshot state_counts() const = 0;

    [[nodiscard]] double parallel_time() const noexcept {
        return to_parallel_time(steps(), population_size());
    }

    /// The population size the simulation was built with, which a crash or
    /// rejoin since may have moved away from `population_size()`. The
    /// protocol was built for it (PLL's m = ⌈log₂ n⌉), so checkpoint
    /// headers record it and `--resume` rebuilds the run from it.
    [[nodiscard]] std::size_t run_population() const noexcept { return run_population_; }

    // --- execution --------------------------------------------------------

    /// Executes exactly one interaction (batched: a batch clamped to 1).
    RunResult step() { return run_for(1); }

    /// Runs exactly `count` further interactions. Observers see their
    /// cadence but no `finish` (a run_for may be one slice of a larger
    /// caller-driven loop).
    RunResult run_for(StepCount count) {
        if (observers_.empty() && !driving_needed()) return run_for_impl(count);
        return run_driven(count, /*stop_at_single_leader=*/false,
                          /*notify_finish=*/false);
    }

    /// Runs until exactly one leader remains or `max_steps` further
    /// interactions have been executed, whichever comes first. When a fault
    /// plan is attached, "one leader" only terminates the run once every
    /// scheduled fault has been applied: an election that stabilises before
    /// a pending crash/reset must survive the fault (and re-stabilise) to
    /// count, so the loop keeps running until the plan is exhausted or the
    /// budget is.
    RunResult run_until_one_leader(StepCount max_steps) {
        if (observers_.empty() && !driving_needed()) {
            return run_until_one_leader_impl(max_steps);
        }
        return run_driven(max_steps, /*stop_at_single_leader=*/true,
                          /*notify_finish=*/true);
    }

    // --- fault injection --------------------------------------------------

    /// One entry of an attached fault plan, resolved to an absolute step.
    struct ScheduledFault {
        StepCount step = 0;    ///< absolute step index at which the fault fires
        double time = 0.0;     ///< the plan's model time (units of n₀)
        FaultAction action;    ///< what happens
    };

    /// Attaches a fault plan. Must be called before the first interaction:
    /// fault times are model times in units of the *initial* population n₀
    /// (fault at time t fires at step ⌈t·n₀⌉), so the conversion is anchored
    /// at attach. Faults at the same time fire in plan order.
    void set_fault_plan(const FaultPlan& plan) {
        require(steps() == 0, "fault plan must be attached before the run starts");
        fault_n0_ = population_size();
        scheduled_faults_.clear();
        fault_cursor_ = 0;
        silence_until_ = 0;
        scheduled_faults_.reserve(plan.faults.size());
        for (const TimedFault& tf : plan.faults) {
            validate_fault_action(tf.action);
            scheduled_faults_.push_back(ScheduledFault{
                model_time_to_step(tf.time, fault_n0_), tf.time, tf.action});
        }
        std::stable_sort(scheduled_faults_.begin(), scheduled_faults_.end(),
                         [](const ScheduledFault& a, const ScheduledFault& b) {
                             return a.step < b.step;
                         });
    }

    /// Number of faults in the attached plan (0 when none).
    [[nodiscard]] std::size_t fault_count() const noexcept {
        return scheduled_faults_.size();
    }

    /// Number of scheduled faults already applied (monotone during a run;
    /// silence faults count as applied the moment their window opens).
    [[nodiscard]] std::size_t faults_applied() const noexcept { return fault_cursor_; }

    /// The i-th scheduled fault, in firing order.
    [[nodiscard]] const ScheduledFault& scheduled_fault(std::size_t i) const {
        require(i < scheduled_faults_.size(), "scheduled fault index out of range");
        return scheduled_faults_[i];
    }

    /// Initial population size recorded when the fault plan was attached
    /// (0 when no plan is attached) — the n₀ of the model-time contract.
    [[nodiscard]] std::size_t fault_initial_population() const noexcept {
        return fault_n0_;
    }

    /// Runs `count` additional interactions and reports whether every
    /// agent's output stayed put — the stability certificate. Observers are
    /// not consulted during verification (it is a certification suffix, not
    /// part of the trajectory).
    [[nodiscard]] bool verify_outputs_stable(StepCount count) {
        return verify_outputs_stable_impl(count);
    }

    // --- observers --------------------------------------------------------

    /// Attaches an observer for subsequent runs. The observer must stay
    /// alive across every later run/verify call on this simulation (or be
    /// removed with `clear_observers` first); it is never touched outside
    /// those calls, so destruction order relative to the simulation itself
    /// does not matter.
    void add_observer(SimulationObserver& observer) { observers_.push_back(&observer); }

    void clear_observers() noexcept { observers_.clear(); }

    // --- checkpointing ----------------------------------------------------

    /// Serialises the complete run state into `w`: a run-identity preamble
    /// (protocol and engine names, so restoring into a mismatched
    /// simulation fails loudly instead of reading garbage), the engine
    /// (configuration, every PRNG stream position, counters), the fault-plan
    /// progress and the state of every attached observer. Legal between run
    /// calls only — engines checkpoint at round boundaries.
    void save_checkpoint(CheckpointWriter& w) const {
        w.str(protocol_name());
        w.str(to_string(engine_kind()));
        save_engine_state(w);
        w.u64(fault_n0_);
        w.u64(silence_until_);
        w.u64(fault_cursor_);
        w.u64(scheduled_faults_.size());
        for (const ScheduledFault& fault : scheduled_faults_) {
            w.u64(fault.step);
            w.f64(fault.time);
            w.u8(static_cast<std::uint8_t>(fault.action.kind));
            w.f64(fault.action.fraction);
            w.u64(fault.action.count);
            w.f64(fault.action.duration);
        }
        w.u64(observers_.size());
        for (const SimulationObserver* obs : observers_) {
            CheckpointWriter sub;
            obs->save_state(sub);
            w.str(sub.buffer());  // length-prefixed: a mismatch stays local
        }
    }

    /// Restores a `save_checkpoint` payload into a simulation constructed
    /// with the same protocol, engine and seed, with the same observers
    /// attached in the same order. Deliberately bypasses `set_fault_plan`'s
    /// pre-run precondition: a resumed plan continues mid-flight, cursor and
    /// silence window included.
    void restore_checkpoint(CheckpointReader& r) {
        const std::string proto = r.str();
        require(proto == protocol_name(), "checkpoint was taken on protocol '" +
                                              proto + "', not '" + protocol_name() + "'");
        const std::string engine = r.str();
        require(engine == to_string(engine_kind()),
                "checkpoint was taken on the " + engine + " engine, not " +
                    std::string(to_string(engine_kind())));
        restore_engine_state(r);
        fault_n0_ = r.u64();
        silence_until_ = r.u64();
        fault_cursor_ = r.u64();
        const std::uint64_t fault_count = r.u64();
        scheduled_faults_.clear();
        scheduled_faults_.reserve(fault_count);
        for (std::uint64_t i = 0; i < fault_count; ++i) {
            ScheduledFault fault;
            fault.step = r.u64();
            fault.time = r.f64();
            const std::uint8_t kind = r.u8();
            require(kind <= static_cast<std::uint8_t>(FaultKind::silence),
                    "checkpoint names an unknown fault kind");
            fault.action.kind = static_cast<FaultKind>(kind);
            fault.action.fraction = r.f64();
            fault.action.count = r.u64();
            fault.action.duration = r.f64();
            scheduled_faults_.push_back(fault);
        }
        require(fault_cursor_ <= scheduled_faults_.size(),
                "checkpoint fault cursor out of range");
        const std::uint64_t obs_count = r.u64();
        require(obs_count == observers_.size(),
                "checkpoint was taken with " + std::to_string(obs_count) +
                    " observers attached, not " + std::to_string(observers_.size()));
        for (SimulationObserver* obs : observers_) {
            CheckpointReader sub(r.str());
            obs->restore_state(sub);
            sub.expect_end();
        }
    }

    /// Writes the current run state as a PPCK checkpoint file (persist.hpp:
    /// validated header + checksummed payload, atomic tmp+rename write).
    void write_checkpoint(const std::string& path) const {
        CheckpointWriter w;
        save_checkpoint(w);
        CheckpointHeader header;
        header.protocol = protocol_name();
        header.engine = std::string(to_string(engine_kind()));
        header.population = run_population_;
        header.seed = run_seed_;
        header.step = steps();
        ppsim::save_checkpoint(path, header, w.buffer());
    }

    /// Restores this simulation from a PPCK file written by
    /// `write_checkpoint`. Container validation (format version, library
    /// version, CPU signature, truncation, checksum) happens in
    /// `load_checkpoint`; run-identity cross-checks in `restore_checkpoint`;
    /// trailing payload bytes fail via `expect_end`. Attach the run's
    /// observers *before* calling this so their progress is restored too.
    void restore_checkpoint_file(const std::string& path) {
        std::string payload;
        (void)load_checkpoint(path, payload);
        CheckpointReader r(std::move(payload));
        restore_checkpoint(r);
        r.expect_end();
    }

    /// Enables periodic mid-run checkpointing: driven runs slice their
    /// chunks at every multiple of `every` steps and rewrite `path` there.
    /// The cadence is part of the replay contract: pausing at a step moves
    /// where the count engines' rounds end, so the resume-equivalence
    /// reference run must checkpoint on the same cadence.
    void set_checkpoint(std::string path, StepCount every) {
        require(every >= 1, "checkpoint cadence must be at least one step");
        checkpoint_path_ = std::move(path);
        checkpoint_every_ = every;
    }

protected:
    /// Records the seed and population size the simulation was built with,
    /// for checkpoint headers. The adapter sets them at construction.
    void set_run_identity(std::uint64_t seed, std::size_t population) noexcept {
        run_seed_ = seed;
        run_population_ = population;
    }

    virtual RunResult run_for_impl(StepCount count) = 0;
    virtual RunResult run_until_one_leader_impl(StepCount max_steps) = 0;
    virtual bool verify_outputs_stable_impl(StepCount count) = 0;
    /// Applies one non-silence fault action to the engine's configuration.
    virtual void apply_fault_impl(const FaultAction& action) = 0;
    /// Advances the step counter by `count` without any interactions
    /// (transient silence: model time passes, nothing happens).
    virtual void advance_silent_impl(StepCount count) = 0;
    /// Serialises the wrapped engine's full state (typed, engine-specific).
    virtual void save_engine_state(CheckpointWriter& w) const = 0;
    /// Restores what save_engine_state wrote into the wrapped engine.
    virtual void restore_engine_state(CheckpointReader& r) = 0;

private:
    /// Faults not yet fired from the attached plan.
    [[nodiscard]] bool faults_pending() const noexcept {
        return fault_cursor_ < scheduled_faults_.size();
    }

    /// True when the run loop must slice chunks itself (pending faults, an
    /// open silence window, or a periodic checkpoint cadence) instead of
    /// delegating to the engine's loop.
    [[nodiscard]] bool driving_needed() const noexcept {
        return faults_pending() || steps() < silence_until_ || checkpoint_every_ > 0;
    }

    /// The driven run loop: advance in chunks sliced at the earliest
    /// observer deadline and the next scheduled fault, notifying at every
    /// boundary and applying due faults exactly at their step. The engine's
    /// own specialised loop runs inside each chunk. Observers notified at a
    /// fault-step boundary see the *pre-fault* configuration first (the
    /// boundary notify), then the post-fault one (the notify inside
    /// apply_due_faults) — a deadline census at the fault step reports the
    /// world the instant before the fault.
    RunResult run_driven(StepCount budget, bool stop_at_single_leader,
                         bool notify_finish) {
        const StepCount start = steps();
        const StepCount end =
            budget > std::numeric_limits<StepCount>::max() - start
                ? std::numeric_limits<StepCount>::max()
                : start + budget;
        notify();
        apply_due_faults();  // time-0 faults fire before any interaction
        while (true) {
            const StepCount now = steps();
            if (stop_at_single_leader && leader_count() == 1 && !faults_pending()) break;
            if (now >= end) break;
            StepCount next = end;
            for (const SimulationObserver* obs : observers_) {
                next = std::min(next, std::max(obs->next_due(), now + 1));
            }
            if (faults_pending()) {
                next = std::min(next,
                                std::max(scheduled_faults_[fault_cursor_].step, now + 1));
            }
            if (now < silence_until_) next = std::min(next, silence_until_);
            if (checkpoint_every_ > 0) {
                // The next multiple of the cadence strictly past `now` (the
                // one at `now` was written after the previous chunk).
                next = std::min(next,
                                now + (checkpoint_every_ - now % checkpoint_every_));
            }
            const StepCount chunk = next - now;
            if (now < silence_until_) {
                advance_silent_impl(std::min(chunk, silence_until_ - now));
            } else if (stop_at_single_leader && !faults_pending()) {
                (void)run_until_one_leader_impl(chunk);
            } else {
                (void)run_for_impl(chunk);
            }
            notify();
            apply_due_faults();
            maybe_write_periodic_checkpoint();
        }
        if (notify_finish) {
            for (SimulationObserver* obs : observers_) obs->finish(*this);
        }
        return run_for_impl(0);  // assembles the RunResult for the current state
    }

    /// Fires every scheduled fault whose step has been reached. Silence
    /// opens (or extends) the no-interaction window; everything else mutates
    /// the configuration through the engine. Observers are notified after
    /// each applied fault so they can see each post-fault configuration.
    void apply_due_faults() {
        while (faults_pending() && scheduled_faults_[fault_cursor_].step <= steps()) {
            const ScheduledFault& fault = scheduled_faults_[fault_cursor_];
            ++fault_cursor_;
            if (fault.action.kind == FaultKind::silence) {
                const StepCount len = model_time_to_step(fault.action.duration, fault_n0_);
                const StepCount now = steps();
                const StepCount until =
                    len > std::numeric_limits<StepCount>::max() - now
                        ? std::numeric_limits<StepCount>::max()
                        : now + len;
                silence_until_ = std::max(silence_until_, until);
            } else {
                apply_fault_impl(fault.action);
            }
            notify();
        }
    }

    void notify() {
        for (SimulationObserver* obs : observers_) obs->observe(*this);
    }

    /// Writes the periodic checkpoint when the run sits exactly on a cadence
    /// multiple it has not written yet (an engine stopping early inside a
    /// chunk — single leader reached — lands off the multiple and is skipped).
    void maybe_write_periodic_checkpoint() {
        if (checkpoint_every_ == 0) return;
        const StepCount now = steps();
        if (now == 0 || now % checkpoint_every_ != 0 || now == last_checkpoint_step_) {
            return;
        }
        write_checkpoint(checkpoint_path_);
        last_checkpoint_step_ = now;
    }

    std::vector<SimulationObserver*> observers_;
    std::vector<ScheduledFault> scheduled_faults_;  ///< plan, sorted by step
    std::size_t fault_cursor_ = 0;   ///< next scheduled fault to fire
    StepCount silence_until_ = 0;    ///< absolute step where silence ends
    std::size_t fault_n0_ = 0;       ///< population at plan attach (time unit)
    std::string checkpoint_path_;    ///< periodic checkpoint target
    StepCount checkpoint_every_ = 0; ///< cadence in steps (0 = disabled)
    StepCount last_checkpoint_step_ = 0;  ///< last cadence multiple written
    std::uint64_t run_seed_ = 0;     ///< root seed, for checkpoint headers
    std::size_t run_population_ = 0; ///< population at construction, likewise
};

/// Runs `sim` to a single leader within `max_steps`, then (optionally)
/// certifies output stability over `verify_steps` extra interactions,
/// demoting `converged` if any output changed. The one shared definition of
/// "run an election" used by the registry, the sweeps and the CLI.
[[nodiscard]] inline RunResult run_to_single_leader(Simulation& sim, StepCount max_steps,
                                                    StepCount verify_steps = 0) {
    RunResult result = sim.run_until_one_leader(max_steps);
    if (verify_steps > 0 && result.converged) {
        if (!sim.verify_outputs_stable(verify_steps)) result.converged = false;
        result.steps = sim.steps();
        result.parallel_time = to_parallel_time(sim.steps(), sim.population_size());
        result.leader_count = sim.leader_count();
    }
    return result;
}

namespace detail {

/// Simulation adapter over one statically typed engine: the agent engine
/// (`Engine<P>`), a count engine (`BatchedEngine<P>`, `GillespieEngine<P>`)
/// or the hybrid meta-engine. Only observation differs by kind: the agent
/// engine's census is one hashed pass over its agents (`census_of`), every
/// other engine visits its counts. A protocol without an injective state
/// key runs on the agent engine only and has no census: the snapshot keys
/// states by `state_key_of`.
template <Protocol P, typename EngineT, EngineKind kind_v>
class EngineSimulation final : public Simulation {
public:
    EngineSimulation(P proto, std::size_t n, std::uint64_t seed)
        : engine_(std::move(proto), n, seed) {
        set_run_identity(seed, n);
    }

    [[nodiscard]] std::size_t population_size() const noexcept override {
        return engine_.population_size();
    }
    [[nodiscard]] StepCount steps() const noexcept override { return engine_.steps(); }
    [[nodiscard]] std::size_t leader_count() const noexcept override {
        return engine_.leader_count();
    }
    [[nodiscard]] std::optional<StepCount> stabilization_step() const noexcept override {
        return engine_.stabilization_step();
    }
    [[nodiscard]] EngineKind engine_kind() const noexcept override { return kind_v; }
    [[nodiscard]] std::string protocol_name() const override {
        return std::string(engine_.protocol().name());
    }
    [[nodiscard]] std::size_t live_state_count() const override {
        if constexpr (!InternableProtocol<P>) {
            throw InvalidArgument("protocol has no injective state key: no state census");
        } else if constexpr (kind_v == EngineKind::agent) {
            return census_of(engine_.protocol(), engine_.population().states()).size();
        } else {
            return engine_.live_state_count();
        }
    }
    [[nodiscard]] ConfigurationSnapshot state_counts() const override {
        if constexpr (!InternableProtocol<P>) {
            throw InvalidArgument("protocol has no injective state key: no state census");
        } else {
            const P& proto = engine_.protocol();
            ConfigurationSnapshot snapshot;
            snapshot.step = engine_.steps();
            if constexpr (kind_v == EngineKind::agent) {
                const auto census = census_of(proto, engine_.population().states());
                snapshot.counts.reserve(census.size());
                for (const auto& [state, count] : census) {  // key-sorted already
                    snapshot.counts.push_back(
                        StateCount{state_key_of(proto, state), count, proto.output(state)});
                }
            } else {
                engine_.visit_counts([&](const auto& state, std::uint64_t count, Role role) {
                    snapshot.counts.push_back(
                        StateCount{state_key_of(proto, state), count, role});
                });
                std::sort(snapshot.counts.begin(), snapshot.counts.end(),
                          [](const StateCount& a, const StateCount& b) { return a.key < b.key; });
            }
            return snapshot;
        }
    }

    /// The wrapped engine, for typed access in tests and examples.
    [[nodiscard]] EngineT& engine() noexcept { return engine_; }

protected:
    RunResult run_for_impl(StepCount count) override { return engine_.run_for(count); }
    RunResult run_until_one_leader_impl(StepCount max_steps) override {
        return engine_.run_until_one_leader(max_steps);
    }
    bool verify_outputs_stable_impl(StepCount count) override {
        return engine_.verify_outputs_stable(count);
    }
    void apply_fault_impl(const FaultAction& action) override {
        engine_.apply_fault(action);
    }
    void advance_silent_impl(StepCount count) override {
        engine_.advance_silent(count);
    }
    void save_engine_state(CheckpointWriter& w) const override {
        engine_.save_state(w);
    }
    void restore_engine_state(CheckpointReader& r) override {
        engine_.restore_state(r);
    }

private:
    EngineT engine_;
};

/// Simulation adapter over the per-interaction agent engine.
template <typename P>
using AgentSimulation = EngineSimulation<P, Engine<P>, EngineKind::agent>;

/// Simulation adapter over the count-based batched engine.
template <typename P>
using BatchedSimulation = EngineSimulation<P, BatchedEngine<P>, EngineKind::batched>;

/// Simulation adapter over the reaction-rate Gillespie engine.
template <typename P>
using GillespieSimulation = EngineSimulation<P, GillespieEngine<P>, EngineKind::gillespie>;

/// Simulation adapter over the adaptive hybrid meta-engine.
template <typename P>
using HybridSimulation = EngineSimulation<P, HybridEngine<P>, EngineKind::hybrid>;

}  // namespace detail

/// Builds a type-erased simulation from a protocol factory (size → protocol
/// instance) on the selected back-end. The single place the engine choice
/// is made for every type-erased consumer; adding an engine means adding a
/// row to `engine_table` and a case here. The count engines and the hybrid
/// engine intern states, so a protocol without an injective state key runs
/// on the agent engine only.
template <typename Factory>
[[nodiscard]] std::unique_ptr<Simulation> make_simulation(const Factory& factory,
                                                          std::size_t n, std::uint64_t seed,
                                                          EngineKind kind) {
    using P = std::decay_t<decltype(factory(std::size_t{2}))>;
    static_assert(Protocol<P>, "factory must produce a Protocol");
    if constexpr (InternableProtocol<P>) {
        switch (kind) {
            case EngineKind::batched:
                return std::make_unique<detail::BatchedSimulation<P>>(factory(n), n, seed);
            case EngineKind::gillespie:
                return std::make_unique<detail::GillespieSimulation<P>>(factory(n), n, seed);
            case EngineKind::hybrid:
                return std::make_unique<detail::HybridSimulation<P>>(factory(n), n, seed);
            case EngineKind::agent: break;
        }
    } else if (kind != EngineKind::agent) {
        throw InvalidArgument("protocol has no injective state key: " +
                              std::string(to_string(kind)) + " engine unavailable");
    }
    return std::make_unique<detail::AgentSimulation<P>>(factory(n), n, seed);
}

}  // namespace ppsim
