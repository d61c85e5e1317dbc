/// \file registry.hpp
/// \brief Runtime registry of the library's leader-election protocols:
/// name → factory + metadata, backing the examples, the experiment driver
/// and the Table-1 bench.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "../core/persist.hpp"
#include "../core/protocol.hpp"
#include "../core/simulation.hpp"

namespace ppsim {

/// Static facts about a protocol, used for the Table-1 comparison rows.
struct ProtocolInfo {
    std::string name;           ///< registry key, e.g. "pll"
    std::string citation;       ///< paper the row corresponds to
    std::string theory_states;  ///< asymptotic state count claimed there
    std::string theory_time;    ///< asymptotic expected stabilisation time
};

/// Registry of runnable protocols. Each entry can (a) hand out a
/// type-erased `Simulation` over either engine and (b) hand out a
/// type-erased protocol instance for state-space analysis. Protocols are
/// instantiated per population size (they are non-uniform, exactly as in
/// the paper: PLL receives m).
class ProtocolRegistry {
public:
    /// The process-wide registry with all built-in protocols registered.
    [[nodiscard]] static const ProtocolRegistry& instance();

    /// Registered protocol names, in registration order.
    [[nodiscard]] std::vector<std::string> names() const;

    [[nodiscard]] bool contains(const std::string& name) const;

    /// Metadata for a registered protocol; throws on unknown names.
    [[nodiscard]] const ProtocolInfo& info(const std::string& name) const;

    /// Builds a ready-to-run type-erased simulation of `name` on `n` agents
    /// with the given seed and back-end — the single factory every
    /// type-erased consumer (sweeps, CLI, benches) goes through. Attach
    /// observers (core/observer.hpp) before running to record trajectories.
    /// `batch_mode` selects the batched engine's pairing strategy
    /// (core/batch_pairing.hpp); the agent engine ignores it.
    /// `EngineKind::hybrid` builds the adaptive meta-engine
    /// (core/hybrid_engine.hpp).
    [[nodiscard]] std::unique_ptr<Simulation> make_simulation(
        const std::string& name, std::size_t n, std::uint64_t seed,
        EngineKind engine = EngineKind::agent,
        BatchMode batch_mode = BatchMode::automatic) const;

    /// Rebuilds the simulation a checkpoint header describes: protocol by
    /// registry name, engine and batch mode by their table names, seed from
    /// the header. The construction half of `--resume` — attach the run's
    /// observers, then call `restore_checkpoint_file` on the result. Throws
    /// on protocols, engines or batch modes this registry does not know.
    [[nodiscard]] std::unique_ptr<Simulation> make_simulation(
        const CheckpointHeader& header) const;

    /// One-call resume for observer-less runs: loads the PPCK file at
    /// `path`, rebuilds the simulation its header describes and restores the
    /// full run state into it. Runs with observers must instead construct
    /// via `make_simulation(header)`, attach the observers, and then restore
    /// — observer state is part of the checkpoint.
    [[nodiscard]] std::unique_ptr<Simulation> resume_simulation(
        const std::string& path) const;

    /// Runs a full election of `name` on n agents with the given seed.
    /// `max_steps` bounds the run; `engine` selects the back-end (the fast
    /// templated agent engine, or the count-based batched engine). A
    /// non-empty `faults` plan (core/fault.hpp) is injected into the run:
    /// the election then only counts as stabilised once every scheduled
    /// fault has been applied and survived.
    [[nodiscard]] RunResult run_election(const std::string& name, std::size_t n,
                                         std::uint64_t seed, StepCount max_steps,
                                         EngineKind engine = EngineKind::agent,
                                         BatchMode batch_mode = BatchMode::automatic,
                                         const FaultPlan& faults = {}) const;

    /// As run_election, but additionally verifies output stability over
    /// `verify_steps` extra interactions; sets `converged = false` if any
    /// output changed after the detected stabilisation point.
    [[nodiscard]] RunResult run_election_verified(
        const std::string& name, std::size_t n, std::uint64_t seed, StepCount max_steps,
        StepCount verify_steps, EngineKind engine = EngineKind::agent,
        BatchMode batch_mode = BatchMode::automatic) const;

    /// Runs exactly `steps` interactions regardless of convergence — the
    /// fixed-work entry point for throughput benchmarking (both engines
    /// clamp their final batch/step to the budget).
    [[nodiscard]] RunResult run_for(const std::string& name, std::size_t n,
                                    std::uint64_t seed, StepCount steps,
                                    EngineKind engine = EngineKind::agent,
                                    BatchMode batch_mode = BatchMode::automatic) const;

    /// Type-erased instance for population size n (state-space counting).
    [[nodiscard]] std::unique_ptr<AnyProtocol> make(const std::string& name,
                                                    std::size_t n) const;

    /// Registers a custom protocol (used by the custom-protocol example).
    /// `factory` receives the population size.
    template <typename Factory>
    void register_protocol(ProtocolInfo info, Factory factory) {
        using P = decltype(factory(std::size_t{2}));
        static_assert(Protocol<P>, "factory must produce a Protocol");
        Entry entry;
        entry.info = std::move(info);
        entry.simulate = [factory](std::size_t n, std::uint64_t seed, EngineKind kind,
                                   BatchMode batch_mode) {
            return ppsim::make_simulation(factory, n, seed, kind, batch_mode);
        };
        entry.make = [factory](std::size_t n) { return erase_protocol(factory(n)); };
        entries_.push_back(std::move(entry));
    }

    ProtocolRegistry() = default;

private:
    struct Entry {
        ProtocolInfo info;
        /// (n, seed, engine, batch mode) → ready-to-run Simulation. All
        /// election and fixed-work runs are built on this one factory; the
        /// run/verify logic itself lives in core/simulation.hpp
        /// (run_to_single_leader).
        std::function<std::unique_ptr<Simulation>(std::size_t, std::uint64_t, EngineKind,
                                                  BatchMode)>
            simulate;
        std::function<std::unique_ptr<AnyProtocol>(std::size_t)> make;
    };

    [[nodiscard]] const Entry& entry(const std::string& name) const;

    std::vector<Entry> entries_;
};

/// Table-1 rows for protocols whose full reproduction is out of scope (see
/// DESIGN.md): reported from the paper, marked unmeasured in the bench.
[[nodiscard]] std::vector<ProtocolInfo> unimplemented_table1_rows();

}  // namespace ppsim
