/// \file experiment.hpp
/// \brief The experiment driver: repeated, seeded, parallel election runs
/// across population sweeps, with aggregation ready for table rendering.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "../core/batch_pairing.hpp"
#include "../core/common.hpp"
#include "../core/engine.hpp"
#include "../core/fault.hpp"
#include "../core/observer.hpp"
#include "../core/stats.hpp"

namespace ppsim {

/// Step budgets for bounded runs, as multiples of the protocol's expected
/// scaling. Budgets are generous (a failed run is a reported failure, not a
/// crash), but must stay finite to keep sweeps bounded.
struct StepBudget {
    /// ~factor · n·log2(n) steps — for polylogarithmic-time protocols.
    [[nodiscard]] static StepCount n_log_n(std::size_t n, double factor = 200.0);
    /// ~factor · n² steps — for linear-parallel-time protocols.
    [[nodiscard]] static StepCount n_squared(std::size_t n, double factor = 60.0);
};

/// Configuration of a sweep: one protocol, several population sizes, many
/// seeded repetitions per size.
struct SweepConfig {
    std::string protocol;           ///< registry name
    std::vector<std::size_t> sizes; ///< population sizes n
    std::size_t repetitions = 30;   ///< runs per size
    std::uint64_t seed = 0xACE1ULL; ///< root seed; rep i uses derive_seed(seed, i)
    /// Worker cap for the repetition fan-out (0 = hardware concurrency).
    /// Repetitions run on the process-wide shared pool (core/thread_pool.hpp);
    /// each repetition is one sequential run, so its result depends on its
    /// seed, never on this cap or on scheduling.
    std::size_t threads = 0;
    /// Simulation back-end: per-interaction agent engine, count-based
    /// batched engine, reaction-rate gillespie engine, or the adaptive
    /// hybrid meta-engine (see README "Choosing an engine" for
    /// distribution and speed trade-offs).
    EngineKind engine = EngineKind::agent;
    /// Batch-pairing strategy of the batched engine (core/batch_pairing.hpp):
    /// auto (per-batch choice), pairwise shuffle, or bulk contingency-table
    /// sampling. Ignored by the agent engine.
    BatchMode batch_mode = BatchMode::automatic;
    /// Step budget per n; defaults to StepBudget::n_log_n.
    std::function<StepCount(std::size_t)> budget;
    /// Extra steps of output-stability verification after convergence
    /// (0 = skip verification).
    StepCount verify_steps = 0;
    /// When > 0, attach a DeadlineObserver (core/observer.hpp) to every
    /// repetition at this model-time point (parallel-time units): each run
    /// reports its leader count at model time `deadline_time`, aggregated
    /// into SweepPoint::deadline_leaders / deadline_stabilized. Runs that
    /// stabilise before the deadline report their absorbing final census.
    /// The code path behind `ppsim_sim --deadline`.
    double deadline_time = 0.0;
    /// When > 0, record a leader-count trajectory for every repetition,
    /// sampled every `trajectory_stride` interactions (kept per SweepPoint,
    /// sorted by repetition index for reproducibility).
    StepCount trajectory_stride = 0;
    /// Also record the distinct-state census per trajectory sample. Free on
    /// the batched engine (O(#states)); an O(n) pass per sample on the
    /// agent engine — switch off for large-n agent sweeps.
    bool trajectory_live_states = true;
    /// Fault plan injected into every repetition (empty = fault-free). Times
    /// are model times in units of the initial population (core/fault.hpp).
    /// When non-empty, a RecoveryObserver is attached per repetition and its
    /// records aggregate into SweepPoint::recovery_time / recovery_rows.
    /// The code path behind `ppsim_sim --inject` and `--scenario`.
    FaultPlan fault_plan;
    /// When non-empty, every repetition periodically checkpoints its full
    /// run state (core/persist.hpp "PPCK" containers, one file per
    /// repetition: "<protocol>-n<N>-rep<R>.ppck") into this directory, so a
    /// killed sweep's longest runs can be resumed individually via
    /// ProtocolRegistry::resume_simulation / `ppsim_sim --resume`. The
    /// directory is created on first write.
    std::string checkpoint_dir;
    /// Checkpoint cadence in steps for `checkpoint_dir` (0 = an eighth of
    /// the repetition's step budget). The cadence is part of the replay
    /// contract (see docs/ARCHITECTURE.md): runs checkpointing on different
    /// cadences slice their engine rounds differently.
    StepCount checkpoint_every = 0;
    /// Optional per-repetition observer factory: called as (n, rep) before
    /// each run; the returned observer is attached to that run's Simulation
    /// and destroyed right after it completes. Use for custom
    /// instrumentation (milestones, snapshots) beyond the built-in
    /// trajectory capture. Concurrency contract: repetitions run on a
    /// thread pool, so the factory and each observer's observe()/finish()
    /// execute on worker threads with no lock held — harvest results in the
    /// factory-created observer's destructor or behind your own mutex, and
    /// keep any state captured by the factory synchronised.
    std::function<std::unique_ptr<SimulationObserver>(std::size_t, std::size_t)>
        make_observer;
};

/// One repetition's recorded trajectory within a sweep point.
struct RepTrajectory {
    std::size_t rep = 0;                   ///< repetition index within the point
    std::vector<TrajectoryPoint> points;   ///< leader-count time series
};

/// One injected fault's recovery outcome within one repetition of a sweep.
struct RecoveryRow {
    std::size_t rep = 0;          ///< repetition index within the point
    std::size_t fault_index = 0;  ///< index into the plan's firing order
    double fault_time = 0.0;      ///< when the fault fired (model time, n₀ units)
    double recovery_time = 0.0;   ///< re-stabilisation span (n₀ units); 0 if unrecovered
    bool recovered = false;       ///< the run re-stabilised after this fault
};

/// Aggregated results for one population size.
struct SweepPoint {
    std::size_t n = 0;
    std::size_t repetitions = 0;
    std::size_t failures = 0;       ///< runs that missed the budget or failed verification
    RunningStats parallel_time;     ///< stabilisation time (parallel) over converged runs
    SampleSet samples;              ///< raw stabilisation times for percentiles
    /// Leader counts observed at SweepConfig::deadline_time — one sample
    /// per repetition that reached the deadline or stabilised before it
    /// (budget-exhausted runs are excluded: their census predates the
    /// deadline). Empty unless deadline_time > 0.
    RunningStats deadline_leaders;
    /// Repetitions that had stabilised (single leader) by the deadline.
    std::size_t deadline_stabilized = 0;
    /// Post-fault recovery spans (parallel time, n₀ units) pooled over every
    /// recovered fault of every repetition. Empty unless
    /// SweepConfig::fault_plan is non-empty.
    RunningStats recovery_time;
    /// Faults that recovered (resp. never re-stabilised within budget),
    /// summed over repetitions.
    std::size_t recovery_events = 0;
    std::size_t unrecovered_faults = 0;
    /// Per-(repetition, fault) recovery rows, sorted by (rep, fault_index)
    /// (empty unless fault_plan is non-empty).
    std::vector<RecoveryRow> recovery_rows;
    /// Per-repetition trajectories (empty unless trajectory_stride > 0).
    std::vector<RepTrajectory> trajectories;
};

/// Results of a full sweep.
struct SweepResult {
    std::string protocol;
    EngineKind engine = EngineKind::agent;  ///< back-end the sweep ran on
    BatchMode batch_mode = BatchMode::automatic;  ///< pairing strategy used
    std::vector<SweepPoint> points;

    /// Least-squares fit of mean stabilisation time against log2(n).
    [[nodiscard]] LinearFit fit_vs_log_n() const;
    /// Least-squares power-law fit of mean stabilisation time against n.
    [[nodiscard]] LinearFit fit_power_law() const;
};

/// Runs the sweep described by `config` (parallel across repetitions).
[[nodiscard]] SweepResult run_sweep(const SweepConfig& config);

/// Runs `repetitions` elections of one protocol at a single size and
/// returns the raw per-run results (building block for custom experiments).
[[nodiscard]] std::vector<RunResult> run_repeated(const std::string& protocol, std::size_t n,
                                                  std::size_t repetitions, std::uint64_t seed,
                                                  StepCount max_steps,
                                                  std::size_t threads = 0);

/// One seeded election with trajectory capture: runs `protocol` on `n`
/// agents until one leader (or `max_steps`), recording the leader-count
/// series every `stride` interactions. The code path behind
/// `ppsim_sim --trajectory`, shared with the tests for both engines.
/// `record_live_states` as in SweepConfig::trajectory_live_states.
struct TrajectoryRun {
    RunResult result;
    std::vector<TrajectoryPoint> points;
};
[[nodiscard]] TrajectoryRun record_trajectory(const std::string& protocol, std::size_t n,
                                              std::uint64_t seed, StepCount max_steps,
                                              StepCount stride,
                                              EngineKind engine = EngineKind::agent,
                                              bool record_live_states = true,
                                              BatchMode batch_mode = BatchMode::automatic,
                                              const FaultPlan& fault_plan = {});

}  // namespace ppsim
