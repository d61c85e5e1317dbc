/// \file observer.hpp
/// \brief Concrete simulation observers: leader-count/state-count trajectory
/// recording, periodic full-configuration snapshots, convergence milestone
/// tracking, and time-driven observation (a one-shot model-time deadline and
/// snapshots at a list of model-time points). All of them observe at step
/// boundaries the caller picks, through the chunked run loop in
/// simulation.hpp — never inside the engines' per-interaction hot paths.
///
/// **Model time.** The time-driven observers take their points in parallel
/// time (the paper's unit: steps / n) and convert them to absolute step
/// indices at construction — one unit of model time is n interactions.
/// Because the run layer slices the step budget exactly at observer
/// deadlines and every engine clamps its rounds to the requested chunk
/// (batches, leaps and geometric skips included), a time-driven observer
/// sees the configuration at *exactly* its deadline step, on every engine.
/// On batched and gillespie (and hybrid while on gillespie) a deadline
/// inside a round ends that round early, so the rest of the run samples
/// another path from the same distribution; the agent engine's run never
/// depends on its observers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "simulation.hpp"

namespace ppsim {

/// One sample of a recorded trajectory.
struct TrajectoryPoint {
    StepCount step = 0;            ///< interactions executed at the sample
    double parallel_time = 0.0;    ///< step / n
    std::size_t leader_count = 0;  ///< leaders at the sample
    std::size_t live_states = 0;   ///< distinct occupied states (0 if not recorded)
};

/// Records a (step, leader count, live-state count) time series every
/// `stride` interactions, plus the initial and final configurations of each
/// run. On the count engines a sample costs O(#states); recording the
/// live-state census on the agent engine costs one hashed O(n) pass over the
/// raw agent states plus one state key per distinct state (`census_of`), so
/// it can be disabled for large-n agent runs.
class TrajectoryRecorder final : public SimulationObserver {
public:
    /// `stride` = distance between samples in interactions (≥ 1);
    /// `record_live_states` additionally tracks the distinct-state census.
    explicit TrajectoryRecorder(StepCount stride, bool record_live_states = true);

    /// Recorder sampling every `units` of parallel time for population `n`.
    /// `units` must be positive and finite; a stride past the StepCount
    /// range saturates at its maximum.
    [[nodiscard]] static TrajectoryRecorder every_parallel_time(
        double units, std::size_t n, bool record_live_states = true);

    [[nodiscard]] StepCount next_due() const noexcept override { return next_; }
    void observe(const Simulation& sim) override;
    void finish(const Simulation& sim) override;
    void save_state(CheckpointWriter& w) const override;
    void restore_state(CheckpointReader& r) override;

    [[nodiscard]] const std::vector<TrajectoryPoint>& points() const noexcept {
        return points_;
    }
    [[nodiscard]] StepCount stride() const noexcept { return stride_; }

    /// Hands the recorded series out (recorder resets to empty).
    [[nodiscard]] std::vector<TrajectoryPoint> take_points();

    /// Writes the series as CSV: step,parallel_time,leader_count,live_states.
    /// (Delegates to the free write_trajectory_csv — one schema definition.)
    void write_csv(std::ostream& out) const;

private:
    void record(const Simulation& sim);

    StepCount stride_;
    StepCount next_ = 0;
    bool record_live_states_;
    std::vector<TrajectoryPoint> points_;
};

/// Writes a trajectory as CSV (step,parallel_time,leader_count,live_states)
/// — the single definition of the trajectory schema. The path overload
/// throws on I/O failure.
void write_trajectory_csv(std::ostream& out,
                          const std::vector<TrajectoryPoint>& points);
void write_trajectory_csv(const std::string& path,
                          const std::vector<TrajectoryPoint>& points);

/// Watches the leader census fall and records the first observed step at
/// which it reached each of a set of descending thresholds (n/2, √n, …, 1).
/// Milestones are detected at `stride` granularity: the recorded step is
/// the first *observation* at or below the threshold, which overshoots the
/// true crossing by at most one stride.
class ConvergenceObserver final : public SimulationObserver {
public:
    ConvergenceObserver(std::vector<std::size_t> thresholds, StepCount stride);

    /// The default milestone ladder for population n:
    /// n/2, n/4, …, down to 2, then 1.
    [[nodiscard]] static std::vector<std::size_t> halving_thresholds(std::size_t n);

    [[nodiscard]] StepCount next_due() const noexcept override { return next_; }
    void observe(const Simulation& sim) override;
    void save_state(CheckpointWriter& w) const override;
    void restore_state(CheckpointReader& r) override;

    /// First observed step with leader count ≤ `threshold`; unset when the
    /// run never got there (or the threshold was not configured).
    [[nodiscard]] std::optional<StepCount> first_step_at_or_below(
        std::size_t threshold) const;

    [[nodiscard]] const std::vector<std::size_t>& thresholds() const noexcept {
        return thresholds_;
    }

private:
    std::vector<std::size_t> thresholds_;            ///< sorted descending
    std::vector<std::optional<StepCount>> reached_;  ///< parallel to thresholds_
    StepCount stride_;
    StepCount next_ = 0;
};

/// What a DeadlineObserver saw. Exactly one report is produced per run:
/// at the deadline step when the run got there, or at run end when the run
/// finished first (`reached_deadline` distinguishes the two — for absorbing
/// protocols a run that stabilised before the deadline holds its final
/// configuration through it, so the end-of-run census *is* the deadline
/// view).
struct DeadlineReport {
    StepCount step = 0;             ///< interactions executed at the report
    double parallel_time = 0.0;     ///< step / n
    std::size_t leader_count = 0;   ///< leaders at the report
    std::size_t live_states = 0;    ///< distinct occupied states
    bool reached_deadline = false;  ///< the run reached the deadline step
    bool stabilized = false;        ///< single leader at/before the report
};

/// One-shot observer answering "what did the population look like at model
/// time T?": fires exactly once, at the first run boundary at or past step
/// ⌈T·n⌉ (= exactly that step under the run layer's deadline slicing), and
/// records a DeadlineReport. A deadline of 0 reports the initial
/// configuration, before any interaction. If the run ends first
/// (stabilisation or budget), `finish` records the end-of-run state with
/// `reached_deadline = false`. The CLI flag `ppsim_sim --deadline` and
/// `SweepConfig::deadline_time` build on this observer.
class DeadlineObserver final : public SimulationObserver {
public:
    /// Deadline at model time `model_time` (parallel-time units, ≥ 0) for a
    /// population of n agents: the deadline step is ⌈model_time · n⌉.
    DeadlineObserver(double model_time, std::size_t n);

    /// Deadline at an absolute interaction index.
    [[nodiscard]] static DeadlineObserver at_step(StepCount step);

    [[nodiscard]] StepCount next_due() const noexcept override;
    void observe(const Simulation& sim) override;
    void finish(const Simulation& sim) override;
    void save_state(CheckpointWriter& w) const override;
    void restore_state(CheckpointReader& r) override;

    /// The absolute step index the deadline converts to.
    [[nodiscard]] StepCount deadline_step() const noexcept { return deadline_; }

    /// The report; unset until the deadline (or run end) was observed.
    [[nodiscard]] const std::optional<DeadlineReport>& report() const noexcept {
        return report_;
    }

private:
    explicit DeadlineObserver(StepCount deadline_step);

    void record(const Simulation& sim, bool reached);

    StepCount deadline_;
    std::optional<DeadlineReport> report_;
};

/// One captured timed snapshot: the model-time point asked for and the full
/// configuration census recorded for it.
struct TimedSnapshot {
    double requested_time = 0.0;  ///< model-time point (parallel-time units)
    StepCount target_step = 0;    ///< ⌈requested_time · n⌉
    bool reached = false;         ///< captured at its step (vs at run end)
    ConfigurationSnapshot snapshot;
};

/// Records a full configuration snapshot at each of a list of model-time
/// points. Points are sorted ascending at construction; each is captured at
/// exactly its step under the run layer's deadline slicing. Points the run
/// never reaches (it stabilised or exhausted its budget first) are filled
/// with the end-of-run configuration and marked `reached = false` — the
/// correct deadline view for absorbing protocols, a documented approximation
/// for the loosely-stabilising baseline. Behind `ppsim_sim --snapshot-at`.
class TimedSnapshotRecorder final : public SimulationObserver {
public:
    /// \param times  model-time points (parallel-time units, each ≥ 0)
    /// \param n      population size (converts times to steps)
    TimedSnapshotRecorder(std::vector<double> times, std::size_t n);

    [[nodiscard]] StepCount next_due() const noexcept override;
    void observe(const Simulation& sim) override;
    void finish(const Simulation& sim) override;
    void save_state(CheckpointWriter& w) const override;
    void restore_state(CheckpointReader& r) override;

    /// Captured snapshots, one per requested point, in ascending time order.
    /// Entries past `captured_count()` are not yet recorded.
    [[nodiscard]] const std::vector<TimedSnapshot>& snapshots() const noexcept {
        return snapshots_;
    }

    /// Number of leading entries of `snapshots()` already captured.
    [[nodiscard]] std::size_t captured_count() const noexcept { return captured_; }

    /// Writes the captured snapshots in long CSV form:
    /// requested_time,step,state_key,count,role — one row per (point, state).
    void write_csv(std::ostream& out) const;

private:
    std::vector<TimedSnapshot> snapshots_;  ///< sorted by requested_time
    std::size_t captured_ = 0;              ///< entries recorded so far
};

/// Writes timed snapshots as CSV (the single definition of the schema:
/// requested_time,step,state_key,count,role). The path overload throws on
/// I/O failure.
void write_timed_snapshots_csv(std::ostream& out,
                               const std::vector<TimedSnapshot>& snapshots);
void write_timed_snapshots_csv(const std::string& path,
                               const std::vector<TimedSnapshot>& snapshots);

/// One fault's recovery record: when the fault fired and when (if ever) the
/// population was next stabilised on a single leader at or after it.
struct RecoveryRecord {
    std::size_t fault_index = 0;  ///< index into the simulation's fault plan
    StepCount fault_step = 0;     ///< absolute step the fault fired at
    double fault_time = 0.0;      ///< the plan's model time (units of n₀)
    std::optional<StepCount> recovery_step;  ///< first stabilisation ≥ fault_step

    /// Recovery span in parallel time (units of n₀); unset while unrecovered.
    [[nodiscard]] std::optional<double> recovery_time(std::size_t n0) const noexcept {
        if (!recovery_step) return std::nullopt;
        return to_parallel_time(*recovery_step - fault_step, n0);
    }
};

/// Measures time-to-re-stabilisation after each injected fault: one record
/// per non-silence fault, resolved when the engine next reports a
/// stabilisation step at or after the fault. Needs no deadline of its own —
/// the run layer already slices chunks at every fault step, so this observer
/// sees each fault the moment it applies. Overlapping faults (a second fault
/// before the first recovered) both resolve at the same later stabilisation.
/// Behind `SweepConfig::fault_plan` and `ppsim_sim --inject`.
class RecoveryObserver final : public SimulationObserver {
public:
    /// \param n0  initial population size (the model-time unit of the plan)
    explicit RecoveryObserver(std::size_t n0);

    [[nodiscard]] StepCount next_due() const noexcept override { return no_deadline; }
    void observe(const Simulation& sim) override;
    void finish(const Simulation& sim) override;
    void save_state(CheckpointWriter& w) const override;
    void restore_state(CheckpointReader& r) override;

    /// One record per applied non-silence fault, in firing order.
    [[nodiscard]] const std::vector<RecoveryRecord>& records() const noexcept {
        return records_;
    }

    /// The n₀ the observer was constructed with.
    [[nodiscard]] std::size_t initial_population() const noexcept { return n0_; }

private:
    std::size_t n0_;
    std::size_t tracked_ = 0;  ///< scheduled faults already turned into records
    std::vector<RecoveryRecord> records_;
};

}  // namespace ppsim
