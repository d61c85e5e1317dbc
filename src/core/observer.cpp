#include "observer.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>

namespace ppsim {

namespace {

/// Advances a deadline to the first stride multiple past `now`, saturating
/// at no_deadline near the StepCount ceiling (shared by every cadence
/// observer). Closed form, not a loop: an observer attached after a long
/// unobserved run may be an arbitrary number of strides behind.
[[nodiscard]] StepCount advance_deadline(StepCount next, StepCount now,
                                         StepCount stride) noexcept {
    if (next > now) return next;
    const StepCount behind = now - next;
    const StepCount catch_up = behind - behind % stride + stride;
    if (next > std::numeric_limits<StepCount>::max() - catch_up) {
        return SimulationObserver::no_deadline;
    }
    return next + catch_up;
}

// --- checkpoint serialisation helpers ---------------------------------------

void write_snapshot(CheckpointWriter& w, const ConfigurationSnapshot& snapshot) {
    w.u64(snapshot.step);
    w.u64(snapshot.counts.size());
    for (const StateCount& sc : snapshot.counts) {
        w.u64(sc.key);
        w.u64(sc.count);
        w.u8(static_cast<std::uint8_t>(sc.role));
    }
}

[[nodiscard]] ConfigurationSnapshot read_snapshot(CheckpointReader& r) {
    ConfigurationSnapshot snapshot;
    snapshot.step = r.u64();
    const std::uint64_t entries = r.u64();
    snapshot.counts.reserve(entries);
    for (std::uint64_t i = 0; i < entries; ++i) {
        StateCount sc;
        sc.key = r.u64();
        sc.count = r.u64();
        sc.role = r.u8() != 0 ? Role::leader : Role::follower;
        snapshot.counts.push_back(sc);
    }
    return snapshot;
}

}  // namespace

// --- TrajectoryRecorder -----------------------------------------------------

TrajectoryRecorder::TrajectoryRecorder(StepCount stride, bool record_live_states)
    : stride_(stride), record_live_states_(record_live_states) {
    require(stride >= 1, "trajectory stride must be at least one interaction");
}

TrajectoryRecorder TrajectoryRecorder::every_parallel_time(double units, std::size_t n,
                                                           bool record_live_states) {
    require(std::isfinite(units) && units > 0.0,
            "trajectory cadence must be positive and finite");
    // Saturate like model_time_to_step: casting a double ≥ 2^64 is undefined.
    const double steps = units * static_cast<double>(n);
    const StepCount stride = steps < 1.0      ? 1
                             : steps >= 1.8e19 ? std::numeric_limits<StepCount>::max()
                                               : static_cast<StepCount>(steps);
    return TrajectoryRecorder(stride, record_live_states);
}

void TrajectoryRecorder::record(const Simulation& sim) {
    const StepCount now = sim.steps();
    if (!points_.empty() && points_.back().step == now) return;
    points_.push_back(TrajectoryPoint{
        now, sim.parallel_time(), sim.leader_count(),
        record_live_states_ ? sim.live_state_count() : 0});
    next_ = advance_deadline(next_, now, stride_);
}

void TrajectoryRecorder::observe(const Simulation& sim) {
    if (points_.empty() || sim.steps() >= next_) record(sim);
}

void TrajectoryRecorder::finish(const Simulation& sim) {
    record(sim);  // always capture the final configuration, even off-stride
}

std::vector<TrajectoryPoint> TrajectoryRecorder::take_points() {
    std::vector<TrajectoryPoint> out = std::move(points_);
    points_.clear();
    next_ = 0;
    return out;
}

void TrajectoryRecorder::save_state(CheckpointWriter& w) const {
    // The recorded points carry over (the resumed process reports the whole
    // series), and preserving the tail sample keeps record()'s same-step
    // dedup working across the resume boundary — the run-start observation
    // after a resume must not duplicate the checkpoint-step sample.
    w.u64(next_);
    w.u64(points_.size());
    for (const TrajectoryPoint& p : points_) {
        w.u64(p.step);
        w.f64(p.parallel_time);
        w.u64(p.leader_count);
        w.u64(p.live_states);
    }
}

void TrajectoryRecorder::restore_state(CheckpointReader& r) {
    next_ = r.u64();
    const std::uint64_t count = r.u64();
    points_.clear();
    points_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        TrajectoryPoint p;
        p.step = r.u64();
        p.parallel_time = r.f64();
        p.leader_count = r.u64();
        p.live_states = r.u64();
        points_.push_back(p);
    }
}

void TrajectoryRecorder::write_csv(std::ostream& out) const {
    write_trajectory_csv(out, points_);
}

void write_trajectory_csv(std::ostream& out,
                          const std::vector<TrajectoryPoint>& points) {
    out << "step,parallel_time,leader_count,live_states\n";
    for (const TrajectoryPoint& p : points) {
        out << p.step << ',' << p.parallel_time << ',' << p.leader_count << ','
            << p.live_states << '\n';
    }
}

void write_trajectory_csv(const std::string& path,
                          const std::vector<TrajectoryPoint>& points) {
    std::ofstream out(path);
    require(out.good(), "cannot open trajectory file for writing: " + path);
    write_trajectory_csv(out, points);
    out.flush();
    require(out.good(), "failed writing trajectory file: " + path);
}

// --- ConvergenceObserver ----------------------------------------------------

ConvergenceObserver::ConvergenceObserver(std::vector<std::size_t> thresholds,
                                         StepCount stride)
    : thresholds_(std::move(thresholds)), stride_(stride) {
    require(stride >= 1, "convergence stride must be at least one interaction");
    std::sort(thresholds_.begin(), thresholds_.end(), std::greater<>());
    thresholds_.erase(std::unique(thresholds_.begin(), thresholds_.end()),
                      thresholds_.end());
    reached_.assign(thresholds_.size(), std::nullopt);
}

std::vector<std::size_t> ConvergenceObserver::halving_thresholds(std::size_t n) {
    std::vector<std::size_t> out;
    for (std::size_t t = n / 2; t > 1; t /= 2) out.push_back(t);
    out.push_back(1);
    return out;
}

void ConvergenceObserver::observe(const Simulation& sim) {
    const std::size_t leaders = sim.leader_count();
    for (std::size_t i = 0; i < thresholds_.size(); ++i) {
        if (!reached_[i] && leaders <= thresholds_[i]) reached_[i] = sim.steps();
    }
    if (sim.steps() >= next_) {
        // All milestones hit: stop asking for deadlines so runs with other
        // observers (or none due) aren't chunked on our account.
        const bool done = std::all_of(reached_.begin(), reached_.end(),
                                      [](const auto& r) { return r.has_value(); });
        next_ = done ? SimulationObserver::no_deadline
                     : advance_deadline(next_, sim.steps(), stride_);
    }
}

void ConvergenceObserver::save_state(CheckpointWriter& w) const {
    // Thresholds come from the constructor; only the milestones already hit
    // (and the cadence position) are run state.
    w.u64(next_);
    w.u64(reached_.size());
    for (const std::optional<StepCount>& step : reached_) w.opt_u64(step);
}

void ConvergenceObserver::restore_state(CheckpointReader& r) {
    next_ = r.u64();
    const std::uint64_t count = r.u64();
    require(count == reached_.size(),
            "checkpointed convergence observer tracked a different threshold set");
    for (std::optional<StepCount>& step : reached_) step = r.opt_u64();
}

std::optional<StepCount> ConvergenceObserver::first_step_at_or_below(
    std::size_t threshold) const {
    for (std::size_t i = 0; i < thresholds_.size(); ++i) {
        if (thresholds_[i] == threshold) return reached_[i];
    }
    return std::nullopt;
}

// --- DeadlineObserver -------------------------------------------------------

DeadlineObserver::DeadlineObserver(double model_time, std::size_t n)
    : DeadlineObserver(model_time_to_step(model_time, n)) {}

DeadlineObserver::DeadlineObserver(StepCount deadline_step) : deadline_(deadline_step) {}

DeadlineObserver DeadlineObserver::at_step(StepCount step) {
    return DeadlineObserver(step);
}

StepCount DeadlineObserver::next_due() const noexcept {
    return report_ ? no_deadline : deadline_;
}

void DeadlineObserver::record(const Simulation& sim, bool reached) {
    DeadlineReport report;
    report.step = sim.steps();
    report.parallel_time = sim.parallel_time();
    report.leader_count = sim.leader_count();
    report.live_states = sim.live_state_count();
    report.reached_deadline = reached;
    const std::optional<StepCount> stab = sim.stabilization_step();
    report.stabilized = stab.has_value() && *stab <= sim.steps();
    report_ = report;
}

void DeadlineObserver::observe(const Simulation& sim) {
    if (!report_ && sim.steps() >= deadline_) record(sim, /*reached=*/true);
}

void DeadlineObserver::finish(const Simulation& sim) {
    // The run ended (stabilised or exhausted its budget) before the
    // deadline: the end-of-run configuration is the deadline view for
    // absorbing protocols. reached_deadline = false flags the distinction.
    if (!report_) record(sim, /*reached=*/false);
}

void DeadlineObserver::save_state(CheckpointWriter& w) const {
    // A deadline fires exactly once per run: persisting the report keeps a
    // resumed run from firing again (and a resumed pre-deadline run from
    // losing the pending deadline — next_due() re-derives from report_).
    w.boolean(report_.has_value());
    if (report_) {
        w.u64(report_->step);
        w.f64(report_->parallel_time);
        w.u64(report_->leader_count);
        w.u64(report_->live_states);
        w.boolean(report_->reached_deadline);
        w.boolean(report_->stabilized);
    }
}

void DeadlineObserver::restore_state(CheckpointReader& r) {
    report_.reset();
    if (r.boolean()) {
        DeadlineReport report;
        report.step = r.u64();
        report.parallel_time = r.f64();
        report.leader_count = r.u64();
        report.live_states = r.u64();
        report.reached_deadline = r.boolean();
        report.stabilized = r.boolean();
        report_ = report;
    }
}

// --- TimedSnapshotRecorder --------------------------------------------------

TimedSnapshotRecorder::TimedSnapshotRecorder(std::vector<double> times, std::size_t n) {
    require(!times.empty(), "timed snapshot recorder needs at least one time point");
    std::sort(times.begin(), times.end());
    snapshots_.reserve(times.size());
    for (const double t : times) {
        TimedSnapshot entry;
        entry.requested_time = t;
        entry.target_step = model_time_to_step(t, n);
        snapshots_.push_back(std::move(entry));
    }
}

StepCount TimedSnapshotRecorder::next_due() const noexcept {
    return captured_ < snapshots_.size() ? snapshots_[captured_].target_step
                                         : no_deadline;
}

void TimedSnapshotRecorder::observe(const Simulation& sim) {
    while (captured_ < snapshots_.size() &&
           sim.steps() >= snapshots_[captured_].target_step) {
        TimedSnapshot& entry = snapshots_[captured_];
        // Consecutive points collapsing to the same step share one census.
        if (captured_ > 0 && snapshots_[captured_ - 1].reached &&
            snapshots_[captured_ - 1].snapshot.step == sim.steps()) {
            entry.snapshot = snapshots_[captured_ - 1].snapshot;
        } else {
            entry.snapshot = sim.state_counts();
        }
        entry.reached = true;
        ++captured_;
    }
}

void TimedSnapshotRecorder::finish(const Simulation& sim) {
    observe(sim);
    if (captured_ == snapshots_.size()) return;
    // Unreached points inherit the end-of-run configuration (the deadline
    // view for absorbing protocols), marked reached = false.
    const ConfigurationSnapshot final_census = sim.state_counts();
    while (captured_ < snapshots_.size()) {
        snapshots_[captured_].snapshot = final_census;
        snapshots_[captured_].reached = false;
        ++captured_;
    }
}

void TimedSnapshotRecorder::save_state(CheckpointWriter& w) const {
    // The time points (and their target steps) come from the constructor;
    // run state is which leading entries were captured and what they hold.
    w.u64(captured_);
    for (std::size_t i = 0; i < captured_; ++i) {
        w.boolean(snapshots_[i].reached);
        write_snapshot(w, snapshots_[i].snapshot);
    }
}

void TimedSnapshotRecorder::restore_state(CheckpointReader& r) {
    const std::uint64_t captured = r.u64();
    require(captured <= snapshots_.size(),
            "checkpointed timed-snapshot recorder captured more points than configured");
    captured_ = captured;
    for (std::size_t i = 0; i < captured_; ++i) {
        snapshots_[i].reached = r.boolean();
        snapshots_[i].snapshot = read_snapshot(r);
    }
}

void TimedSnapshotRecorder::write_csv(std::ostream& out) const {
    write_timed_snapshots_csv(out, snapshots_);
}

void write_timed_snapshots_csv(std::ostream& out,
                               const std::vector<TimedSnapshot>& snapshots) {
    out << "requested_time,step,state_key,count,role\n";
    for (const TimedSnapshot& entry : snapshots) {
        for (const StateCount& sc : entry.snapshot.counts) {
            out << entry.requested_time << ',' << entry.snapshot.step << ',' << sc.key
                << ',' << sc.count << ',' << to_string(sc.role) << '\n';
        }
    }
}

void write_timed_snapshots_csv(const std::string& path,
                               const std::vector<TimedSnapshot>& snapshots) {
    std::ofstream out(path);
    require(out.good(), "cannot open snapshot file for writing: " + path);
    write_timed_snapshots_csv(out, snapshots);
    out.flush();
    require(out.good(), "failed writing snapshot file: " + path);
}

// --- RecoveryObserver -------------------------------------------------------

RecoveryObserver::RecoveryObserver(std::size_t n0) : n0_(n0) {
    require(n0 >= 1, "recovery observer needs the initial population size");
}

void RecoveryObserver::observe(const Simulation& sim) {
    // Open a record for every fault applied since the last observation.
    // Silence faults freeze the configuration rather than perturbing it, so
    // they have no recovery to measure.
    while (tracked_ < sim.faults_applied()) {
        const Simulation::ScheduledFault& fault = sim.scheduled_fault(tracked_);
        if (fault.action.kind != FaultKind::silence) {
            RecoveryRecord record;
            record.fault_index = tracked_;
            record.fault_step = fault.step;
            record.fault_time = fault.time;
            records_.push_back(record);
        }
        ++tracked_;
    }
    // Resolve every open record the current stabilisation covers. The
    // engine's stabilisation step re-anchors on each fault, so a value at or
    // after a record's fault step is that fault's recovery point; faults that
    // overlapped (a second hit before the first recovered) resolve together.
    const std::optional<StepCount> stab = sim.stabilization_step();
    if (!stab) return;
    for (RecoveryRecord& record : records_) {
        if (!record.recovery_step && *stab >= record.fault_step) {
            record.recovery_step = *stab;
        }
    }
}

void RecoveryObserver::finish(const Simulation& sim) { observe(sim); }

void RecoveryObserver::save_state(CheckpointWriter& w) const {
    // tracked_ keeps a resumed run from re-opening records for faults that
    // fired before the checkpoint; the records carry the pending (not yet
    // recovered) fault state the resumed run must keep resolving.
    w.u64(tracked_);
    w.u64(records_.size());
    for (const RecoveryRecord& record : records_) {
        w.u64(record.fault_index);
        w.u64(record.fault_step);
        w.f64(record.fault_time);
        w.opt_u64(record.recovery_step);
    }
}

void RecoveryObserver::restore_state(CheckpointReader& r) {
    tracked_ = r.u64();
    const std::uint64_t count = r.u64();
    records_.clear();
    records_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        RecoveryRecord record;
        record.fault_index = r.u64();
        record.fault_step = r.u64();
        record.fault_time = r.f64();
        record.recovery_step = r.opt_u64();
        records_.push_back(record);
    }
}

}  // namespace ppsim
