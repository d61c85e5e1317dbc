#include "experiment.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <optional>

#include "../core/random.hpp"
#include "../core/thread_pool.hpp"
#include "../protocols/registry.hpp"

namespace ppsim {

StepCount StepBudget::n_log_n(std::size_t n, double factor) {
    const double lg = std::max(1.0, std::log2(static_cast<double>(n)));
    return static_cast<StepCount>(factor * static_cast<double>(n) * lg);
}

StepCount StepBudget::n_squared(std::size_t n, double factor) {
    return static_cast<StepCount>(factor * static_cast<double>(n) * static_cast<double>(n));
}

LinearFit SweepResult::fit_vs_log_n() const {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const SweepPoint& p : points) {
        if (p.parallel_time.count() == 0) continue;
        xs.push_back(static_cast<double>(p.n));
        ys.push_back(p.parallel_time.mean());
    }
    return fit_log2(xs, ys);
}

LinearFit SweepResult::fit_power_law() const {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const SweepPoint& p : points) {
        if (p.parallel_time.count() == 0) continue;
        xs.push_back(static_cast<double>(p.n));
        ys.push_back(p.parallel_time.mean());
    }
    return ppsim::fit_power_law(xs, ys);
}

SweepResult run_sweep(const SweepConfig& config) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    require(registry.contains(config.protocol), "unknown protocol: " + config.protocol);
    require(!config.sizes.empty(), "sweep needs at least one population size");
    require(config.repetitions >= 1, "sweep needs at least one repetition");

    const auto budget = config.budget
        ? config.budget
        : [](std::size_t n) { return StepBudget::n_log_n(n); };

    SweepResult result;
    result.protocol = config.protocol;
    result.engine = config.engine;
    for (const std::size_t n : config.sizes) {
        SweepPoint point;
        point.n = n;
        point.repetitions = config.repetitions;
        const StepCount max_steps = budget(n);

        std::mutex merge_mutex;
        // Repetitions fan out over the process-wide shared team; a
        // repetition's error is rethrown here once every helper has joined.
        shared_pool().for_each(
            config.repetitions,
            [&](std::size_t rep) {
                const std::uint64_t seed =
                    derive_seed(config.seed, (static_cast<std::uint64_t>(n) << 20U) + rep);
                const auto sim =
                    registry.make_simulation(config.protocol, n, seed, config.engine);
                std::optional<DeadlineObserver> deadline;
                if (config.deadline_time > 0.0) {
                    deadline.emplace(config.deadline_time, n);
                    sim->add_observer(*deadline);
                }
                std::optional<RecoveryObserver> recovery;
                if (!config.fault_plan.empty()) {
                    sim->set_fault_plan(config.fault_plan);
                    recovery.emplace(n);
                    sim->add_observer(*recovery);
                }
                std::unique_ptr<SimulationObserver> custom;
                if (config.make_observer) {
                    custom = config.make_observer(n, rep);
                    if (custom) sim->add_observer(*custom);
                }
                const RunResult run =
                    run_to_single_leader(*sim, max_steps, config.verify_steps);
                const std::lock_guard lock(merge_mutex);
                if (run.converged && run.stabilization_step) {
                    const double t = run.stabilization_parallel_time(n);
                    point.parallel_time.add(t);
                    point.samples.add(t);
                } else {
                    ++point.failures;
                }
                if (deadline && deadline->report()) {
                    const DeadlineReport& report = *deadline->report();
                    // A report is a valid deadline-time census when the run
                    // reached the deadline step, or stabilised first (the
                    // absorbing final state holds through the deadline). A
                    // run that merely exhausted its budget reports an
                    // earlier, still-evolving census — exclude it rather
                    // than poison the aggregate (it also counts in
                    // `failures`).
                    if (report.reached_deadline || report.stabilized) {
                        point.deadline_leaders.add(
                            static_cast<double>(report.leader_count));
                        if (report.stabilized) ++point.deadline_stabilized;
                    }
                }
                if (recovery) {
                    for (const RecoveryRecord& record : recovery->records()) {
                        RecoveryRow row;
                        row.rep = rep;
                        row.fault_index = record.fault_index;
                        row.fault_time = record.fault_time;
                        if (const auto span = record.recovery_time(n)) {
                            row.recovered = true;
                            row.recovery_time = *span;
                            point.recovery_time.add(*span);
                            ++point.recovery_events;
                        } else {
                            ++point.unrecovered_faults;
                        }
                        point.recovery_rows.push_back(row);
                    }
                }
            },
            config.threads);
        // Repetitions merge in completion order; sort for reproducible output.
        std::sort(point.recovery_rows.begin(), point.recovery_rows.end(),
                  [](const RecoveryRow& a, const RecoveryRow& b) {
                      return a.rep != b.rep ? a.rep < b.rep
                                            : a.fault_index < b.fault_index;
                  });
        result.points.push_back(std::move(point));
    }
    return result;
}

TrajectoryRun record_trajectory(const std::string& protocol, std::size_t n,
                                std::uint64_t seed, StepCount max_steps,
                                StepCount stride, EngineKind engine,
                                bool record_live_states, const FaultPlan& fault_plan) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    require(registry.contains(protocol), "unknown protocol: " + protocol);
    const auto sim = registry.make_simulation(protocol, n, seed, engine);
    if (!fault_plan.empty()) sim->set_fault_plan(fault_plan);
    TrajectoryRecorder recorder(stride, record_live_states);
    sim->add_observer(recorder);
    TrajectoryRun out;
    out.result = sim->run_until_one_leader(max_steps);
    out.points = recorder.take_points();
    return out;
}

}  // namespace ppsim
