// eb_workloads: the benchmark's end-to-end workloads, tracing off.
//
//   eb_workloads --workload sweep_agent|elect_gillespie|observed_agent
//                --seed <n> --seconds <s> --dir <scratch dir>
//
// Prints one JSON report line (bench.hpp) with the end-to-end metrics and
// exits 1 when an election missed its budget, ended with other than one
// leader, or resumed to a different stabilisation step.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/observer.hpp"
#include "core/persist.hpp"
#include "core/thread_pool.hpp"

namespace {

using namespace eb;
using ppsim::EngineKind;
using ppsim::RunResult;
using ppsim::Simulation;

/// The end-to-end metrics but setup_s, which run.py takes as the median of
/// several fresh processes' `--probe 1` reports.
void report_rates(Report& report, double elections_per_s, double model_time, double wall,
                  const ClassTally& qe, const ClassTally& timer, double rss_mb,
                  const OutcomeDigest& digest) {
    report.metric("elections_per_s", elections_per_s, "1/s");
    report.metric("parallel_time_per_s", model_time / wall, "parallel_time/s");
    report.metric("qe_parallel_time_per_s", qe.rate(), "parallel_time/s");
    report.metric("timer_parallel_time_per_s", timer.rate(), "parallel_time/s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.fact("qe_elections", std::to_string(qe.elections));
    report.fact("timer_elections", std::to_string(timer.elections));
    report.fact("outcome_digest", digest.hex());
}

// --- sweep_agent -----------------------------------------------------------------

struct RepRecord {
    double wall = 0.0;
    double time = 0.0;
    std::optional<StepCount> step;
    bool ok = false;
};

/// Boundary-only observer (no deadline, so the repetition still runs in one
/// engine call): the election's wall time runs from the run layer's first
/// notification to `finish`.
class RepTimer final : public ppsim::SimulationObserver {
public:
    explicit RepTimer(RepRecord& record) : record_(record) {}

    [[nodiscard]] StepCount next_due() const noexcept override { return no_deadline; }
    void observe(const Simulation&) override {
        if (!started_) {
            start_ = Clock::now();
            started_ = true;
        }
    }
    void finish(const Simulation& sim) override {
        record_.wall = seconds_since(start_);
        record_.step = sim.stabilization_step();
        record_.ok = sim.leader_count() == 1 && record_.step.has_value();
        record_.time =
            record_.step ? ppsim::to_parallel_time(*record_.step, sim.population_size()) : 0.0;
    }

private:
    RepRecord& record_;
    Clock::time_point start_{};
    bool started_ = false;
};

void sweep_agent(const Args& args, Report& report) {
    const SweepPlan plan(args);
    // Warm-up: the first timed sweep of a fresh process ran up to 1.7x slower.
    (void)ppsim::run_sweep(plan.config(stream_seed(args.seed, Stream::warmup), plan.warmup_reps));

    std::vector<RepRecord> records(plan.reps);
    ppsim::SweepConfig config = plan.config(stream_seed(args.seed, Stream::sweep), plan.reps);
    config.make_observer = [&records](std::size_t, std::size_t rep) {
        return std::make_unique<RepTimer>(records[rep]);
    };
    reset_peak_rss();
    const auto start = Clock::now();
    const ppsim::SweepResult result = ppsim::run_sweep(config);
    const double wall = seconds_since(start);
    const double rss_mb = peak_rss_mb();

    ClassTally qe;
    ClassTally timer;
    double model_time = 0.0;
    OutcomeDigest digest;
    for (std::size_t rep = 0; rep < records.size(); ++rep) {
        const RepRecord& r = records[rep];
        digest.add(rep, r.step);
        report.check(r.ok, "sweep repetition " + std::to_string(rep) + " did not elect one leader");
        if (!r.ok) continue;
        model_time += r.time;
        (is_qe(r.time) ? qe : timer).add(r.time, r.wall);
    }
    report.check(result.points.size() == 1 && result.points[0].failures == 0,
                 "run_sweep reported failed repetitions");
    report_rates(report, static_cast<double>(plan.reps) / wall, model_time, wall, qe, timer,
                 rss_mb, digest);
    report.fact("measured_elections_per_s", json_number(static_cast<double>(plan.reps) / wall));
}

// --- elect_gillespie ---------------------------------------------------------------

/// Wall seconds from the run's start to step `end`; unset when the election
/// stabilises first.
class WindowMark final : public ppsim::SimulationObserver {
public:
    explicit WindowMark(StepCount end) : end_(end) {}

    [[nodiscard]] StepCount next_due() const noexcept override {
        return seconds_ ? no_deadline : end_;
    }
    void observe(const Simulation& sim) override {
        if (!started_) {
            start_ = Clock::now();
            started_ = true;
        } else if (!seconds_ && sim.steps() >= end_) {
            seconds_ = seconds_since(start_);
        }
    }
    [[nodiscard]] const std::optional<double>& seconds() const noexcept { return seconds_; }

private:
    StepCount end_;
    Clock::time_point start_{};
    bool started_ = false;
    std::optional<double> seconds_;
};

void elect_gillespie(const Args& args, Report& report) {
    const GillespiePlan plan(args);
    const std::size_t n = GillespiePlan::n;
    const ppsim::ProtocolRegistry& registry = ppsim::ProtocolRegistry::instance();
    {  // warm-up: an election prefix outside the run's seed stream
        const auto sim = registry.make_simulation(
            protocol, n, stream_seed(args.seed, Stream::warmup), EngineKind::gillespie);
        (void)sim->run_for(ppsim::model_time_to_step(16.0, n));
    }

    ClassTally qe;
    ClassTally timer;
    std::size_t draws = 0;
    std::size_t discarded = 0;
    double elections_wall = 0.0;
    std::vector<double> rss_mb;
    OutcomeDigest digest;
    while (qe.elections < plan.qe_quota || timer.elections < plan.timer_quota) {
        if (draws == GillespiePlan::max_draws) {
            report.check(false, "class quotas not met within the seed draw limit");
            break;
        }
        const auto sim = registry.make_simulation(
            protocol, n, stream_seed(args.seed, Stream::gillespie, draws++),
            EngineKind::gillespie);
        const bool timer_full = timer.elections >= plan.timer_quota;
        const StepCount budget =
            timer_full ? ppsim::model_time_to_step(qe_cutoff, n) : cli_budget(n);
        WindowMark window(ppsim::model_time_to_step(GillespiePlan::timer_window, n));
        sim->add_observer(window);
        reset_peak_rss();
        const auto start = Clock::now();
        const RunResult result = ppsim::run_to_single_leader(*sim, budget);
        const double wall = seconds_since(start);
        digest.add(draws - 1, result.stabilization_step);
        if (timer_full && !result.converged) {
            ++discarded;  // a timer election past its quota, cut at the QE cut-off
            continue;
        }
        const bool ok = result.converged && result.leader_count == 1 &&
                        result.stabilization_step.has_value();
        report.check(ok, "gillespie election " + std::to_string(draws - 1) +
                             " did not elect one leader within the budget");
        if (!ok) continue;
        const double time = result.stabilization_parallel_time(n);
        if (is_qe(time) ? qe.elections == plan.qe_quota : timer.elections == plan.timer_quota) {
            continue;
        }
        if (is_qe(time)) {
            qe.add(time, wall);
        } else if (window.seconds()) {
            timer.add(GillespiePlan::timer_window, *window.seconds());
        } else {
            timer.add(time, wall);  // settled inside the window
        }
        elections_wall += wall;
        rss_mb.push_back(peak_rss_mb());
    }
    report_rates(report, gillespie_mix.elections_per_s(qe.rate(), timer.rate()),
                 qe.model_time + timer.model_time, qe.wall + timer.wall, qe, timer,
                 median(rss_mb), digest);
    report.fact("draws", std::to_string(draws));
    report.fact("discarded", std::to_string(discarded));
    report.fact("measured_elections_per_s",
                json_number(static_cast<double>(qe.elections + timer.elections) / elections_wall));
}

// --- observed_agent ----------------------------------------------------------------

/// The observers `ppsim_sim --trajectory` and `--deadline` attach, plus the
/// periodic checkpoint, on one simulation.
struct Observed {
    ppsim::TrajectoryRecorder trajectory{ObservedPlan::stride, true};
    ppsim::DeadlineObserver deadline{ObservedPlan::deadline, ObservedPlan::n};

    void attach(Simulation& sim, const std::string& checkpoint_path) {
        sim.add_observer(trajectory);
        sim.add_observer(deadline);
        sim.set_checkpoint(checkpoint_path, ObservedPlan::checkpoint_every);
    }
};

void observed_agent(const Args& args, Report& report) {
    const ObservedPlan plan(args);
    const std::size_t n = ObservedPlan::n;
    const ppsim::ProtocolRegistry& registry = ppsim::ProtocolRegistry::instance();
    const std::string setup_path = args.dir + "/observed-setup.ppck";
    {  // warm-up: an observed election prefix outside the run's seed stream
        const auto sim = registry.make_simulation(
            protocol, n, stream_seed(args.seed, Stream::warmup), EngineKind::agent);
        Observed observed;
        observed.attach(*sim, setup_path);
        (void)sim->run_for(ppsim::model_time_to_step(8.0, n));
        std::remove(setup_path.c_str());
    }

    ClassTally qe;
    ClassTally timer;
    std::size_t elections = 0;
    std::vector<double> rss_mb;
    OutcomeDigest digest;
    const StepCount budget = cli_budget(n);
    while (qe.model_time + timer.model_time < plan.model_time) {
        const std::size_t e = elections++;
        const std::string path = ObservedPlan::checkpoint_path(args, e);
        const auto sim = registry.make_simulation(
            protocol, n, stream_seed(args.seed, Stream::observed, e), EngineKind::agent);
        Observed observed;
        observed.attach(*sim, path);

        reset_peak_rss();
        const auto start = Clock::now();
        const RunResult result = ppsim::run_to_single_leader(*sim, budget);
        // Rebuild the election from its last periodic checkpoint, with the
        // same observers and cadence, and run it on to its end.
        std::optional<StepCount> resumed_step;
        bool resumed_observers_agree = false;
        if (std::filesystem::exists(path)) {
            std::string payload;
            const ppsim::CheckpointHeader header = ppsim::load_checkpoint(path, payload);
            const auto resumed = registry.make_simulation(header);
            Observed reobserved;
            reobserved.attach(*resumed, path);
            resumed->restore_checkpoint_file(path);
            (void)ppsim::run_to_single_leader(*resumed, budget - header.step);
            resumed_step = resumed->stabilization_step();
            resumed_observers_agree =
                reobserved.trajectory.points().size() == observed.trajectory.points().size() &&
                reobserved.deadline.report().has_value() &&
                observed.deadline.report().has_value() &&
                reobserved.deadline.report()->step == observed.deadline.report()->step &&
                reobserved.deadline.report()->leader_count ==
                    observed.deadline.report()->leader_count;
        }
        const double wall = seconds_since(start);
        std::remove(path.c_str());

        const bool ok = result.converged && result.leader_count == 1 &&
                        result.stabilization_step.has_value() &&
                        resumed_step == result.stabilization_step && resumed_observers_agree;
        report.check(ok, "observed election " + std::to_string(e) +
                             " missed its budget or one leader, or its resume diverged");
        digest.add(e, result.stabilization_step);
        if (!ok) break;
        const double time = result.stabilization_parallel_time(n);
        (is_qe(time) ? qe : timer).add(time, wall);
        rss_mb.push_back(peak_rss_mb());
    }
    report_rates(report, observed_mix.elections_per_s(qe.rate(), timer.rate()),
                 qe.model_time + timer.model_time, qe.wall + timer.wall, qe, timer,
                 median(rss_mb), digest);
    report.fact("measured_elections_per_s",
                json_number(static_cast<double>(elections) / (qe.wall + timer.wall)));
}

/// Set-up of a fresh process up to its first election: first registry (and,
/// for sweeps, shared-pool) use, make_simulation, and the workload's observer
/// attachment. Run once per process, so it includes lazy initialisation.
double cold_setup_seconds(const Args& args) {
    const bool sweep = args.workload == "sweep_agent";
    const bool gillespie = args.workload == "elect_gillespie";
    const std::size_t n = sweep ? SweepPlan::n : gillespie ? GillespiePlan::n : ObservedPlan::n;
    const std::string checkpoint_path = args.dir + "/probe.ppck";
    const auto start = Clock::now();
    const ppsim::ProtocolRegistry& registry = ppsim::ProtocolRegistry::instance();
    if (sweep) (void)ppsim::shared_pool().thread_count();
    const auto sim = registry.make_simulation(protocol, n, stream_seed(args.seed, Stream::setup),
                                              gillespie ? EngineKind::gillespie
                                                        : EngineKind::agent);
    RepRecord record;
    RepTimer timer(record);
    std::optional<Observed> observed;
    if (sweep) sim->add_observer(timer);
    if (args.workload == "observed_agent") observed.emplace().attach(*sim, checkpoint_path);
    return seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
    return eb::run_program(argc, argv, /*traced=*/false, [](const Args& args, Report& report) {
        if (args.probe) {
            report.metric("setup_s", cold_setup_seconds(args), "s");
            report.check(true, "probe");
        } else if (args.workload == "sweep_agent") {
            sweep_agent(args, report);
        } else if (args.workload == "elect_gillespie") {
            elect_gillespie(args, report);
        } else if (args.workload == "observed_agent") {
            observed_agent(args, report);
        } else {
            throw ppsim::InvalidArgument("unknown workload '" + args.workload + "'");
        }
    });
}
