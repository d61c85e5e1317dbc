// ppsim_sim — the command-line face of the library: run seeded elections of
// any registered protocol, sweep sizes, verify stability, count states,
// model-check tiny populations, and emit JSON artefacts.
//
//   ppsim_sim --protocol pll --n 4096 --seed 7 --reps 50 --json out.json
//   ppsim_sim --protocol pll --n 65536 --engine batched --trajectory traj.csv
//   ppsim_sim --protocol lottery --inject "t=5:crash=0.3" --inject "t=8:reset=0.1"
//   ppsim_sim --scenario churn_election --engine gillespie --n 8192
//   ppsim_sim --protocol angluin06 --model-check --n 4
//   ppsim_sim --list
#include <algorithm>
#include <iostream>
#include <optional>

#include "analysis/experiment.hpp"
#include "analysis/model_checker.hpp"
#include "analysis/report.hpp"
#include "analysis/scenario.hpp"
#include "analysis/statespace.hpp"
#include "core/args.hpp"
#include "core/fault.hpp"
#include "core/json.hpp"
#include "core/observer.hpp"
#include "core/table.hpp"
#include "protocols/registry.hpp"

namespace {

using namespace ppsim;

ArgParser make_parser() {
    ArgParser args;
    args.declare("protocol", "registry name of the protocol to run", "pll");
    args.declare("engine", "simulation back-end: " + engine_kind_list(), "agent");
    args.declare("n", "population size", "1024");
    args.declare("seed", "root PRNG seed", "2019");
    args.declare("reps", "seeded repetitions", "20");
    args.declare("budget-factor", "step budget as factor * n * log2(n)", "3000");
    args.declare("verify", "extra interactions of output-stability verification", "0");
    args.declare("json", "write results to this JSON file", "");
    args.declare("trajectory",
                 "record one seeded run's leader-count time series to this CSV file", "");
    args.declare("trajectory-every",
                 "trajectory sample cadence in interactions (default: n/4)", "0");
    args.declare("trajectory-live-states",
                 "record the distinct-state census per sample (O(n) per sample "
                 "on the agent engine)",
                 "true");
    args.declare("deadline",
                 "report the leader census at this model time (parallel-time "
                 "units) for every repetition (0 = off)",
                 "0");
    args.declare("snapshot-at",
                 "comma-separated model-time points: record one seeded run's "
                 "full state census at each point",
                 "");
    args.declare("snapshot-csv", "output CSV path for --snapshot-at",
                 "snapshots.csv");
    args.declare("checkpoint",
                 "run one seeded election and write its run state to this "
                 "PPCK checkpoint file at the end (and mid-run with "
                 "--checkpoint-every); continue it later with --resume",
                 "");
    args.declare("checkpoint-every",
                 "mid-run checkpoint cadence in interactions for --checkpoint "
                 "(0 = final state only); the cadence is part of the seeded "
                 "replay contract",
                 "0");
    args.declare("resume",
                 "resume a run from a PPCK checkpoint file and continue it to "
                 "a single leader (protocol, engine, n and seed come from the "
                 "file; combine with --checkpoint to keep checkpointing)",
                 "");
    args.declare("inject",
                 "inject a fault at a model-time point; repeatable; spec "
                 "t=<time>:crash|rejoin|reset|silence=<value> (fractions for "
                 "crash/reset, absolute counts for rejoin, duration for "
                 "silence)",
                 "");
    args.declare("scenario",
                 "run a registered chaos workload (see --list-scenarios); "
                 "sets the protocol unless --protocol is given",
                 "");
    args.declare("recovery-csv",
                 "write per-(repetition, fault) recovery rows to this CSV file", "");
    args.declare("list-scenarios", "list registered chaos scenarios and exit");
    args.declare("states", "also count reachable states per agent");
    args.declare("model-check", "exhaustively model-check a tiny population");
    args.declare("max-configs", "model-checker configuration budget", "200000");
    args.declare("list", "list registered protocols and exit");
    args.declare("help", "show this help");
    return args;
}

/// A run mode: the flag that selects it and every other flag it reads.
struct Mode {
    std::string flag;                ///< empty for the sweep, the default mode
    std::vector<std::string> reads;
};

/// The modes in the order they are tried: the first whose flag is given
/// runs. `--resume` takes protocol, engine, n and seed from its file.
const std::vector<Mode>& modes() {
    static const std::vector<Mode> table = {
        {"list", {}},
        {"list-scenarios", {}},
        {"model-check", {"protocol", "n", "max-configs"}},
        {"trajectory",
         {"protocol", "engine", "n", "seed", "budget-factor", "inject", "scenario",
          "trajectory-every", "trajectory-live-states"}},
        {"resume", {"budget-factor", "checkpoint", "checkpoint-every"}},
        {"checkpoint",
         {"protocol", "engine", "n", "seed", "budget-factor", "inject", "scenario",
          "checkpoint-every"}},
        {"snapshot-at",
         {"protocol", "engine", "n", "seed", "budget-factor", "inject", "scenario",
          "snapshot-csv"}},
        {"",
         {"protocol", "engine", "n", "seed", "budget-factor", "inject", "scenario", "reps",
          "verify", "json", "deadline", "recovery-csv", "states"}},
    };
    return table;
}

/// The mode the command line selects. Throws InvalidArgument, naming the
/// flag and the mode, when a flag is given that the mode would not read.
const Mode& select_mode(const ArgParser& args) {
    const Mode& mode = *std::ranges::find_if(
        modes(), [&args](const Mode& m) { return m.flag.empty() || args.has(m.flag); });
    for (const std::string& flag : args.given()) {
        if (flag == mode.flag || std::ranges::find(mode.reads, flag) != mode.reads.end()) continue;
        std::string message = "--" + flag + " is not read in " +
                              (mode.flag.empty() ? "sweep" : "--" + mode.flag) + " mode";
        for (std::size_t i = 0; i < mode.reads.size(); ++i) {
            message += (i == 0 ? ", which reads --" : ", --") + mode.reads[i];
        }
        throw InvalidArgument(message);
    }
    return mode;
}

std::vector<double> parse_time_points(const std::string& csv) {
    std::vector<double> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string item =
            csv.substr(start, comma == std::string::npos ? comma : comma - start);
        if (!item.empty()) {
            const std::optional<double> time = parse_double(item);
            if (!time) {
                throw InvalidArgument("--snapshot-at: not a model-time point: '" + item +
                                      "'");
            }
            out.push_back(*time);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    if (out.empty()) {
        throw InvalidArgument("--snapshot-at needs at least one model-time point");
    }
    return out;
}

/// Runs one seeded election with a TimedSnapshotRecorder attached and
/// writes the captured censuses as CSV (model-time points → full state
/// counts). Returns false when a snapshot is unusable (a census that does
/// not conserve the population), so the smoke tests catch it.
bool write_timed_snapshots(const std::string& protocol, std::size_t n,
                           std::uint64_t seed, EngineKind engine, StepCount max_steps,
                           const std::vector<double>& times, const std::string& path,
                           const FaultPlan& fault_plan) {
    const auto sim = ProtocolRegistry::instance().make_simulation(protocol, n, seed, engine);
    if (!fault_plan.empty()) sim->set_fault_plan(fault_plan);
    TimedSnapshotRecorder recorder(times, n);
    sim->add_observer(recorder);
    const RunResult run = run_to_single_leader(*sim, max_steps);
    write_timed_snapshots_csv(path, recorder.snapshots());
    // finish() fills every entry; report how many were captured at their
    // model-time point vs inherited from the end of a shorter run.
    std::size_t reached = 0;
    for (const TimedSnapshot& entry : recorder.snapshots()) {
        reached += entry.reached ? 1 : 0;
    }
    std::cout << "wrote " << path << " (" << recorder.snapshots().size()
              << " snapshots, " << reached << " at their model-time points, engine "
              << to_string(engine) << ", "
              << (run.converged ? "converged" : "did not converge") << " after "
              << run.steps << " interactions)\n";
    for (const TimedSnapshot& entry : recorder.snapshots()) {
        // Population is conserved — except under crash/rejoin faults, where
        // a census must merely stay non-empty.
        if (fault_plan.empty() ? entry.snapshot.total() != n
                               : entry.snapshot.total() == 0) {
            return false;
        }
    }
    return true;
}

/// Runs one seeded election with a TrajectoryRecorder attached and writes
/// the series as CSV. Returns false when the recording is unusable (empty
/// or non-monotone), so the tool exits non-zero and the smoke tests catch it.
bool write_trajectory(const std::string& protocol, std::size_t n, std::uint64_t seed,
                      EngineKind engine, StepCount max_steps, StepCount stride,
                      bool live_states, const std::string& path,
                      const FaultPlan& fault_plan) {
    const TrajectoryRun run = record_trajectory(protocol, n, seed, max_steps, stride,
                                                engine, live_states, fault_plan);
    write_trajectory_csv(path, run.points);
    std::cout << "wrote " << path << " (" << run.points.size() << " samples, engine "
              << to_string(engine) << ", "
              << (run.result.converged ? "converged" : "did not converge") << " after "
              << run.result.steps << " interactions)\n";
    if (run.points.size() < 2) return false;
    for (std::size_t i = 1; i < run.points.size(); ++i) {
        if (run.points[i].step <= run.points[i - 1].step) return false;
    }
    return run.points.front().leader_count >= run.points.back().leader_count;
}

int run(const ArgParser& args) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::string& mode = select_mode(args).flag;

    if (mode == "list") {
        TextTable table;
        table.add_column("protocol", Align::left);
        table.add_column("citation", Align::left);
        table.add_column("states", Align::left);
        table.add_column("expected time", Align::left);
        for (const std::string& name : registry.names()) {
            const ProtocolInfo& info = registry.info(name);
            table.add_row({info.name, info.citation, info.theory_states, info.theory_time});
        }
        std::cout << table.render("registered protocols");
        return 0;
    }

    if (mode == "list-scenarios") {
        TextTable table;
        table.add_column("scenario", Align::left);
        table.add_column("protocol", Align::left);
        table.add_column("plan", Align::left);
        for (const ChaosScenario& scenario : chaos_scenarios()) {
            table.add_row({scenario.name, scenario.protocol, scenario.summary});
        }
        std::cout << table.render("registered chaos scenarios");
        return 0;
    }

    const std::string scenario_name = args.get_string("scenario", "");
    const std::vector<std::string> inject_specs = args.get_strings("inject");
    require(scenario_name.empty() || inject_specs.empty(),
            "--scenario and --inject are mutually exclusive (a scenario is a "
            "registered plan; --inject builds an ad-hoc one)");
    const ChaosScenario* scenario =
        scenario_name.empty() ? nullptr : &find_chaos_scenario(scenario_name);

    const std::string protocol = args.has("protocol") || scenario == nullptr
                                     ? args.get_string("protocol", "pll")
                                     : scenario->protocol;
    const auto n = static_cast<std::size_t>(args.get_u64("n", 1024));
    const std::uint64_t seed = args.get_u64("seed", 2019);

    FaultPlan fault_plan;
    if (scenario != nullptr) fault_plan = scenario->make_plan(n);
    for (const std::string& spec : inject_specs) {
        if (!spec.empty()) fault_plan.faults.push_back(parse_fault_spec(spec));
    }
    for (const TimedFault& fault : fault_plan.faults) {
        validate_fault_action(fault.action);
    }

    if (mode == "model-check") {
        const auto protocol_instance = registry.make(protocol, n);
        const auto budget = static_cast<std::size_t>(args.get_u64("max-configs", 200000));
        const ModelCheckReport report = model_check(*protocol_instance, n, budget);
        std::cout << "model check of " << protocol << " at n = " << n << ":\n"
                  << "  configurations: " << report.configurations
                  << (report.exhausted ? " (exhaustive)" : " (budget hit)") << "\n"
                  << "  transitions:    " << report.transitions << "\n"
                  << "  safety (>=1 leader everywhere):  "
                  << (report.safety_holds ? "verified" : "VIOLATED") << "\n"
                  << "  single leader absorbing:         "
                  << (report.single_leader_absorbing ? "verified" : "VIOLATED") << "\n"
                  << "  convergence certified:           "
                  << (report.convergence_certified
                          ? "verified"
                          : (report.exhausted ? "VIOLATED" : "n/a (not exhaustive)"))
                  << "\n";
        return report.safety_holds && report.single_leader_absorbing ? 0 : 1;
    }

    const EngineKind engine = parse_engine_kind(args.get_string("engine", "agent"));
    const double factor = args.get_double(
        "budget-factor", scenario != nullptr ? scenario->budget_factor : 3000.0);
    const double deadline_time = args.get_double("deadline", 0.0);
    require(deadline_time >= 0.0, "--deadline must be non-negative");
    require(!args.has("recovery-csv") || !fault_plan.empty(),
            "--recovery-csv needs faults to recover from (--inject or --scenario)");

    const std::string checkpoint_path = args.get_string("checkpoint", "");
    const StepCount checkpoint_every = args.get_u64("checkpoint-every", 0);
    require(checkpoint_every == 0 || !checkpoint_path.empty(),
            "--checkpoint-every needs --checkpoint (the file to write)");

    if (mode == "trajectory") {
        const std::string path = args.get_string("trajectory", "");
        StepCount stride = args.get_u64("trajectory-every", 0);
        if (stride == 0) stride = std::max<StepCount>(1, n / 4);
        return write_trajectory(protocol, n, seed, engine, StepBudget::n_log_n(n, factor),
                                stride, args.get_bool("trajectory-live-states", true),
                                path, fault_plan)
                   ? 0
                   : 1;
    }

    if (mode == "resume") {
        const std::string resume = args.get_string("resume", "");
        const auto sim = registry.resume_simulation(resume);
        const StepCount resumed_at = sim->steps();
        if (!checkpoint_path.empty() && checkpoint_every > 0) {
            sim->set_checkpoint(checkpoint_path, checkpoint_every);
        }
        const RunResult result = sim->run_until_one_leader(
            StepBudget::n_log_n(sim->run_population(), factor));
        if (!checkpoint_path.empty()) sim->write_checkpoint(checkpoint_path);
        std::cout << "resumed " << sim->protocol_name() << " from " << resume
                  << " at step " << resumed_at << " (engine "
                  << to_string(sim->engine_kind()) << "): "
                  << (result.converged ? "converged" : "did not converge")
                  << " at step " << result.steps << ", " << result.leader_count
                  << " leader(s)\n";
        if (!checkpoint_path.empty()) std::cout << "wrote " << checkpoint_path << "\n";
        return result.converged ? 0 : 1;
    }

    if (mode == "checkpoint") {
        const auto sim = registry.make_simulation(protocol, n, seed, engine);
        if (!fault_plan.empty()) sim->set_fault_plan(fault_plan);
        if (checkpoint_every > 0) sim->set_checkpoint(checkpoint_path, checkpoint_every);
        const RunResult result =
            sim->run_until_one_leader(StepBudget::n_log_n(n, factor));
        sim->write_checkpoint(checkpoint_path);
        std::cout << "wrote " << checkpoint_path << " (protocol " << protocol
                  << ", engine " << to_string(engine) << ", step " << result.steps
                  << ", " << result.leader_count << " leader(s), "
                  << (result.converged ? "converged" : "did not converge") << ")\n";
        return result.converged ? 0 : 1;
    }

    if (mode == "snapshot-at") {
        return write_timed_snapshots(protocol, n, seed, engine,
                                     StepBudget::n_log_n(n, factor),
                                     parse_time_points(args.get_string("snapshot-at", "")),
                                     args.get_string("snapshot-csv", "snapshots.csv"),
                                     fault_plan)
                   ? 0
                   : 1;
    }

    SweepConfig config;
    config.protocol = protocol;
    config.engine = engine;
    config.sizes = {n};
    config.repetitions = static_cast<std::size_t>(args.get_u64("reps", 20));
    config.seed = seed;
    config.verify_steps = args.get_u64("verify", 0);
    config.deadline_time = deadline_time;
    config.fault_plan = fault_plan;
    config.budget = [factor](std::size_t size) {
        return StepBudget::n_log_n(size, factor);
    };
    const SweepResult sweep = run_sweep(config);
    std::cout << render_sweep_table(sweep, protocol + " @ n = " + std::to_string(n));
    if (config.deadline_time > 0.0) {
        for (const SweepPoint& point : sweep.points) {
            if (point.deadline_leaders.count() == 0) {
                // Every repetition exhausted its budget before the deadline:
                // there is no valid deadline-time census to report.
                std::cout << "no repetition reached model time " << config.deadline_time
                          << " (n = " << point.n << ") within the step budget\n";
                return 1;
            }
            std::cout << "leaders at model time " << config.deadline_time
                      << " (n = " << point.n << ") over "
                      << point.deadline_leaders.count() << " runs: mean "
                      << point.deadline_leaders.mean() << ", max "
                      << point.deadline_leaders.max() << "; stabilized by deadline: "
                      << point.deadline_stabilized << "/" << point.repetitions << "\n";
        }
    }

    if (!fault_plan.empty()) {
        for (const SweepPoint& point : sweep.points) {
            if (point.recovery_rows.empty()) {
                std::cout << "no fault was applied at n = " << point.n
                          << " within the step budget\n";
                return 1;
            }
            std::cout << "recovery after " << fault_plan.size() << " faults (n = "
                      << point.n << "): " << point.recovery_events << " recovered";
            if (point.recovery_time.count() > 0) {
                std::cout << ", mean time " << point.recovery_time.mean() << ", max "
                          << point.recovery_time.max();
            }
            std::cout << ", unrecovered " << point.unrecovered_faults << "\n";
        }
        if (const std::string path = args.get_string("recovery-csv", "");
            !path.empty()) {
            write_recovery_csv(path, sweep);
            std::cout << "wrote " << path << "\n";
        }
    }

    JsonValue artefact = sweep_to_json(sweep);
    if (args.get_bool("states", false)) {
        const StateSpaceReport states = count_reachable_states(protocol, n, 3, seed);
        std::cout << "reachable states per agent: " << states.distinct_states
                  << " (declared bound: " << states.declared_bound << ")\n";
        artefact.set("reachable_states", static_cast<std::uint64_t>(states.distinct_states));
        artefact.set("declared_state_bound",
                     static_cast<std::uint64_t>(states.declared_bound));
    }
    if (const std::string path = args.get_string("json", ""); !path.empty()) {
        write_json_file(path, artefact);
        std::cout << "wrote " << path << "\n";
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    ArgParser args = make_parser();
    try {
        args.parse(argc, argv);
        if (args.get_bool("help", false)) {
            std::cout << args.usage("ppsim_sim");
            return 0;
        }
        return run(args);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n\n" << args.usage("ppsim_sim");
        return 2;
    }
}
