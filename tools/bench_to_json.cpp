// bench_to_json — measures interactions/sec of the simulation back-ends
// (agent-based Engine, count-based BatchedEngine, reaction-rate
// GillespieEngine, adaptive HybridEngine) across protocols, population sizes
// and batch-pairing modes, prints a table, and writes the machine-readable
// perf trajectory to BENCH_engine.json so future PRs can regress against it.
// The batched engine is measured once per pairing strategy (pairwise | bulk |
// auto — see src/core/batch_pairing.hpp), so the JSON carries a `batch_mode`
// dimension alongside protocol and n; the agent, gillespie and hybrid
// engines contribute one row per (protocol, n). `--protocols` and
// `--engines` filter the grid, so a single engine (or a single protocol ×
// engine cell) can be re-measured without redoing the whole sweep.
//
//   bench_to_json                         # default grid, writes BENCH_engine.json
//   bench_to_json --protocols pll --sizes 1048576 --json out.json
//   bench_to_json --engines hybrid --protocols pll,loose_sud12   # one engine only
#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/args.hpp"
#include "core/batch_pairing.hpp"
#include "core/engine.hpp"
#include "core/json.hpp"
#include "core/table.hpp"
#include "protocols/registry.hpp"

namespace {

using namespace ppsim;

std::vector<std::string> split_csv(const std::string& csv) {
    std::vector<std::string> out;
    std::istringstream stream(csv);
    std::string item;
    while (std::getline(stream, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

/// One measurement: repeatedly runs fresh elections capped at `steps_per_run`
/// interactions until `min_seconds` of wall time accumulate, and reports the
/// aggregate interaction throughput.
struct Measurement {
    StepCount steps = 0;
    double seconds = 0.0;

    [[nodiscard]] double rate() const noexcept {
        return seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
    }
};

Measurement measure(const std::string& protocol, EngineKind engine, BatchMode batch_mode,
                    std::size_t n, StepCount steps_per_run, double min_seconds) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    Measurement m;
    std::uint64_t seed = 0xBEEF;
    while (m.seconds < min_seconds) {
        const auto start = std::chrono::steady_clock::now();
        // run_for, not run_election: fixed work regardless of convergence,
        // so fast-converging protocols don't degenerate into measuring
        // engine construction. Built through the type-erased Simulation
        // layer — the virtual dispatch is per run, not per interaction, so
        // this measures the same hot loops as the templated benches.
        const auto sim = registry.make_simulation(protocol, n, seed++, engine, batch_mode);
        const RunResult run = sim->run_for(steps_per_run);
        const auto stop = std::chrono::steady_clock::now();
        m.steps += run.steps;
        m.seconds += std::chrono::duration<double>(stop - start).count();
    }
    return m;
}

std::string scientific(double value) {
    std::ostringstream out;
    out.precision(3);
    out << std::scientific << value;
    return out.str();
}

std::string ratio(double value) {
    std::ostringstream out;
    out.precision(1);
    out << std::fixed << value << "x";
    return out.str();
}

int run(const ArgParser& args) {
    const std::vector<std::string> protocols = split_csv(args.get_string(
        "protocols", "angluin06,loose_sud12,lottery,pll,rated_epidemic,rated_election"));
    std::vector<std::size_t> sizes;
    for (const std::string& s :
         split_csv(args.get_string("sizes", "1024,16384,1048576,16777216"))) {
        const std::optional<std::uint64_t> n = parse_u64(s);
        if (!n) throw InvalidArgument("--sizes expects population sizes, got '" + s + "'");
        sizes.push_back(static_cast<std::size_t>(*n));
    }
    // --engines filters which back-ends are measured; names are validated
    // against the engine table, so a typo gets the full valid-name listing.
    std::array<bool, engine_table.size()> want{};
    for (const std::string& name : split_csv(args.get_string(
             "engines", "agent,batched,gillespie,hybrid"))) {
        want[static_cast<std::size_t>(parse_engine_kind(name))] = true;
    }
    const bool want_agent = want[static_cast<std::size_t>(EngineKind::agent)];
    const bool want_batched = want[static_cast<std::size_t>(EngineKind::batched)];
    const bool want_gillespie = want[static_cast<std::size_t>(EngineKind::gillespie)];
    const bool want_hybrid = want[static_cast<std::size_t>(EngineKind::hybrid)];
    const double min_seconds = args.get_double("min-seconds", 0.3);
    const double parallel_time_cap = args.get_double("parallel-time", 16.0);

    TextTable table;
    table.add_column("protocol", Align::left);
    table.add_column("n");
    if (want_agent) table.add_column("agent int/s");
    if (want_batched) {
        for (const BatchModeDescriptor& d : batch_mode_table) {
            table.add_column(std::string(d.name) + " int/s");
        }
    }
    if (want_gillespie) table.add_column("gillespie int/s");
    if (want_hybrid) table.add_column("hybrid int/s");
    if (want_agent && want_batched) table.add_column("auto speedup");
    if (want_batched) table.add_column("bulk/pairwise");
    if (want_gillespie && want_batched) table.add_column("gillespie/pairwise");
    if (want_hybrid) table.add_column("hybrid/best");

    JsonValue root = JsonValue::object();
    root.set("library_version", library_version);
    root.set("tool", "bench_to_json");
    JsonValue rows = JsonValue::array();

    for (const std::string& protocol : protocols) {
        for (const std::size_t n : sizes) {
            const auto steps_per_run = static_cast<StepCount>(
                parallel_time_cap * static_cast<double>(n));
            Measurement agent;
            if (want_agent) {
                agent = measure(protocol, EngineKind::agent, BatchMode::automatic, n,
                                steps_per_run, min_seconds);

                JsonValue agent_row = JsonValue::object();
                agent_row.set("protocol", protocol);
                agent_row.set("n", static_cast<std::uint64_t>(n));
                agent_row.set("steps_per_run", steps_per_run);
                agent_row.set("engine", std::string(to_string(EngineKind::agent)));
                agent_row.set("interactions_per_sec", agent.rate());
                rows.push_back(std::move(agent_row));
            }

            std::vector<std::string> cells = {protocol, std::to_string(n)};
            if (want_agent) cells.push_back(scientific(agent.rate()));
            double auto_rate = 0.0;
            double pairwise_rate = 0.0;
            double bulk_rate = 0.0;
            // Best fixed-engine rate among the engines actually measured in
            // this cell — the hybrid row's comparison baseline.
            double best_fixed_rate = agent.rate();
            if (want_batched) {
                for (const BatchModeDescriptor& d : batch_mode_table) {
                    const Measurement batched = measure(protocol, EngineKind::batched, d.mode,
                                                        n, steps_per_run, min_seconds);
                    const double speedup =
                        agent.rate() > 0.0 ? batched.rate() / agent.rate() : 0.0;
                    if (d.mode == BatchMode::automatic) auto_rate = batched.rate();
                    if (d.mode == BatchMode::pairwise) pairwise_rate = batched.rate();
                    if (d.mode == BatchMode::bulk) bulk_rate = batched.rate();
                    best_fixed_rate = std::max(best_fixed_rate, batched.rate());
                    cells.push_back(scientific(batched.rate()));

                    JsonValue row = JsonValue::object();
                    row.set("protocol", protocol);
                    row.set("n", static_cast<std::uint64_t>(n));
                    row.set("steps_per_run", steps_per_run);
                    row.set("engine", std::string(to_string(EngineKind::batched)));
                    row.set("batch_mode", std::string(d.name));
                    row.set("interactions_per_sec", batched.rate());
                    row.set("speedup_vs_agent", speedup);
                    rows.push_back(std::move(row));
                }
            }
            Measurement gillespie;
            if (want_gillespie) {
                gillespie = measure(protocol, EngineKind::gillespie, BatchMode::automatic, n,
                                    steps_per_run, min_seconds);
                best_fixed_rate = std::max(best_fixed_rate, gillespie.rate());
                cells.push_back(scientific(gillespie.rate()));

                JsonValue gillespie_row = JsonValue::object();
                gillespie_row.set("protocol", protocol);
                gillespie_row.set("n", static_cast<std::uint64_t>(n));
                gillespie_row.set("steps_per_run", steps_per_run);
                gillespie_row.set("engine", std::string(to_string(EngineKind::gillespie)));
                gillespie_row.set("interactions_per_sec", gillespie.rate());
                gillespie_row.set("speedup_vs_agent",
                                  agent.rate() > 0.0 ? gillespie.rate() / agent.rate() : 0.0);
                gillespie_row.set("speedup_vs_batched_pairwise",
                                  pairwise_rate > 0.0 ? gillespie.rate() / pairwise_rate
                                                      : 0.0);
                rows.push_back(std::move(gillespie_row));
            }
            Measurement hybrid;
            if (want_hybrid) {
                hybrid = measure(protocol, EngineKind::hybrid, BatchMode::automatic, n,
                                 steps_per_run, min_seconds);
                cells.push_back(scientific(hybrid.rate()));

                JsonValue hybrid_row = JsonValue::object();
                hybrid_row.set("protocol", protocol);
                hybrid_row.set("n", static_cast<std::uint64_t>(n));
                hybrid_row.set("steps_per_run", steps_per_run);
                hybrid_row.set("engine", std::string(to_string(EngineKind::hybrid)));
                hybrid_row.set("interactions_per_sec", hybrid.rate());
                hybrid_row.set("speedup_vs_agent",
                               agent.rate() > 0.0 ? hybrid.rate() / agent.rate() : 0.0);
                hybrid_row.set("speedup_vs_best_fixed",
                               best_fixed_rate > 0.0 ? hybrid.rate() / best_fixed_rate
                                                     : 0.0);
                rows.push_back(std::move(hybrid_row));
            }

            if (want_agent && want_batched) {
                cells.push_back(ratio(agent.rate() > 0.0 ? auto_rate / agent.rate() : 0.0));
            }
            if (want_batched) {
                cells.push_back(ratio(pairwise_rate > 0.0 ? bulk_rate / pairwise_rate : 0.0));
            }
            if (want_gillespie && want_batched) {
                cells.push_back(
                    ratio(pairwise_rate > 0.0 ? gillespie.rate() / pairwise_rate : 0.0));
            }
            if (want_hybrid) {
                cells.push_back(
                    ratio(best_fixed_rate > 0.0 ? hybrid.rate() / best_fixed_rate : 0.0));
            }
            table.add_row(cells);
        }
    }
    root.set("measurements", std::move(rows));

    std::cout << table.render("engine throughput (interactions/sec)");
    if (const std::string path = args.get_string("json", "BENCH_engine.json");
        !path.empty()) {
        write_json_file(path, root);
        std::cout << "wrote " << path << "\n";
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    ArgParser args;
    args.declare("protocols", "comma-separated registry names",
                 "angluin06,loose_sud12,lottery,pll,rated_epidemic,rated_election");
    args.declare("engines", "comma-separated engine names: " + engine_kind_list(),
                 "agent,batched,gillespie,hybrid");
    args.declare("sizes", "comma-separated population sizes",
                 "1024,16384,1048576,16777216");
    args.declare("min-seconds", "minimum wall time per measurement", "0.3");
    args.declare("parallel-time", "interactions per run, as a multiple of n", "16");
    args.declare("json", "output JSON path (empty = skip)", "BENCH_engine.json");
    args.declare("help", "show this help");
    try {
        args.parse(argc, argv);
        if (args.get_bool("help", false)) {
            std::cout << args.usage("bench_to_json");
            return 0;
        }
        return run(args);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
