#include "report.hpp"

#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <set>

namespace ppsim {

std::string render_sweep_table(const SweepResult& sweep, const std::string& title) {
    TextTable table;
    table.add_column("n");
    table.add_column("runs");
    table.add_column("mean time (par.)");
    table.add_column("median");
    table.add_column("p95");
    table.add_column("failures");
    for (const SweepPoint& p : sweep.points) {
        const bool has_data = p.parallel_time.count() > 0;
        table.add_row({
            std::to_string(p.n),
            std::to_string(p.repetitions),
            has_data ? format_with_ci(p.parallel_time.mean(),
                                      p.parallel_time.ci_half_width())
                     : "n/a",
            has_data ? format_double(p.samples.median()) : "n/a",
            has_data ? format_double(p.samples.percentile(95.0)) : "n/a",
            std::to_string(p.failures),
        });
    }
    return table.render(title);
}

std::string render_comparison_table(const std::vector<SweepResult>& sweeps,
                                    const std::string& title) {
    std::set<std::size_t> sizes;
    for (const SweepResult& sweep : sweeps) {
        for (const SweepPoint& p : sweep.points) sizes.insert(p.n);
    }
    TextTable table;
    table.add_column("n");
    for (const SweepResult& sweep : sweeps) table.add_column(sweep.protocol);
    for (const std::size_t n : sizes) {
        std::vector<std::string> row;
        row.push_back(std::to_string(n));
        for (const SweepResult& sweep : sweeps) {
            std::string cell = "-";
            for (const SweepPoint& p : sweep.points) {
                if (p.n == n && p.parallel_time.count() > 0) {
                    cell = format_double(p.parallel_time.mean());
                    if (p.failures > 0) cell += "*";
                }
            }
            row.push_back(std::move(cell));
        }
        table.add_row(std::move(row));
    }
    return table.render(title) + "(* = some runs missed the step budget)\n";
}

JsonValue sweep_to_json(const SweepResult& sweep) {
    JsonValue root = JsonValue::object();
    root.set("protocol", sweep.protocol);
    root.set("engine", to_string(sweep.engine));
    JsonValue points = JsonValue::array();
    for (const SweepPoint& p : sweep.points) {
        JsonValue point = JsonValue::object();
        point.set("n", static_cast<std::uint64_t>(p.n));
        point.set("repetitions", static_cast<std::uint64_t>(p.repetitions));
        point.set("failures", static_cast<std::uint64_t>(p.failures));
        if (p.parallel_time.count() > 0) {
            point.set("mean_parallel_time", p.parallel_time.mean());
            point.set("stddev", p.parallel_time.stddev());
            point.set("median", p.samples.median());
            point.set("p95", p.samples.percentile(95.0));
        }
        if (p.deadline_leaders.count() > 0) {
            point.set("deadline_mean_leaders", p.deadline_leaders.mean());
            point.set("deadline_max_leaders", p.deadline_leaders.max());
            point.set("deadline_stabilized",
                      static_cast<std::uint64_t>(p.deadline_stabilized));
        }
        if (p.recovery_events > 0 || p.unrecovered_faults > 0) {
            if (p.recovery_time.count() > 0) {
                point.set("recovery_mean_time", p.recovery_time.mean());
                point.set("recovery_max_time", p.recovery_time.max());
            }
            point.set("recovery_events",
                      static_cast<std::uint64_t>(p.recovery_events));
            point.set("unrecovered_faults",
                      static_cast<std::uint64_t>(p.unrecovered_faults));
        }
        points.push_back(std::move(point));
    }
    root.set("points", std::move(points));
    if (sweep.points.size() >= 2) {
        const LinearFit log_fit = sweep.fit_vs_log_n();
        JsonValue fit = JsonValue::object();
        fit.set("slope_per_log2n", log_fit.slope);
        fit.set("intercept", log_fit.intercept);
        fit.set("r_squared", log_fit.r_squared);
        root.set("fit_vs_log2n", std::move(fit));
        const LinearFit power = sweep.fit_power_law();
        JsonValue pfit = JsonValue::object();
        pfit.set("exponent", power.slope);
        pfit.set("r_squared", power.r_squared);
        root.set("fit_power_law", std::move(pfit));
    }
    return root;
}

void write_recovery_csv(std::ostream& out, const SweepResult& sweep) {
    out << "n,rep,fault_index,fault_time,recovery_time,recovered\n";
    for (const SweepPoint& p : sweep.points) {
        for (const RecoveryRow& row : p.recovery_rows) {
            out << p.n << ',' << row.rep << ',' << row.fault_index << ','
                << row.fault_time << ',' << row.recovery_time << ','
                << (row.recovered ? 1 : 0) << '\n';
        }
    }
}

void write_recovery_csv(const std::string& path, const SweepResult& sweep) {
    std::ofstream out(path);
    require(out.good(), "cannot open recovery file for writing: " + path);
    write_recovery_csv(out, sweep);
    out.flush();
    require(out.good(), "failed writing recovery file: " + path);
}

unsigned repro_scale() {
    const char* env = std::getenv("REPRO_SCALE");
    if (env == nullptr) return 1;
    const std::string value(env);
    if (value == "full") return 4;
    const int parsed = std::atoi(env);
    return parsed >= 1 ? static_cast<unsigned>(parsed) : 1;
}

}  // namespace ppsim
