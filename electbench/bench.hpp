/// \file bench.hpp
/// \brief What the election benchmark's programs share: arguments, the
/// workload plans (sizes, seeds, quotas, budgets), the measurements, the
/// host stamp and the one-line JSON report that run.py reads.
///
/// eb_workloads and eb_trace both take their elections from the plans here,
/// so a traced run replays exactly the elections of the untraced run with
/// the same --workload, --seed and --seconds.
#pragma once

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/random.hpp"
#include "protocols/registry.hpp"

#ifndef EB_COMPILER
#define EB_COMPILER "unknown"
#endif
#ifndef EB_FLAGS
#define EB_FLAGS "unknown"
#endif
#ifndef EB_BUILD_TYPE
#define EB_BUILD_TYPE "unknown"
#endif

namespace eb {

using ppsim::StepCount;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- arguments ---------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    std::string dir = ".";  ///< scratch directory for checkpoints and recorded inputs
    bool probe = false;     ///< time one cold set-up instead of the workload
};

[[nodiscard]] inline Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        ppsim::require(i + 1 < argc, "flag " + flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--dir") {
            args.dir = value;
        } else if (flag == "--probe") {
            args.probe = value == "1";
        } else {
            throw ppsim::InvalidArgument("unknown flag " + flag);
        }
    }
    ppsim::require(args.seconds >= 1.0 && args.seconds <= 60.0,
                   "--seconds must lie in [1, 60]");
    return args;
}

// --- workload plans ----------------------------------------------------------

inline const std::string protocol = "pll";

/// The step budget of `ppsim_sim`'s default --budget-factor: 3000·n·log2 n.
[[nodiscard]] inline StepCount cli_budget(std::size_t n) {
    return ppsim::StepBudget::n_log_n(n, 3000.0);
}

/// Election classes. A QE election is settled by QuickElimination in epoch
/// 1; a timer election waits for the count-up timer to advance the epoch.
/// At every size the benchmark runs (2^12..2^20) QE elections stabilise by
/// ~26 parallel time and timer elections after >= 200, so the untraced
/// programs classify by stabilisation time; eb_trace checks the cut-off
/// against the leading epoch of each final census.
inline constexpr double qe_cutoff = 50.0;

[[nodiscard]] inline bool is_qe(double stabilization_time) {
    return stabilization_time < qe_cutoff;
}

/// Independent per-workload seed streams.
enum class Stream : std::uint64_t { warmup = 1, sweep = 2, gillespie = 3, observed = 4, setup = 5 };

[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t workload_seed, Stream stream,
                                               std::uint64_t index = 0) {
    return ppsim::derive_seed(
        ppsim::derive_seed(workload_seed, static_cast<std::uint64_t>(stream)), index);
}

/// sweep_agent: run_sweep of pll on the agent engine at one size, repetition
/// concurrency = nproc. Enough repetitions that the ~30% timer share, which
/// holds ~85-90% of the wall time, settles.
struct SweepPlan {
    static constexpr std::size_t n = 4096;
    static constexpr std::size_t warmup_reps = 64;
    std::size_t reps = 0;

    explicit SweepPlan(const Args& args)
        : reps(static_cast<std::size_t>(std::lround(270.0 * args.seconds))) {}

    [[nodiscard]] ppsim::SweepConfig config(std::uint64_t root_seed,
                                            std::size_t repetitions) const {
        ppsim::SweepConfig config;
        config.protocol = protocol;
        config.sizes = {n};
        config.repetitions = repetitions;
        config.seed = root_seed;
        config.threads = 0;
        config.engine = ppsim::EngineKind::agent;
        config.budget = [](std::size_t size) { return cli_budget(size); };
        return config;
    }
};

/// elect_gillespie: pll elections one at a time on the gillespie engine.
/// Seeds are drawn in order until the run holds `qe_quota` QE and
/// `timer_quota` timer elections; the stop is count-based, so both class
/// rates exist under every seed. Once the timer quota is full, a further
/// election is cut at the QE cut-off and discarded when it has not settled
/// by then (a timer election costs 6-25 s, a cut one ~0.4 s).
struct GillespiePlan {
    static constexpr std::size_t n = std::size_t{1} << 20U;
    static constexpr std::size_t max_draws = 400;
    /// The gillespie rates take each timer election over its first
    /// `timer_window` parallel time only: QuickElimination and the count-up
    /// timer wait, which every timer election runs through (epoch 2 began at
    /// 347-355 parallel time in five of five timer elections at this n). The
    /// epochs after the wait cost a different amount per leap, and their
    /// share of three timer elections varies with the seed: whole-election
    /// timer rates ranged 46-62 parallel time/s over nine seeds. With n a
    /// power of two the window ends on a leap boundary, so marking it does
    /// not change the election.
    static constexpr double timer_window = 320.0;
    std::size_t timer_quota = 0;
    std::size_t qe_quota = 0;

    explicit GillespiePlan(const Args& args)
        : timer_quota(static_cast<std::size_t>(std::max(1L, std::lround(args.seconds / 8.0)))),
          qe_quota(6 * timer_quota) {}
};

/// observed_agent: pll elections on the agent engine with the observers
/// `ppsim_sim --trajectory` and `--deadline` attach, periodic checkpoints to
/// a fresh file per election, and a resume from the last checkpoint after
/// each election. Elections are drawn until their summed stabilisation time
/// reaches `model_time`, so a run's length does not hang on how many seeds
/// take the long path.
struct ObservedPlan {
    static constexpr std::size_t n = std::size_t{1} << 14U;
    static constexpr double deadline = 16.0;
    static constexpr StepCount stride = n / 4;           ///< ppsim_sim --trajectory default
    static constexpr StepCount checkpoint_every = 4 * n;  ///< < the shortest election (~12 n)
    double model_time = 0.0;

    explicit ObservedPlan(const Args& args) : model_time(380.0 * args.seconds) {}

    [[nodiscard]] static std::string checkpoint_path(const Args& args, std::size_t election) {
        return args.dir + "/observed-" + std::to_string(election) + ".ppck";
    }
};

/// Reference class mix for the expected-elections rate of the workloads that
/// run tens of elections one at a time. There a measured elections/s tracks
/// how many seeds took the long path (a timer election's stabilisation time
/// varies 2-4x between epoch 2 and BackUp), so those workloads report the
/// elections per second their measured class rates give at this fixed mix.
/// Constants: the share of QE elections and the mean stabilisation times
/// (parallel time) of the two classes, rounded from the ROADMAP's measured
/// means (91 at 2^14, 161 at 2^18) at a ~30% timer share.
struct ReferenceMix {
    double qe_share;
    double qe_time;
    double timer_time;

    [[nodiscard]] double elections_per_s(double qe_rate, double timer_rate) const {
        const double seconds_per_election =
            qe_share * qe_time / qe_rate + (1.0 - qe_share) * timer_time / timer_rate;
        return 1.0 / seconds_per_election;
    }
};
inline constexpr ReferenceMix gillespie_mix{0.70, 20.0, 450.0};
inline constexpr ReferenceMix observed_mix{0.70, 16.0, 300.0};

// --- measurements -------------------------------------------------------------

/// Returns the allocator's free memory to the system, then resets the
/// process's peak resident set to its current resident set (Linux
/// `clear_refs` mode 5), so the next `peak_rss_mb` reads the peak of what
/// runs in between. Without the trim, the resident set at the reset holds
/// whatever earlier elections left in the allocator (5.7 to 47 MB across
/// gillespie runs). Where the kernel does not allow the reset, the peak
/// stays the process-lifetime peak.
inline void reset_peak_rss() {
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
}

/// Peak resident set in MB: VmHWM (since the last reset), or the
/// process-lifetime peak where /proc is unavailable.
[[nodiscard]] inline double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

[[nodiscard]] inline double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Per-class sums over one run's elections.
struct ClassTally {
    std::size_t elections = 0;
    double model_time = 0.0;  ///< Σ stabilisation time (parallel time)
    double wall = 0.0;        ///< Σ election wall seconds

    void add(double time, double seconds) {
        ++elections;
        model_time += time;
        wall += seconds;
    }
    [[nodiscard]] double rate() const { return wall > 0.0 ? model_time / wall : 0.0; }
};

/// FNV-1a digest of a run's election outcomes (draw index, stabilisation
/// step), so run.py can check that the traced run's elections reached the
/// same stabilisation steps as the untraced run's.
class OutcomeDigest {
public:
    void add(std::uint64_t draw, std::optional<StepCount> stabilization_step) {
        mix(draw);
        mix(stabilization_step ? *stabilization_step + 1 : 0);
    }
    [[nodiscard]] std::string hex() const {
        std::ostringstream out;
        out << std::hex << hash_;
        return out.str();
    }

private:
    void mix(std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (v >> (8 * byte)) & 0xFFU;
            hash_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// --- report ---------------------------------------------------------------------

[[nodiscard]] inline std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

[[nodiscard]] inline std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

[[nodiscard]] inline std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

/// One program's result: checked elections, metrics with units, and
/// descriptive facts (host stamp, class counts). Printed as the last line
/// of standard output, as one JSON object.
class Report {
public:
    Report(const Args& args, bool traced) {
        fact("workload", args.workload);
        fact("seed", std::to_string(args.seed));
        fact("seconds", json_number(args.seconds));
        fact("traced", traced ? "1" : "0");
        fact("nproc", std::to_string(std::thread::hardware_concurrency()));
        fact("cpu_model", cpu_model());
        fact("compiler", EB_COMPILER);
        fact("flags", EB_FLAGS);
        fact("build_type", EB_BUILD_TYPE);
    }

    void metric(const std::string& name, double value, const std::string& unit) {
        metrics_[name] = {value, unit};
    }
    void fact(const std::string& name, const std::string& value) { facts_[name] = value; }

    /// Records one checked output; a miss makes the whole run incorrect.
    void check(bool ok, const std::string& what) {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::cerr << "check failed: " << what << "\n";
        }
    }

    [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }

    void print() const {
        std::ostringstream out;
        out << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {";
        bool first = true;
        for (const auto& [name, m] : metrics_) {
            out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": {\"value\": "
                << json_number(m.first) << ", \"unit\": \"" << json_escape(m.second) << "\"}";
            first = false;
        }
        out << "}, \"facts\": {";
        first = true;
        for (const auto& [name, value] : facts_) {
            out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": \""
                << json_escape(value) << "\"";
            first = false;
        }
        out << "}}";
        std::cout << out.str() << std::endl;
    }

private:
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::map<std::string, std::string> facts_;
};

/// Shared `main` body: parses arguments, runs `body`, prints the report and
/// maps the outcome to the exit code (0 correct, 1 a failed check, 2 error).
template <typename Body>
int run_program(int argc, char** argv, bool traced, Body body) {
    try {
        const Args args = parse_args(argc, argv);
        Report report(args, traced);
        body(args, report);
        report.print();
        return report.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}

}  // namespace eb
