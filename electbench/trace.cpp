// eb_trace: the benchmark's workloads with tracing on.
//
//   eb_trace --workload sweep_agent|elect_gillespie|observed_agent
//            --seed <n> --seconds <s> --dir <output dir>
//
// Runs the elections of eb_workloads (same plans, same seeds) and records a
// span around each call this file makes into a layer: name, start, end,
// parent span and election id. Spans stay in memory and are written to
// <dir>/spans.csv when the run ends, beside the recorded layer inputs that
// eb_replay reads (<dir>/census.bin, <dir>/agents.bin). Prints one JSON
// report line with the per-layer metrics measured here.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "bench.hpp"
#include "core/observer.hpp"
#include "core/persist.hpp"
#include "inputs.hpp"

namespace {

using namespace eb;
using ppsim::EngineKind;
using ppsim::Pll;
using ppsim::PllState;
using ppsim::RunResult;
using ppsim::Simulation;
using PllAgentSimulation = ppsim::detail::AgentSimulation<Pll>;
using PllGillespieSimulation = ppsim::detail::GillespieSimulation<Pll>;
using PllGillespieEngine = ppsim::GillespieEngine<Pll>;

// --- spans -------------------------------------------------------------------------

struct Span {
    const char* name = "";  ///< a string literal
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    std::int64_t parent = -1;
    std::int64_t election = -1;
};

/// In-memory span log. Thread-safe: sweep repetitions open and close their
/// spans on the shared pool's workers.
class Tracer {
public:
    std::int64_t open(const char* name, std::int64_t parent, std::int64_t election) {
        const double now = seconds_since(origin_);
        const std::lock_guard lock(mutex_);
        spans_.push_back(Span{name, now, now, parent, election});
        return static_cast<std::int64_t>(spans_.size()) - 1;
    }

    /// Closes span `id` and returns its duration in seconds.
    double close(std::int64_t id) {
        const double now = seconds_since(origin_);
        const std::lock_guard lock(mutex_);
        Span& span = spans_[static_cast<std::size_t>(id)];
        span.end = now;
        return span.end - span.start;
    }

    struct Totals {
        std::size_t count = 0;
        double seconds = 0.0;       ///< Σ durations
        double self_seconds = 0.0;  ///< Σ durations minus the union of each span's children
    };

    /// Per-name totals. A span's self time is its duration minus the part of
    /// its interval its child spans cover (children of a sweep overlap, so
    /// the covered part is the union of their intervals).
    [[nodiscard]] std::map<std::string, Totals> totals() const {
        const std::lock_guard lock(mutex_);
        std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
        for (const Span& s : spans_) {
            if (s.parent >= 0) {
                children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
            }
        }
        std::map<std::string, Totals> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            auto& kids = children[i];
            std::sort(kids.begin(), kids.end());
            double covered = 0.0;
            double reach = spans_[i].start;
            for (const auto& [start, end] : kids) {
                const double from = std::max(start, reach);
                if (end > from) {
                    covered += end - from;
                    reach = end;
                }
            }
            Totals& t = out[spans_[i].name];
            const double duration = spans_[i].end - spans_[i].start;
            ++t.count;
            t.seconds += duration;
            t.self_seconds += duration - covered;
        }
        return out;
    }

    void write_csv(const std::string& path) const {
        const std::lock_guard lock(mutex_);
        std::ofstream out(path);
        out << "id,name,start_s,end_s,parent,election\n";
        out.precision(9);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << i << ',' << s.name << ',' << s.start << ',' << s.end << ',' << s.parent << ','
                << s.election << '\n';
        }
        ppsim::require(static_cast<bool>(out), "cannot write " + path);
    }

private:
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// Nearest-rank percentile (q in [0, 1]).
[[nodiscard]] double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Median seconds of one call of `build`, over `batches` batches of
/// `per_batch` calls: make_simulation is micro-scale (~1-10 us), so it is
/// timed in batches.
[[nodiscard]] double median_build_seconds(const std::function<void(std::size_t)>& build,
                                          std::size_t per_batch, std::size_t batches = 31) {
    std::vector<double> samples;
    std::size_t call = 0;
    for (std::size_t b = 0; b < batches; ++b) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < per_batch; ++i) build(call++);
        samples.push_back(seconds_since(start) / static_cast<double>(per_batch));
    }
    return median(std::move(samples));
}

double registry_make_us(const ppsim::ProtocolRegistry& registry, std::size_t n,
                        EngineKind engine, std::uint64_t seed) {
    return 1e6 * median_build_seconds(
                     [&](std::size_t i) {
                         (void)registry.make_simulation(
                             protocol, n, stream_seed(seed, Stream::setup, i), engine);
                     },
                     32);
}

/// Agent populations of one timer election at model times 8 (QuickElimination
/// running), 60 and 150 (the count-up timer wait that holds most of a timer
/// election's wall time): the inputs of the scheduler and kernel replays.
std::vector<AgentSample> record_agent_populations(const ppsim::ProtocolRegistry& registry,
                                                  std::size_t n, std::uint64_t workload_seed) {
    for (std::uint64_t i = 1; i <= 64; ++i) {
        const auto sim = registry.make_simulation(
            protocol, n, stream_seed(workload_seed, Stream::warmup, i), EngineKind::agent);
        auto& engine = dynamic_cast<PllAgentSimulation&>(*sim).engine();
        std::vector<AgentSample> samples;
        for (const double time : {8.0, 60.0, 150.0}) {
            (void)sim->run_for(ppsim::model_time_to_step(time, n) - sim->steps());
            const auto states = engine.population().states();
            samples.push_back(AgentSample{time, {states.begin(), states.end()}});
        }
        if (sim->leader_count() > 1) return samples;
    }
    throw ppsim::InvalidArgument("no timer election among 64 seeds");
}

// --- sweep_agent -----------------------------------------------------------------

struct TracedRep {
    double wall = 0.0;
    std::optional<StepCount> step;
    bool ok = false;
};

/// The repetition hook: one span per election, opened at the run layer's
/// first notification and closed at `finish`.
class RepSpan final : public ppsim::SimulationObserver {
public:
    RepSpan(TracedRep& record, Tracer& tracer, std::int64_t parent, std::int64_t election)
        : record_(record), tracer_(tracer), parent_(parent), election_(election) {}

    [[nodiscard]] StepCount next_due() const noexcept override { return no_deadline; }
    void observe(const Simulation&) override {
        if (span_ < 0) span_ = tracer_.open("agent.election", parent_, election_);
    }
    void finish(const Simulation& sim) override {
        record_.wall = tracer_.close(span_);
        record_.step = sim.stabilization_step();
        record_.ok = sim.leader_count() == 1 && record_.step.has_value();
    }

private:
    TracedRep& record_;
    Tracer& tracer_;
    std::int64_t parent_;
    std::int64_t election_;
    std::int64_t span_ = -1;
};

void sweep_agent(const Args& args, Report& report, Tracer& tracer) {
    const SweepPlan plan(args);
    const ppsim::ProtocolRegistry& registry = ppsim::ProtocolRegistry::instance();
    (void)ppsim::run_sweep(plan.config(stream_seed(args.seed, Stream::warmup), plan.warmup_reps));
    report.metric("registry.make_simulation_us",
                  registry_make_us(registry, plan.n, EngineKind::agent, args.seed), "us");

    std::vector<TracedRep> records(plan.reps);
    ppsim::SweepConfig config = plan.config(stream_seed(args.seed, Stream::sweep), plan.reps);
    const std::int64_t sweep_span = tracer.open("experiment.sweep", -1, -1);
    config.make_observer = [&](std::size_t, std::size_t rep) {
        return std::make_unique<RepSpan>(records[rep], tracer, sweep_span,
                                         static_cast<std::int64_t>(rep));
    };
    const ppsim::SweepResult result = ppsim::run_sweep(config);
    const double wall = tracer.close(sweep_span);

    double model_time = 0.0;
    double rep_wall = 0.0;
    double steps = 0.0;
    std::vector<double> rep_walls;
    OutcomeDigest digest;
    for (std::size_t rep = 0; rep < records.size(); ++rep) {
        const TracedRep& r = records[rep];
        digest.add(rep, r.step);
        report.check(r.ok, "sweep repetition " + std::to_string(rep) + " did not elect one leader");
        if (!r.ok) continue;
        model_time += ppsim::to_parallel_time(*r.step, plan.n);
        steps += static_cast<double>(*r.step);
        rep_wall += r.wall;
        rep_walls.push_back(r.wall);
    }
    report.check(result.points.size() == 1 && result.points[0].failures == 0,
                 "run_sweep reported failed repetitions");
    const double concurrency = std::max(1U, std::thread::hardware_concurrency());
    report.metric("experiment.occupancy", rep_wall / (wall * concurrency), "ratio");
    report.metric("experiment.rep_s.p50", median(rep_walls), "s");
    report.metric("experiment.rep_s.p99", percentile(rep_walls, 0.99), "s");
    report.metric("agent.interactions", steps, "count");
    report.metric("agent.ns_per_interaction", 1e9 * rep_wall / steps, "ns");
    report.metric("traced.parallel_time_per_s", model_time / wall, "parallel_time/s");
    report.fact("outcome_digest", digest.hex());
    write_agents(args.dir + "/agents.bin", record_agent_populations(registry, plan.n, args.seed));
}

// --- elect_gillespie ---------------------------------------------------------------

/// What the slicing observer gathers about one election.
struct SliceLog {
    std::array<double, 4> epoch_wall{};  ///< slice wall seconds by leading epoch
    double slice_wall = 0.0;
    double window_wall = 0.0;  ///< slice wall up to GillespiePlan::timer_window (0: not reached)
    double live_states = 0.0;  ///< Σ live states at slice starts
    std::size_t slices = 0;
    std::vector<CensusSample> samples;
};

/// Slices a gillespie election at whole model-time units. With n a power of
/// two the n/64-step leaps end exactly on those boundaries, so the sliced
/// election follows the unsliced one step for step (run.py compares their
/// outcome digests). At each boundary it reads the leading epoch and the live
/// census through the typed engine, opens a slice span, and keeps the census
/// of sampled slices as replay input.
class Slicer final : public ppsim::SimulationObserver {
public:
    Slicer(const PllGillespieEngine& engine, std::size_t n, Tracer& tracer, std::int64_t parent,
           std::int64_t election, SliceLog& log)
        : engine_(engine),
          n_(n),
          tracer_(tracer),
          parent_(parent),
          election_(election),
          log_(log) {}

    [[nodiscard]] StepCount next_due() const noexcept override { return next_; }
    void observe(const Simulation& sim) override {
        close_slice();
        const StepCount now = sim.steps();
        if (now % n_ != 0) return;  // the election ended inside a unit
        next_ = now + n_;
        open_slice(now / n_);
    }
    void finish(const Simulation&) override { close_slice(); }

private:
    void open_slice(StepCount unit) {
        if (static_cast<double>(unit) == GillespiePlan::timer_window) {
            log_.window_wall = log_.slice_wall;
        }
        epoch_ = 1;
        const auto& store = engine_.store();
        CensusSample sample;
        for (const ppsim::StateId id : store.live_ids()) {
            const std::uint64_t count = store.counts()[id];
            if (count == 0) continue;
            const PllState& state = store.index().state(id);
            epoch_ = std::max<unsigned>(epoch_, state.epoch);
            sample.census.emplace_back(state, count);
        }
        log_.live_states += static_cast<double>(sample.census.size());
        ++log_.slices;
        // Every unit while QuickElimination runs, every fourth unit after:
        // uniform in model time within each phase, so the samples weight the
        // replayed leaps like the election's own leaps.
        if (unit < 32 || unit % 4 == 0) {
            sample.election = static_cast<std::uint32_t>(election_);
            sample.n = n_;
            sample.leap = n_ / PllGillespieEngine::leap_divisor;
            log_.samples.push_back(std::move(sample));
        }
        span_ = tracer_.open("gillespie.slice", parent_, election_);
    }

    void close_slice() {
        if (span_ < 0) return;
        const double wall = tracer_.close(span_);
        log_.epoch_wall[epoch_ - 1] += wall;
        log_.slice_wall += wall;
        span_ = -1;
    }

    const PllGillespieEngine& engine_;
    std::size_t n_;
    Tracer& tracer_;
    std::int64_t parent_;
    std::int64_t election_;
    SliceLog& log_;
    StepCount next_ = 0;
    unsigned epoch_ = 1;
    std::int64_t span_ = -1;
};

struct GillespieClass {
    std::size_t elections = 0;
    double model_time = 0.0;
    double slice_wall = 0.0;
    double rate_time = 0.0;  ///< model time and wall of the rate: timer elections count
    double rate_wall = 0.0;  ///< up to GillespiePlan::timer_window, as in eb_workloads
    double leaps = 0.0;
    double live_states = 0.0;
    double slices = 0.0;
};

void elect_gillespie(const Args& args, Report& report, Tracer& tracer) {
    const GillespiePlan plan(args);
    const std::size_t n = GillespiePlan::n;
    const ppsim::ProtocolRegistry& registry = ppsim::ProtocolRegistry::instance();
    {
        const auto sim = registry.make_simulation(
            protocol, n, stream_seed(args.seed, Stream::warmup), EngineKind::gillespie);
        (void)sim->run_for(ppsim::model_time_to_step(16.0, n));
    }
    report.metric("registry.make_simulation_us",
                  registry_make_us(registry, n, EngineKind::gillespie, args.seed), "us");

    GillespieClass qe;
    GillespieClass timer;
    std::array<double, 4> timer_epoch_wall{};
    double exact_events = 0.0;
    double dropped = 0.0;
    double leap_pairs = 0.0;
    std::vector<CensusSample> samples;
    std::size_t draws = 0;
    OutcomeDigest digest;
    while (qe.elections < plan.qe_quota || timer.elections < plan.timer_quota) {
        if (draws == GillespiePlan::max_draws) {
            report.check(false, "class quotas not met within the seed draw limit");
            break;
        }
        const std::size_t draw = draws++;
        const auto sim = registry.make_simulation(
            protocol, n, stream_seed(args.seed, Stream::gillespie, draw), EngineKind::gillespie);
        const PllGillespieEngine& engine = dynamic_cast<PllGillespieSimulation&>(*sim).engine();
        const bool timer_full = timer.elections >= plan.timer_quota;
        const StepCount budget =
            timer_full ? ppsim::model_time_to_step(qe_cutoff, n) : cli_budget(n);
        const auto election = static_cast<std::int64_t>(draw);
        const std::int64_t span = tracer.open("gillespie.election", -1, election);
        SliceLog log;
        Slicer slicer(engine, n, tracer, span, election, log);
        sim->add_observer(slicer);
        const RunResult result = ppsim::run_to_single_leader(*sim, budget);
        tracer.close(span);
        digest.add(draw, result.stabilization_step);
        if (timer_full && !result.converged) continue;
        const bool ok = result.converged && result.leader_count == 1 &&
                        result.stabilization_step.has_value();
        report.check(ok, "gillespie election " + std::to_string(draw) +
                             " did not elect one leader within the budget");
        if (!ok) continue;
        const double time = result.stabilization_parallel_time(n);
        unsigned final_epoch = 1;
        engine.visit_counts([&](const PllState& s, std::uint64_t, ppsim::Role) {
            final_epoch = std::max<unsigned>(final_epoch, s.epoch);
        });
        report.check((final_epoch == 1) == is_qe(time),
                     "election " + std::to_string(draw) + " settled in epoch " +
                         std::to_string(final_epoch) + " at parallel time " +
                         std::to_string(time) + ", across the QE cut-off");
        GillespieClass& tally = is_qe(time) ? qe : timer;
        if (tally.elections == (is_qe(time) ? plan.qe_quota : plan.timer_quota)) continue;
        ++tally.elections;
        tally.model_time += time;
        tally.slice_wall += log.slice_wall;
        const bool windowed = !is_qe(time) && log.window_wall > 0.0;
        tally.rate_time += windowed ? GillespiePlan::timer_window : time;
        tally.rate_wall += windowed ? log.window_wall : log.slice_wall;
        tally.leaps += static_cast<double>(engine.leaps_taken());
        tally.live_states += log.live_states;
        tally.slices += static_cast<double>(log.slices);
        if (!is_qe(time)) {
            for (std::size_t e = 0; e < 4; ++e) timer_epoch_wall[e] += log.epoch_wall[e];
        }
        exact_events += static_cast<double>(engine.exact_events());
        dropped += static_cast<double>(engine.dropped_pairs());
        leap_pairs += static_cast<double>(engine.leaps_taken() *
                                          (n / PllGillespieEngine::leap_divisor));
        for (CensusSample& s : log.samples) {
            s.qe = is_qe(time) ? 1 : 0;
            samples.push_back(std::move(s));
        }
    }
    for (const auto& [name, c] : {std::pair{"qe", qe}, std::pair{"timer", timer}}) {
        const std::string suffix = std::string(".") + name;
        report.metric("gillespie.leaps" + suffix, c.leaps / static_cast<double>(c.elections),
                      "count");
        report.metric("gillespie.us_per_leap" + suffix, 1e6 * c.slice_wall / c.leaps, "us");
        report.metric("gillespie.live_states" + suffix, c.live_states / c.slices, "count");
    }
    report.metric("gillespie.exact_events", exact_events, "count");
    report.metric("gillespie.dropped_per_mpair", 1e6 * dropped / leap_pairs, "count");
    for (std::size_t e = 0; e < 4; ++e) {
        report.metric("pll.epoch_share." + std::to_string(e + 1),
                      timer_epoch_wall[e] / timer.slice_wall, "ratio");
    }
    report.metric("traced.parallel_time_per_s",
                  (qe.rate_time + timer.rate_time) / (qe.rate_wall + timer.rate_wall),
                  "parallel_time/s");
    report.fact("outcome_digest", digest.hex());
    write_census(args.dir + "/census.bin", samples);
}

// --- observed_agent ----------------------------------------------------------------

/// Delegating timer around a library observer: one span per call, under
/// the span `parent` names when the call happens.
class TimedObserver final : public ppsim::SimulationObserver {
public:
    TimedObserver(ppsim::SimulationObserver& inner, const char* name, Tracer& tracer,
                  const std::int64_t& parent, std::int64_t election)
        : inner_(inner), name_(name), tracer_(tracer), parent_(parent), election_(election) {}

    [[nodiscard]] StepCount next_due() const noexcept override { return inner_.next_due(); }
    void observe(const Simulation& sim) override {
        const std::int64_t span = tracer_.open(name_, parent_, election_);
        inner_.observe(sim);
        tracer_.close(span);
    }
    void finish(const Simulation& sim) override {
        const std::int64_t span = tracer_.open(name_, parent_, election_);
        inner_.finish(sim);
        tracer_.close(span);
    }
    void save_state(ppsim::CheckpointWriter& w) const override { inner_.save_state(w); }
    void restore_state(ppsim::CheckpointReader& r) override { inner_.restore_state(r); }

private:
    ppsim::SimulationObserver& inner_;
    const char* name_;
    Tracer& tracer_;
    const std::int64_t& parent_;
    std::int64_t election_;
};

/// eb_workloads' observer set, each observer behind a delegating timer.
struct TimedObserved {
    ppsim::TrajectoryRecorder trajectory{ObservedPlan::stride, true};
    ppsim::DeadlineObserver deadline{ObservedPlan::deadline, ObservedPlan::n};
    std::int64_t parent = -1;  ///< span the observer calls nest under
    std::optional<TimedObserver> timed_trajectory;
    std::optional<TimedObserver> timed_deadline;

    void attach(Simulation& sim, const std::string& checkpoint_path, Tracer& tracer,
                std::int64_t election) {
        timed_trajectory.emplace(trajectory, "observer.trajectory", tracer, parent, election);
        timed_deadline.emplace(deadline, "observer.deadline", tracer, parent, election);
        sim.add_observer(*timed_trajectory);
        sim.add_observer(*timed_deadline);
        sim.set_checkpoint(checkpoint_path, ObservedPlan::checkpoint_every);
    }
};

void observed_agent(const Args& args, Report& report, Tracer& tracer) {
    const ObservedPlan plan(args);
    const std::size_t n = ObservedPlan::n;
    const ppsim::ProtocolRegistry& registry = ppsim::ProtocolRegistry::instance();
    const std::string write_path = args.dir + "/observed-write.ppck";
    {
        const auto sim = registry.make_simulation(
            protocol, n, stream_seed(args.seed, Stream::warmup), EngineKind::agent);
        ppsim::TrajectoryRecorder trajectory(ObservedPlan::stride, true);
        ppsim::DeadlineObserver deadline(ObservedPlan::deadline, n);
        sim->add_observer(trajectory);
        sim->add_observer(deadline);
        sim->set_checkpoint(write_path, ObservedPlan::checkpoint_every);
        (void)sim->run_for(ppsim::model_time_to_step(8.0, n));
        std::remove(write_path.c_str());
    }
    report.metric("registry.make_simulation_us",
                  registry_make_us(registry, n, EngineKind::agent, args.seed), "us");

    const StepCount budget = cli_budget(n);
    double model_time = 0.0;
    double wall = 0.0;
    double steps = 0.0;
    double periodic_writes = 0.0;
    double bytes = 0.0;
    std::size_t elections = 0;
    OutcomeDigest digest;
    while (model_time < plan.model_time) {
        const std::size_t e = elections++;
        const auto election = static_cast<std::int64_t>(e);
        const std::string path = ObservedPlan::checkpoint_path(args, e);
        const auto sim = registry.make_simulation(
            protocol, n, stream_seed(args.seed, Stream::observed, e), EngineKind::agent);
        TimedObserved observed;
        observed.attach(*sim, path, tracer, election);
        observed.parent = tracer.open("observed.election", -1, election);
        const RunResult result = ppsim::run_to_single_leader(*sim, budget);

        std::optional<StepCount> resumed_step;
        bool resumed_observers_agree = false;
        StepCount checkpoint_step = 0;
        if (std::filesystem::exists(path)) {
            const std::int64_t resume_span =
                tracer.open("persist.resume", observed.parent, election);
            std::string payload;
            const ppsim::CheckpointHeader header = ppsim::load_checkpoint(path, payload);
            checkpoint_step = header.step;
            const auto resumed = registry.make_simulation(header);
            TimedObserved reobserved;
            reobserved.attach(*resumed, path, tracer, election);
            resumed->restore_checkpoint_file(path);
            tracer.close(resume_span);
            reobserved.parent = tracer.open("observed.run_on", observed.parent, election);
            (void)ppsim::run_to_single_leader(*resumed, budget - header.step);
            tracer.close(reobserved.parent);
            resumed_step = resumed->stabilization_step();
            resumed_observers_agree =
                reobserved.trajectory.points().size() == observed.trajectory.points().size() &&
                reobserved.deadline.report().has_value() &&
                observed.deadline.report().has_value() &&
                reobserved.deadline.report()->step == observed.deadline.report()->step &&
                reobserved.deadline.report()->leader_count ==
                    observed.deadline.report()->leader_count;
        }
        wall += tracer.close(observed.parent);
        std::remove(path.c_str());
        digest.add(e, result.stabilization_step);

        const bool ok = result.converged && result.leader_count == 1 &&
                        result.stabilization_step.has_value() &&
                        resumed_step == result.stabilization_step && resumed_observers_agree;
        report.check(ok, "observed election " + std::to_string(e) +
                             " missed its budget or one leader, or its resume diverged");
        if (!ok) return;
        const StepCount stab = *result.stabilization_step;
        model_time += ppsim::to_parallel_time(stab, n);
        steps += static_cast<double>(stab + (stab - checkpoint_step));
        periodic_writes += static_cast<double>(stab / ObservedPlan::checkpoint_every);

        // An explicit write of the final state times the checkpoint path the
        // periodic writes take inside the run.
        const std::int64_t write_span = tracer.open("persist.write", -1, election);
        sim->write_checkpoint(write_path);
        tracer.close(write_span);
        bytes += static_cast<double>(std::filesystem::file_size(write_path));
        std::remove(write_path.c_str());
    }

    auto totals = tracer.totals();
    const Tracer::Totals& trajectory = totals["observer.trajectory"];
    const Tracer::Totals& deadline = totals["observer.deadline"];
    const Tracer::Totals& resume = totals["persist.resume"];
    const double write_s = totals["persist.write"].seconds / static_cast<double>(elections);
    const auto counted = static_cast<double>(elections);
    // Engine time: what the election and run-on spans hold besides their
    // observer and resume children, less the periodic checkpoint writes.
    const double engine_s = totals["observed.election"].self_seconds +
                            totals["observed.run_on"].self_seconds - periodic_writes * write_s;
    report.metric("observer.calls_per_election",
                  static_cast<double>(trajectory.count + deadline.count) / counted, "count");
    report.metric("observer.trajectory_us",
                  1e6 * trajectory.seconds / static_cast<double>(trajectory.count), "us");
    report.metric("observer.deadline_us",
                  1e6 * deadline.seconds / static_cast<double>(deadline.count), "us");
    report.metric("observer.share", (trajectory.seconds + deadline.seconds) / wall, "ratio");
    report.metric("persist.bytes", bytes / counted, "B");
    report.metric("persist.write_ms", 1e3 * write_s, "ms");
    report.metric("persist.resume_ms", 1e3 * resume.seconds / static_cast<double>(resume.count),
                  "ms");
    report.metric("persist.share", (periodic_writes * write_s + resume.seconds) / wall, "ratio");
    report.metric("agent.interactions", steps, "count");
    report.metric("agent.ns_per_interaction", 1e9 * engine_s / steps, "ns");
    report.metric("traced.parallel_time_per_s", model_time / wall, "parallel_time/s");
    report.fact("outcome_digest", digest.hex());
    write_agents(args.dir + "/agents.bin", record_agent_populations(registry, n, args.seed));
}


void run_traced(const Args& args, Report& report, Tracer& tracer) {
    if (args.workload == "sweep_agent") {
        sweep_agent(args, report, tracer);
    } else if (args.workload == "elect_gillespie") {
        elect_gillespie(args, report, tracer);
    } else if (args.workload == "observed_agent") {
        observed_agent(args, report, tracer);
    } else {
        throw ppsim::InvalidArgument("unknown workload '" + args.workload + "'");
    }
}

}  // namespace

int main(int argc, char** argv) {
    return eb::run_program(argc, argv, /*traced=*/true, [](const Args& args, Report& report) {
        Tracer tracer;
        // Companion sections: the other two workloads at their one-second
        // plans, so every traced run measures every layer, and each layer's
        // replay has recorded inputs. They run first; the workload's own
        // section then overwrites the metrics and inputs they share.
        for (const char* workload : {"sweep_agent", "elect_gillespie", "observed_agent"}) {
            if (args.workload == workload) continue;
            Args companion = args;
            companion.workload = workload;
            companion.seconds = 1.0;
            run_traced(companion, report, tracer);
        }
        run_traced(args, report, tracer);
        tracer.write_csv(args.dir + "/spans.csv");
    });
}
