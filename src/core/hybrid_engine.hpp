/// \file hybrid_engine.hpp
/// \brief The adaptive hybrid meta-engine: per phase of a run, picks the
/// cheapest execution mode — agent, batched-pairwise, batched-bulk or
/// gillespie — from observed state-count features and a measured per-machine
/// cost model (calibration.hpp), and hands the live configuration between
/// engines mid-run.
///
/// **Decision model.** No fixed engine wins everywhere: a wide early state
/// profile favours pairwise batching, the absorbed null-dominated tail
/// favours the gillespie engine's geometric null-skipping, and tiny
/// populations favour the agent engine's zero per-round overhead. The hybrid
/// engine reads two cheap features off the live census at each evaluation
/// point — the live-state count d and the null-channel mass z (the fraction
/// of ordered-pair weight whose transition is the identity, rate-thinned
/// weight for rated protocols; summed over the `null_mass_state_cap`
/// highest-count states, with every excluded pair counted as non-null, so
/// wide profiles under-estimate z — the conservative direction) — and
/// predicts each mode's cost by geometric interpolation between its two
/// measured anchors, each rescaled from the probe population to the live one:
///
///     anchor(n)         = anchor_ns · (n / n_probe)^b
///     predicted_ns(mode) = wide(n)^(1−z) · narrow(n)^z
///
/// The anchors and their power-law exponents b are measured once per
/// (protocol, machine) by short probe runs at two population buckets
/// (`probe_calibration`) and cached on disk (calibration.hpp); the
/// exponents matter because per-interaction cost is strongly
/// population-dependent — the count engines amortise per-round work over
/// batches that grow with n while the agent engine's cost is flat, so
/// unscaled small-n anchors would systematically favour the agent engine at
/// exactly the populations where the count engines win. The derived
/// quantities the batched/gillespie engines gate their own paths on —
/// d_I·d_R pair-group counts and expected non-null firings per leap
/// L·(1−z) — are monotone functions of (d, z), which is why these two
/// features suffice as the interpolation coordinate.
///
/// **Hysteresis.** The engine re-evaluates at step thresholds spaced
/// geometrically (starting at max(n/4, 16384) steps, doubling up to 4n
/// while the decision is stable, resetting on a switch) and switches only
/// when the predicted win over the current mode is at least
/// `hybrid_hysteresis` (2×), so near-ties never thrash.
///
/// **Segment streams.** Each contiguous run segment k (starting at k = 0)
/// runs a fresh inner engine seeded
/// `derive_seed(root_seed, hybrid_segment_tag + k)` — the same SplitMix64
/// discipline as the fault and thinning streams, so no hybrid stream ever
/// collides with a fixed engine's streams and a segment's draws are
/// independent of how previous segments were produced. A switch hands
/// over the exact census, step counter and stabilisation step via
/// `adopt_census`; observers attached at the Simulation layer see one
/// continuous run. Evaluation happens at *step thresholds* the engine
/// enforces by clamping its own chunks, never at wall-clock times or chunk
/// boundaries chosen by callers — so observer cadences and `run_for` slicing
/// cannot perturb the switch points, and a hybrid run is seeded-reproducible
/// for a fixed calibration table (the reproducibility caveat: tables
/// measured on different machines may order modes differently; inject a
/// table via `HybridOptions` for cross-machine replay).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "batched_engine.hpp"
#include "calibration.hpp"
#include "checkpoint_io.hpp"
#include "common.hpp"
#include "engine.hpp"
#include "gillespie_engine.hpp"
#include "protocol.hpp"
#include "random.hpp"

namespace ppsim {

/// PRNG stream tag of the hybrid segment split ("hybr"): segment k of a
/// hybrid run is seeded `derive_seed(root_seed, hybrid_segment_tag + k)`.
/// Distinct from the fault ("faul") and thinning ("thin") tags, so hybrid
/// segment streams can never collide with them.
inline constexpr std::uint64_t hybrid_segment_tag = 0x68796272ULL;

/// Switch only when the predicted win over the current mode is at least
/// this factor — the anti-thrashing hysteresis.
inline constexpr double hybrid_hysteresis = 2.0;

/// The observed features of the current phase that enter the cost model.
struct PhaseFeatures {
    std::size_t live_states = 0;  ///< d: states with a non-zero count
    double null_mass = 0.0;       ///< z ∈ [0, 1]: ordered-pair weight on null channels
};

/// Predicted ns/interaction of one mode under null-channel mass `z` at
/// `scale` = n / probe_population: each anchor is rescaled by its measured
/// population power law, then the anchors are interpolated geometrically
/// (costs are ratio-scale quantities; interpolating their logs keeps a
/// 10×-spread anchor pair from being dominated by its large end).
[[nodiscard]] inline double predicted_mode_ns(const ModeCost& cost, double null_mass,
                                              double scale = 1.0) noexcept {
    const double wide =
        std::max(cost.wide_ns, 1e-3) * std::pow(scale, cost.wide_exponent);
    const double narrow =
        std::max(cost.narrow_ns, 1e-3) * std::pow(scale, cost.narrow_exponent);
    return std::pow(wide, 1.0 - null_mass) * std::pow(narrow, null_mass);
}

/// The pure mode decision: the predicted-cheapest mode under `features` at
/// population scale `scale` (n / probe_population; 1 compares raw anchors),
/// unless the win over `current` is below `hysteresis` (then `current`
/// stands). Deterministic: ties break toward the lowest mode index. Unit
/// tested directly — no engine, no clock.
[[nodiscard]] inline HybridMode choose_mode(const CalibrationTable& table,
                                            const PhaseFeatures& features,
                                            HybridMode current,
                                            double hysteresis = hybrid_hysteresis,
                                            double scale = 1.0) {
    HybridMode best = current;
    double best_ns = std::numeric_limits<double>::infinity();
    for (std::size_t m = 0; m < hybrid_mode_count; ++m) {
        const double ns = predicted_mode_ns(table.costs[m], features.null_mass, scale);
        if (ns < best_ns) {
            best_ns = ns;
            best = static_cast<HybridMode>(m);
        }
    }
    if (best == current) return current;
    const double current_ns =
        predicted_mode_ns(table.costs[static_cast<std::size_t>(current)],
                          features.null_mass, scale);
    return current_ns >= hysteresis * best_ns ? best : current;
}

/// The probe population for a target population `n`: n rounded down to a
/// power of two, clamped to [4096, 32768]. Bucketing keeps the disk cache
/// small (one file per bucket, not per n) and bounds probe cost; runs far
/// above the bucket are covered by the measured per-anchor power-law
/// exponents (ModeCost), fitted between this bucket and the smallest one,
/// which extrapolate each mode's cost to the live population instead of
/// comparing raw small-n anchors there.
[[nodiscard]] inline std::size_t probe_population_for(std::size_t n) noexcept {
    const std::size_t clamped = std::clamp<std::size_t>(n, 4096, 32768);
    std::size_t p = 4096;
    while (p * 2 <= clamped) p *= 2;
    return p;
}

/// Clamp range of the measured population power-law exponents: fitted from
/// an 8× probe span and extrapolated up to ~512× beyond it, so runaway fits
/// (probe noise on a millisecond run) must not predict absurd advantages.
/// The true exponents sit in this range: ~0 for the agent engine, negative
/// for the count engines (per-round work amortised over batches that grow
/// with n).
inline constexpr double hybrid_exponent_min = -1.0;
inline constexpr double hybrid_exponent_max = 0.5;

namespace detail {

/// Wall-clock ns/interaction of `steps` further interactions on `engine`.
template <typename EngineT>
[[nodiscard]] double probe_ns_per_step(EngineT& engine, StepCount steps) {
    const auto start = std::chrono::steady_clock::now();
    (void)engine.run_for(steps);
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    return std::max(ns / static_cast<double>(steps), 1e-3);
}

}  // namespace detail

namespace detail {

/// Measures the eight (mode × anchor) costs of `proto` at one probe
/// population: the wide anchor times a fresh engine from the initial
/// configuration; the narrow anchor times an engine that adopted the census
/// of a 32·n_p-step batched pre-run (well into the narrowing profile for
/// every protocol here, without ever waiting for convergence — probe cost is
/// O(n_p) regardless of the protocol's stabilisation time).
template <typename P>
[[nodiscard]] std::array<ModeCost, hybrid_mode_count> probe_anchors_at(
    const P& proto, std::size_t n_p) {
    using State = typename P::State;
    const auto probe_steps = static_cast<StepCount>(8 * n_p);
    constexpr std::uint64_t probe_seed = 0x70726f62ULL;  // "prob"

    std::array<ModeCost, hybrid_mode_count> costs{};
    const auto cost_slot = [&costs](HybridMode m) -> ModeCost& {
        return costs[static_cast<std::size_t>(m)];
    };

    // Wide anchors: every protocol here starts wide (all agents identical is
    // the *widest* channel profile in the null-mass sense — nearly every
    // pair reacts), and the first 8·n_p steps stay in the expanding phase.
    {
        Engine<P> e(proto, n_p, probe_seed);
        cost_slot(HybridMode::agent).wide_ns = probe_ns_per_step(e, probe_steps);
    }
    {
        BatchedEngine<P> e(proto, n_p, probe_seed, BatchMode::pairwise);
        cost_slot(HybridMode::batched_pairwise).wide_ns =
            probe_ns_per_step(e, probe_steps);
    }
    {
        BatchedEngine<P> e(proto, n_p, probe_seed, BatchMode::bulk);
        cost_slot(HybridMode::batched_bulk).wide_ns = probe_ns_per_step(e, probe_steps);
    }
    {
        GillespieEngine<P> e(proto, n_p, probe_seed);
        cost_slot(HybridMode::gillespie).wide_ns = probe_ns_per_step(e, probe_steps);
    }

    // Narrow anchors: adopt the census of a 32·n_p-step pre-run — by then
    // every protocol here has collapsed most of its mass onto few states and
    // the null channels dominate, which is the profile the gillespie
    // engine's null-skipping is built for.
    std::vector<std::pair<State, std::uint64_t>> census;
    {
        BatchedEngine<P> pre(proto, n_p, probe_seed + 1, BatchMode::automatic);
        (void)pre.run_for(static_cast<StepCount>(32 * n_p));
        pre.visit_counts([&census](const State& s, std::uint64_t c, Role) {
            census.emplace_back(s, c);
        });
    }
    {
        Engine<P> e(proto, n_p, probe_seed + 2);
        e.adopt_census(census, 0, std::nullopt);
        cost_slot(HybridMode::agent).narrow_ns = probe_ns_per_step(e, probe_steps);
    }
    {
        BatchedEngine<P> e(proto, n_p, probe_seed + 2, BatchMode::pairwise);
        e.adopt_census(census, 0, std::nullopt);
        cost_slot(HybridMode::batched_pairwise).narrow_ns =
            probe_ns_per_step(e, probe_steps);
    }
    {
        BatchedEngine<P> e(proto, n_p, probe_seed + 2, BatchMode::bulk);
        e.adopt_census(census, 0, std::nullopt);
        cost_slot(HybridMode::batched_bulk).narrow_ns =
            probe_ns_per_step(e, probe_steps);
    }
    {
        GillespieEngine<P> e(proto, n_p, probe_seed + 2);
        e.adopt_census(census, 0, std::nullopt);
        cost_slot(HybridMode::gillespie).narrow_ns = probe_ns_per_step(e, probe_steps);
    }
    return costs;
}

}  // namespace detail

/// Measures the per-mode cost anchors for `proto` at the probe bucket of
/// `n`, plus each anchor's population power-law exponent fitted against a
/// second probe at the smallest bucket (4096): b = log(ns_hi/ns_lo) /
/// log(n_hi/n_lo), clamped to [hybrid_exponent_min, hybrid_exponent_max].
/// When the bucket *is* the smallest one the exponents stay 0 — there is no
/// span to fit and nothing to extrapolate (n is within 2× of the bucket).
/// Total cost: sixteen runs of 8·n_p interactions plus two pre-runs, some
/// tens of milliseconds — paid once per (protocol, machine) and
/// cached on disk.
template <typename P>
    requires InternableProtocol<P>
[[nodiscard]] CalibrationTable probe_calibration(const P& proto, std::size_t n) {
    constexpr std::size_t n_lo = 4096;
    const std::size_t n_p = probe_population_for(n);

    CalibrationTable table;
    table.probe_population = n_p;
    table.costs = detail::probe_anchors_at(proto, n_p);
    if (n_p > n_lo) {
        const auto lo = detail::probe_anchors_at(proto, n_lo);
        const double span = std::log(static_cast<double>(n_p) / n_lo);
        for (std::size_t m = 0; m < hybrid_mode_count; ++m) {
            const auto fit = [span](double hi_ns, double lo_ns) {
                return std::clamp(std::log(std::max(hi_ns, 1e-3) /
                                           std::max(lo_ns, 1e-3)) / span,
                                  hybrid_exponent_min, hybrid_exponent_max);
            };
            table.costs[m].wide_exponent = fit(table.costs[m].wide_ns, lo[m].wide_ns);
            table.costs[m].narrow_exponent =
                fit(table.costs[m].narrow_ns, lo[m].narrow_ns);
        }
    }
    return table;
}

/// Adaptive hybrid meta-engine. Drop-in alternative to the fixed engines
/// for the run/verify surface (run_until_one_leader, run_for,
/// verify_outputs_stable, RunResult, fault injection) — the active inner
/// engine does the stepping, this class does the choosing and the handoffs.
template <typename P>
    requires InternableProtocol<P>
class HybridEngine {
public:
    using State = typename P::State;
    using Census = std::vector<std::pair<State, std::uint64_t>>;

    /// Null-mass evaluation is O(cap²) protocol transitions: the pair sum
    /// runs over the `null_mass_state_cap` highest-count states and every
    /// pair touching an excluded state counts as non-null, so z is exact for
    /// d ≤ cap and a conservative under-estimate beyond it (the excluded
    /// tail carries little pair weight once mass has concentrated — which is
    /// precisely when z matters).
    static constexpr std::size_t null_mass_state_cap = 64;

    HybridEngine(P protocol, std::size_t n, std::uint64_t seed)
        : protocol_(std::move(protocol)), n_(n), root_seed_(seed) {
        require(n >= 2, "population must contain at least two agents");
        require(n <= (std::uint64_t{1} << 32U),
                "hybrid engine supports populations up to 2^32 agents");
        table_ = calibration_for(std::string(protocol_.name()), probe_population_for(n_),
                                 [this] { return probe_calibration(protocol_, n_); });
        Census initial;
        initial.emplace_back(protocol_.initial_state(), n_);
        // The initial pick is hysteresis-free (there is no incumbent).
        construct_engine(choose_mode(table_, features_of(initial),
                                     HybridMode::batched_bulk, /*hysteresis=*/1.0,
                                     population_scale()));
        eval_interval_ = initial_eval_interval();
        next_eval_step_ = eval_interval_;
    }

    // --- observation ------------------------------------------------------

    [[nodiscard]] std::size_t population_size() const noexcept { return n_; }
    [[nodiscard]] StepCount steps() const noexcept {
        return with_engine([](const auto& e) { return e.steps(); });
    }
    [[nodiscard]] double parallel_time() const noexcept {
        return to_parallel_time(steps(), n_);
    }
    [[nodiscard]] std::size_t leader_count() const noexcept {
        return with_engine([](const auto& e) { return e.leader_count(); });
    }
    [[nodiscard]] const P& protocol() const noexcept { return protocol_; }
    [[nodiscard]] std::optional<StepCount> stabilization_step() const noexcept {
        return with_engine([](const auto& e) { return e.stabilization_step(); });
    }

    /// The mode currently executing.
    [[nodiscard]] HybridMode mode() const noexcept { return mode_; }
    /// Mid-run mode switches performed so far.
    [[nodiscard]] std::size_t switches() const noexcept { return switches_; }
    /// The cost table driving the decisions.
    [[nodiscard]] const CalibrationTable& calibration_table() const noexcept {
        return table_;
    }

    /// Number of distinct states with a non-zero count. O(#states) on the
    /// count modes, one hashed O(n) pass (`census_of`) in agent mode.
    [[nodiscard]] std::size_t live_state_count() const {
        if (mode_ == HybridMode::agent) return collect_census().size();
        return with_engine([](const auto& e) {
            if constexpr (requires { e.live_state_count(); }) {
                return e.live_state_count();
            } else {
                return std::size_t{0};  // unreachable: agent handled above
            }
        });
    }

    /// Sum of all counts — the population size, by conservation.
    [[nodiscard]] std::uint64_t total_count() const {
        std::uint64_t total = 0;
        visit_counts([&total](const State&, std::uint64_t c, Role) { total += c; });
        return total;
    }

    /// Visits every state with a non-zero count as (state, count, role),
    /// regardless of the active mode (agent mode pays an O(n) walk).
    template <typename Visitor>
    void visit_counts(Visitor&& visit) const {
        if (mode_ == HybridMode::agent) {
            for (const auto& [s, c] : collect_census()) {
                visit(s, c, protocol_.output(s));
            }
            return;
        }
        if (mode_ == HybridMode::gillespie) {
            gillespie_->visit_counts(visit);
        } else {
            batched_->visit_counts(visit);
        }
    }

    /// Recomputes the leader count from the configuration (tests / checks).
    std::size_t recount_leaders() {
        return with_engine([](auto& e) { return e.recount_leaders(); });
    }

    // --- execution --------------------------------------------------------

    /// Runs until exactly one leader remains or `max_steps` further steps
    /// have been executed, whichever comes first. Chunks are clamped at the
    /// engine's own evaluation thresholds, so mode decisions land at the
    /// identical steps no matter how callers slice the run.
    RunResult run_until_one_leader(StepCount max_steps) {
        StepCount executed = 0;
        while (leader_count() != 1 && executed < max_steps) {
            executed += slice(max_steps - executed, /*stop_at_single_leader=*/true);
        }
        return make_result(leader_count() == 1);
    }

    /// Runs exactly `count` steps (every inner engine clamps to its budget).
    RunResult run_for(StepCount count) {
        StepCount executed = 0;
        while (executed < count) {
            executed += slice(count - executed, /*stop_at_single_leader=*/false);
        }
        return make_result(leader_count() == 1);
    }

    /// Runs `count` additional steps and reports whether any agent's output
    /// changed. A certification suffix, not part of the adaptive trajectory:
    /// it runs entirely on the active mode, with no evaluations or switches.
    [[nodiscard]] bool verify_outputs_stable(StepCount count) {
        return with_engine([count](auto& e) { return e.verify_outputs_stable(count); });
    }

    // --- fault injection ---------------------------------------------------

    /// Forwards one crash/rejoin/reset fault to the active engine (whose
    /// surgery and single-leader re-anchoring are authoritative), then
    /// re-reads the population size — a crash or rejoin changes n, which
    /// feeds the evaluation cadence and any later engine handoff.
    void apply_fault(const FaultAction& action) {
        with_engine([&action](auto& e) { e.apply_fault(action); });
        n_ = with_engine([](const auto& e) { return e.population_size(); });
    }

    /// Advances the step counter through a rate-zero silence window.
    void advance_silent(StepCount count) noexcept {
        with_engine([count](auto& e) { e.advance_silent(count); });
    }

    // --- test hooks -------------------------------------------------------

    /// Pins the engine to `m` from now on: switches immediately (full census
    /// handoff) when `m` is not the active mode, and disables all further
    /// evaluations. The deterministic forced-switch harness for tests.
    void force_mode(HybridMode m) {
        forced_ = true;
        next_eval_step_ = std::numeric_limits<StepCount>::max();
        if (m != mode_) switch_to(m, collect_census());
    }

    /// The agent-mode engine's population (tests); requires agent mode.
    [[nodiscard]] const Population<State>& agent_population() const {
        require(mode_ == HybridMode::agent, "the hybrid engine is not in agent mode");
        return agent_->population();
    }

    /// Per-evaluation census sample size in agent mode: features come from
    /// the census of this many agents instead of all n, so an evaluation
    /// costs O(cap) there — random pairing keeps agent positions
    /// exchangeable, so a fixed prefix is a uniform multiset sample, and
    /// using a fixed one keeps the run deterministic (no extra PRNG draws).
    static constexpr std::size_t feature_sample_cap = 4096;

    /// The census of the live configuration, sorted by canonical state key
    /// (deterministic across modes). O(#states) on count modes, O(n) in
    /// agent mode. Always exact — this is what mode handoffs transfer.
    [[nodiscard]] Census collect_census() const {
        if (mode_ == HybridMode::agent) {
            return census_of_agents(agent_->population().states().size());
        }
        Census census;
        visit_counts([&census](const State& s, std::uint64_t c, Role) {
            census.emplace_back(s, c);
        });
        sort_census(census);
        return census;
    }

    /// The decision features of a census: live-state count, and the
    /// null-channel mass by direct protocol evaluation over the ordered
    /// pairs of the `null_mass_state_cap` highest-count states (rate-thinned
    /// weight for rated protocols). Pairs touching an excluded state count
    /// as non-null, so z is exact for d ≤ cap and an under-estimate beyond
    /// it — conservative, because low z keeps the decision on the wide
    /// anchors. The pair weight is normalised by the census's own total, so
    /// a sampled census (agent mode) yields its sample estimate of z.
    [[nodiscard]] PhaseFeatures features_of(const Census& census) const {
        PhaseFeatures f;
        f.live_states = census.size();
        std::uint64_t total = 0;
        for (const auto& [s, c] : census) total += c;
        if (census.empty() || total < 2) return f;
        const Census* considered = &census;
        Census top;
        if (census.size() > null_mass_state_cap) {
            top = census;
            // Deterministic subset: count descending, state key ascending on
            // ties (the census itself arrives key-sorted).
            std::partial_sort(top.begin(), top.begin() + null_mass_state_cap,
                              top.end(), [this](const auto& a, const auto& b) {
                                  if (a.second != b.second) return a.second > b.second;
                                  return state_key_of(protocol_, a.first) <
                                         state_key_of(protocol_, b.first);
                              });
            top.resize(null_mass_state_cap);
            considered = &top;
        }
        const double w_total =
            static_cast<double>(total) * (static_cast<double>(total) - 1.0);
        double included = 0.0;  // ordered-pair weight of the considered pairs
        double nonnull = 0.0;   // its non-null (rate-thinned) part
        for (const auto& [sa, ca] : *considered) {
            for (const auto& [sb, cb] : *considered) {
                const double w =
                    state_key_of(protocol_, sa) == state_key_of(protocol_, sb)
                        ? static_cast<double>(ca) * (static_cast<double>(ca) - 1.0)
                        : static_cast<double>(ca) * static_cast<double>(cb);
                if (w <= 0.0) continue;
                included += w;
                State x = sa;
                State y = sb;
                protocol_.interact(x, y);
                const bool is_null =
                    state_key_of(protocol_, x) == state_key_of(protocol_, sa) &&
                    state_key_of(protocol_, y) == state_key_of(protocol_, sb);
                if (is_null) continue;
                if constexpr (RatedProtocol<P>) {
                    const double rmax = max_rate_of(protocol_);
                    nonnull += rmax > 0.0
                                   ? w * pair_rate_of(protocol_, sa, sb) / rmax
                                   : 0.0;
                } else {
                    nonnull += w;
                }
            }
        }
        // Everything outside the considered pairs counts as non-null.
        f.null_mass = std::clamp((included - nonnull) / w_total, 0.0, 1.0);
        return f;
    }

    // --- checkpointing ------------------------------------------------------

    /// Serialises the meta-engine's adaptive state — the active mode, the
    /// segment index (stream split position), the evaluation cadence — plus
    /// the calibration table that drove every decision so far (a resumed run
    /// must keep deciding from the *same* table: re-probing on resume would
    /// fork the trajectory) and the active inner engine's full state.
    void save_state(CheckpointWriter& w) const {
        w.u64(n_);
        w.u8(static_cast<std::uint8_t>(mode_));
        w.u64(segment_);
        w.u64(switches_);
        w.u64(eval_interval_);
        w.u64(next_eval_step_);
        w.boolean(forced_);
        w.u64(table_.probe_population);
        for (const ModeCost& cost : table_.costs) {
            w.f64(cost.wide_ns);
            w.f64(cost.narrow_ns);
            w.f64(cost.wide_exponent);
            w.f64(cost.narrow_exponent);
        }
        with_engine([&w](const auto& e) { e.save_state(w); });
    }

    /// Restores a `save_state` payload into an engine built with the same
    /// protocol and root seed. The checkpointed table replaces
    /// whatever the constructor probed (or read from the cache), and the
    /// active inner engine is rebuilt on its original segment stream before
    /// its own state is restored into it.
    void restore_state(CheckpointReader& r) {
        const std::uint64_t restored_n = r.u64();
        // Inner constructors demand two agents, but a crash fault may have
        // checkpointed a single survivor; construct at 2 and let the inner
        // restore re-apply the true population (it overwrites everything).
        n_ = std::max<std::size_t>(restored_n, 2);
        const std::uint8_t mode = r.u8();
        require(mode < hybrid_mode_count, "checkpoint names an unknown hybrid mode");
        segment_ = r.u64();
        switches_ = r.u64();
        eval_interval_ = r.u64();
        next_eval_step_ = r.u64();
        forced_ = r.boolean();
        table_.probe_population = r.u64();
        for (ModeCost& cost : table_.costs) {
            cost.wide_ns = r.f64();
            cost.narrow_ns = r.f64();
            cost.wide_exponent = r.f64();
            cost.narrow_exponent = r.f64();
        }
        construct_engine(static_cast<HybridMode>(mode));
        with_engine([&r](auto& e) { e.restore_state(r); });
        n_ = restored_n;
    }

private:
    // --- census helpers ---------------------------------------------------

    void sort_census(Census& census) const {
        std::sort(census.begin(), census.end(),
                  [this](const auto& a, const auto& b) {
                      return state_key_of(protocol_, a.first) <
                             state_key_of(protocol_, b.first);
                  });
    }

    /// Census of the first `limit` agents of the agent engine's population
    /// (the whole population when limit ≥ n), key-sorted.
    [[nodiscard]] Census census_of_agents(std::size_t limit) const {
        const auto states = agent_->population().states();
        return census_of(protocol_, states.first(std::min(limit, states.size())));
    }

    /// The census evaluations read features from: exact on the count modes
    /// (O(#states) there), a `feature_sample_cap`-agent sample in agent mode
    /// — so the per-evaluation cost never scales with n. Handoffs always use
    /// the exact `collect_census`.
    [[nodiscard]] Census feature_census() const {
        if (mode_ != HybridMode::agent) return collect_census();
        return census_of_agents(feature_sample_cap);
    }

    // --- mode dispatch ----------------------------------------------------

    template <typename F>
    decltype(auto) with_engine(F&& f) {
        switch (mode_) {
            case HybridMode::agent: return f(*agent_);
            case HybridMode::batched_pairwise:
            case HybridMode::batched_bulk: return f(*batched_);
            case HybridMode::gillespie: return f(*gillespie_);
        }
        return f(*gillespie_);  // unreachable
    }

    template <typename F>
    decltype(auto) with_engine(F&& f) const {
        switch (mode_) {
            case HybridMode::agent: return f(*agent_);
            case HybridMode::batched_pairwise:
            case HybridMode::batched_bulk: return f(*batched_);
            case HybridMode::gillespie: return f(*gillespie_);
        }
        return f(*gillespie_);  // unreachable
    }

    // --- run loop ---------------------------------------------------------

    /// One chunk: evaluate at a due threshold, then advance the active
    /// engine up to the next threshold (or the budget, whichever is
    /// nearer); returns the steps executed.
    StepCount slice(StepCount budget, bool stop_at_single_leader) {
        maybe_evaluate();
        const StepCount now = steps();
        const StepCount to_eval =
            next_eval_step_ > now ? next_eval_step_ - now : StepCount{1};
        const StepCount chunk = std::min(budget, to_eval);
        if (stop_at_single_leader) {
            with_engine([chunk](auto& e) { (void)e.run_until_one_leader(chunk); });
        } else {
            with_engine([chunk](auto& e) { (void)e.run_for(chunk); });
        }
        return steps() - now;
    }

    /// The evaluation interval restarts here after every switch (and at
    /// construction): big enough that the census walk (O(n) in agent mode)
    /// and the cap² feature pairs amortise to a few percent of the interval's
    /// own work, small enough to catch a phase change within about one
    /// parallel-time unit.
    [[nodiscard]] StepCount initial_eval_interval() const noexcept {
        return std::max<StepCount>(n_ / 4, 16384);
    }

    /// n / probe_population — the extrapolation coordinate of the cost
    /// model's power laws (1 when the table carries no probe population,
    /// e.g. a hand-built injected table).
    [[nodiscard]] double population_scale() const noexcept {
        return table_.probe_population > 0
                   ? static_cast<double>(n_) /
                         static_cast<double>(table_.probe_population)
                   : 1.0;
    }

    /// Re-decides the mode when a threshold has been reached: census →
    /// features → choose_mode (with hysteresis). A stable decision backs
    /// the cadence off geometrically (capped at 4n); a switch resets it.
    void maybe_evaluate() {
        if (forced_ || steps() < next_eval_step_) return;
        if (n_ < 2) {  // a crash fault left one survivor: nothing to choose
            next_eval_step_ = std::numeric_limits<StepCount>::max();
            return;
        }
        const HybridMode target = choose_mode(table_, features_of(feature_census()),
                                              mode_, hybrid_hysteresis,
                                              population_scale());
        if (target != mode_) {
            switch_to(target, collect_census());
            eval_interval_ = initial_eval_interval();
        } else {
            eval_interval_ = std::min<StepCount>(eval_interval_ * 2, 4 * n_);
        }
        next_eval_step_ = steps() + eval_interval_;
    }

    // --- engine handoff ---------------------------------------------------

    /// Replaces the active engine with a fresh `m`-mode engine on the next
    /// segment stream and hands it the census, step counter and
    /// stabilisation step — the mid-run switch.
    void switch_to(HybridMode m, const Census& census) {
        const StepCount now = steps();
        const std::optional<StepCount> stab = stabilization_step();
        ++segment_;
        construct_engine(m);
        with_engine([&](auto& e) { e.adopt_census(census, now, stab); });
        ++switches_;
    }

    /// Builds the inner engine for `m` on the current segment's stream (a
    /// fresh all-initial configuration at step 0; callers adopt a census
    /// into it when continuing a run).
    void construct_engine(HybridMode m) {
        const std::uint64_t seed = derive_seed(root_seed_, hybrid_segment_tag + segment_);
        agent_.reset();
        batched_.reset();
        gillespie_.reset();
        switch (m) {
            case HybridMode::agent:
                agent_ = std::make_unique<Engine<P>>(protocol_, n_, seed);
                break;
            case HybridMode::batched_pairwise:
                batched_ = std::make_unique<BatchedEngine<P>>(protocol_, n_, seed,
                                                              BatchMode::pairwise);
                break;
            case HybridMode::batched_bulk:
                batched_ =
                    std::make_unique<BatchedEngine<P>>(protocol_, n_, seed, BatchMode::bulk);
                break;
            case HybridMode::gillespie:
                gillespie_ = std::make_unique<GillespieEngine<P>>(protocol_, n_, seed);
                break;
        }
        mode_ = m;
    }

    [[nodiscard]] RunResult make_result(bool converged) const noexcept {
        RunResult r;
        r.converged = converged;
        r.steps = steps();
        r.parallel_time = to_parallel_time(r.steps, n_);
        r.leader_count = leader_count();
        r.stabilization_step = stabilization_step();
        return r;
    }

    P protocol_;
    std::size_t n_;
    std::uint64_t root_seed_;
    CalibrationTable table_;
    HybridMode mode_ = HybridMode::batched_bulk;
    std::unique_ptr<Engine<P>> agent_;            ///< active iff mode_ == agent
    std::unique_ptr<BatchedEngine<P>> batched_;   ///< active iff mode_ is batched_*
    std::unique_ptr<GillespieEngine<P>> gillespie_;  ///< active iff mode_ == gillespie
    std::uint64_t segment_ = 0;       ///< current segment index (stream split)
    std::size_t switches_ = 0;        ///< mid-run handoffs performed
    StepCount eval_interval_ = 0;     ///< current threshold spacing
    StepCount next_eval_step_ = 0;    ///< absolute step of the next evaluation
    bool forced_ = false;             ///< force_mode pinned the mode (tests)
};

}  // namespace ppsim
