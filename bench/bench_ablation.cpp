// E9 — Design ablations (the `PllConfig` knobs, protocols/pll.hpp; symbols in
// docs/NOTATION.md): why the paper's constants and module
// composition are what they are. Each ablation keeps correctness (BackUp is
// parameter-agnostic) and measures the cost of deviating.
//
//   D1  timer period cmax = 41m      — sweep the multiplier
//   D2  nonce width Φ = ⌈(2/3)lg m⌉  — wider/narrower nonces
//   D3  level cap lmax = 5m          — lottery overflow probability
//   D4  module composition           — disable QuickElimination/Tournament
//   D5  knowledge parameter m        — underestimate log2 n
#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/report.hpp"
#include "core/engine.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "protocols/pll.hpp"

namespace {

using namespace ppsim;

struct AblationOutcome {
    RunningStats parallel_time;
    std::size_t failures = 0;
};

AblationOutcome run_config(const PllConfig& cfg, std::size_t n, std::size_t reps,
                           std::uint64_t seed, double budget_factor = 4000.0) {
    AblationOutcome outcome;
    std::vector<double> times(reps, -1.0);
    const auto budget = static_cast<StepCount>(
        budget_factor * static_cast<double>(n) * std::log2(static_cast<double>(n)));
    shared_pool().for_each(reps, [&](std::size_t rep) {
        Engine<Pll> engine(Pll(cfg), n, derive_seed(seed, rep));
        const RunResult r = engine.run_until_one_leader(budget);
        if (r.converged && r.stabilization_step) {
            times[rep] = r.stabilization_parallel_time(n);
        }
    });
    for (const double t : times) {
        if (t >= 0.0) {
            outcome.parallel_time.add(t);
        } else {
            ++outcome.failures;
        }
    }
    return outcome;
}

std::string cell(const AblationOutcome& o) {
    if (o.parallel_time.count() == 0) return "all failed";
    std::string s = format_with_ci(o.parallel_time.mean(), o.parallel_time.ci_half_width());
    if (o.failures > 0) s += " (" + std::to_string(o.failures) + " failed)";
    return s;
}

}  // namespace

int main() {
    const unsigned scale = repro_scale();
    const std::size_t n = 1024;
    const std::size_t reps = 24 * scale;
    const PllConfig base = PllConfig::for_population(n);

    std::cout << "== E9: design ablations (n = " << n << ", m = " << base.m << ", "
              << reps << " runs each) ==\n\n";

    // --- D1: timer period --------------------------------------------------
    TextTable d1;
    d1.add_column("cmax multiplier");
    d1.add_column("cmax");
    d1.add_column("stabilisation time (par.)");
    for (const unsigned mult : {11U, 21U, 41U, 61U}) {
        PllConfig cfg = base;
        cfg.cmax_multiplier = mult;
        d1.add_row({std::to_string(mult), std::to_string(cfg.cmax()),
                    cell(run_config(cfg, n, reps, 0xD1))});
    }
    std::cout << d1.render("D1: timer period cmax = mult*m (paper: 41)") << "\n"
              << "Shorter periods speed every epoch but shrink the safety margin\n"
              << "of Lemma 6's P1 (epochs may tick before epidemics finish);\n"
              << "longer periods pay proportionally more time per epoch.\n\n";

    // --- D2: nonce width -----------------------------------------------------
    TextTable d2;
    d2.add_column("phi");
    d2.add_column("nonce values");
    d2.add_column("stabilisation time (par.)");
    for (const unsigned phi : {1U, 2U, 3U, 5U, 8U}) {
        PllConfig cfg = base;
        cfg.phi_override = phi;
        d2.add_row({std::to_string(cfg.phi()), std::to_string(1U << cfg.phi()),
                    cell(run_config(cfg, n, reps, 0xD2))});
    }
    std::cout << d2.render("D2: Tournament nonce width (paper: ceil(2/3*lg m) = " +
                           std::to_string(base.phi()) + ")")
              << "\n"
              << "Narrow nonces collide (ties fall through to BackUp's slow path);\n"
              << "wide nonces waste states — the 2/3 exponent balances the two\n"
              << "Tournament epochs against the state budget of Lemma 3.\n\n";

    // --- D3: level cap ----------------------------------------------------------
    TextTable d3;
    d3.add_column("lmax multiplier");
    d3.add_column("lmax");
    d3.add_column("stabilisation time (par.)");
    for (const unsigned mult : {1U, 2U, 5U, 8U}) {
        PllConfig cfg = base;
        cfg.lmax_multiplier = mult;
        d3.add_row({std::to_string(mult), std::to_string(cfg.lmax()),
                    cell(run_config(cfg, n, reps, 0xD3))});
    }
    std::cout << d3.render("D3: level cap lmax = mult*m (paper: 5)") << "\n"
              << "levelQ exceeds c*lg n with probability n^-c: small caps distort\n"
              << "the lottery (capped agents tie) and stall BackUp's level climb;\n"
              << "5m makes both events n^-5-rare while costing only states.\n\n";

    // --- D4: module composition ---------------------------------------------------
    TextTable d4;
    d4.add_column("configuration", Align::left);
    d4.add_column("stabilisation time (par.)");
    {
        PllConfig cfg = base;
        d4.add_row({"full PLL (QE + T + BackUp)", cell(run_config(cfg, n, reps, 0xD4))});
        cfg.enable_tournament = false;
        d4.add_row({"no Tournament", cell(run_config(cfg, n, reps, 0xD4, 8000.0))});
        cfg.enable_tournament = true;
        cfg.enable_quick_elimination = false;
        d4.add_row({"no QuickElimination", cell(run_config(cfg, n, reps, 0xD4))});
        cfg.enable_tournament = false;
        d4.add_row({"BackUp only", cell(run_config(cfg, n, reps, 0xD4, 16000.0))});
    }
    std::cout << d4.render("D4: module composition") << "\n"
              << "QE leaves >= i survivors with prob <= 2^(1-i) in one epoch;\n"
              << "Tournament finishes the job with prob 1-O(1/log n); BackUp alone\n"
              << "is correct but pays Theta(log^2 n) — the composition is what\n"
              << "brings the expectation down to O(log n).\n\n";

    // --- D5: knowledge parameter -----------------------------------------------------
    TextTable d5;
    d5.add_column("m");
    d5.add_column("valid (m >= log2 n)?", Align::left);
    d5.add_column("stabilisation time (par.)");
    for (const unsigned m : {4U, 6U, 10U, 20U}) {
        PllConfig cfg = base;
        cfg.m = m;
        const bool valid = static_cast<double>(m) >= std::log2(static_cast<double>(n));
        d5.add_row({std::to_string(m), valid ? "yes" : "no (undersized)",
                    cell(run_config(cfg, n, reps, 0xD5, 8000.0))});
    }
    std::cout << d5.render("D5: knowledge parameter m (paper: m >= log2 n = 10)") << "\n"
              << "Undersized m shortens timers below the epidemic horizon, so the\n"
              << "fast path desynchronises and BackUp (still correct) carries more\n"
              << "of the load; oversized m slows every epoch linearly in m.\n";
    return 0;
}
