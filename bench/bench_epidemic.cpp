// E6 — Lemma 2 as a figure: one-way epidemic completion time in a
// sub-population V′ ⊆ V, against the tail bound
// Pr[I(2⌈n/n′⌉·t) ≠ V′] ≤ n·e^{−t/n}. Exits 1 when, at some n′/n, more runs
// pass the horizon than the bound allows, or when a whole-population mean
// lies more than 5 standard errors from the exact (n−1)·H_{n−1}.
#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/report.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "protocols/epidemic.hpp"

namespace {
using namespace ppsim;

/// Exact mean and variance of the whole-population completion time. With k
/// agents infected, a step (a uniform ordered pair of distinct agents)
/// infects with probability p_k = 2k(n−k)/(n(n−1)), so the time is a sum of
/// independent geometrics: mean Σ 1/p_k = (n−1)·H_{n−1}, variance
/// Σ (1−p_k)/p_k².
struct CompletionMoments {
    double mean = 0.0;
    double variance = 0.0;
};

[[nodiscard]] CompletionMoments completion_moments(std::size_t n) {
    const double pairs = static_cast<double>(n) * static_cast<double>(n - 1);
    CompletionMoments m;
    for (std::size_t k = 1; k < n; ++k) {
        const double p = 2.0 * static_cast<double>(k) * static_cast<double>(n - k) / pairs;
        m.mean += 1.0 / p;
        m.variance += (1.0 - p) / (p * p);
    }
    return m;
}
}  // namespace

int main() {
    const unsigned scale = repro_scale();
    const std::size_t n = 4096;
    const std::size_t reps = 200 * scale;

    std::cout << "== E6: Lemma 2 — one-way epidemic completion in sub-populations ==\n"
              << "(n = " << n << ", " << reps << " runs per sub-population size)\n\n";

    TextTable table;
    table.add_column("n'/n", Align::left);
    table.add_column("mean steps");
    table.add_column("p95 steps");
    table.add_column("max steps");
    table.add_column("bound horizon (t=n ln 2n)");
    table.add_column("P(exceed horizon)");
    table.add_column("bound says <=");
    table.add_column("within bound?");
    bool tail_ok = true;

    for (const unsigned denom : {1U, 2U, 4U, 8U}) {
        const std::size_t n_prime = n / denom;
        SampleSet steps_sample;
        std::uint64_t exceeded = 0;
        // Horizon from the lemma with t = n·ln(2n): failure ≤ n·e^{−t/n} = 1/2.
        // We report against the much tighter empirical spread.
        const double t = static_cast<double>(n) * std::log(2.0 * n);
        const double horizon = 2.0 * std::ceil(static_cast<double>(n) / n_prime) * t;
        for (std::size_t rep = 0; rep < reps; ++rep) {
            auto proc = EpidemicProcess::prefix_subpopulation(n, n_prime);
            const StepCount used = proc.run_to_completion(
                derive_seed(0xEA1D, rep + denom * 100000ULL),
                static_cast<StepCount>(horizon) * 50);
            steps_sample.add(static_cast<double>(used));
            if (static_cast<double>(used) > horizon) ++exceeded;
        }
        auto proc = EpidemicProcess::prefix_subpopulation(n, n_prime);
        const double share = static_cast<double>(exceeded) / static_cast<double>(reps);
        const double bound = proc.lemma2_failure_bound(static_cast<StepCount>(horizon));
        const bool ok = share <= bound;
        tail_ok = tail_ok && ok;
        table.add_row({
            "1/" + std::to_string(denom),
            format_double(steps_sample.mean(), 0),
            format_double(steps_sample.percentile(95.0), 0),
            format_double(steps_sample.max(), 0),
            format_double(horizon, 0),
            format_probability(share),
            format_probability(bound),
            ok ? "yes" : "NO",
        });
    }
    std::cout << table.render("epidemic completion (interactions)") << "\n"
              << "Lemma 2 tail bound respected: " << (tail_ok ? "YES" : "NO") << "\n\n";

    // Scaling in n at fixed n'/n = 1: completion should track Θ(n·log n).
    TextTable growth;
    growth.add_column("n");
    growth.add_column("mean steps");
    growth.add_column("mean / (n ln n)");
    growth.add_column("exact (n-1)*H_{n-1}");
    growth.add_column("(mean - exact) / se");
    bool mean_ok = true;
    for (const std::size_t size : std::vector<std::size_t>{256, 1024, 4096, 16384}) {
        RunningStats stats;
        for (std::size_t rep = 0; rep < reps / 2 + 1; ++rep) {
            auto proc = EpidemicProcess::prefix_subpopulation(size, size);
            stats.add(static_cast<double>(proc.run_to_completion(
                derive_seed(0xEA1E, rep + size), 1'000'000'000ULL)));
        }
        const CompletionMoments exact = completion_moments(size);
        const double se = std::sqrt(exact.variance / static_cast<double>(stats.count()));
        const double z = (stats.mean() - exact.mean) / se;
        mean_ok = mean_ok && std::abs(z) <= 5.0;
        growth.add_row({std::to_string(size), format_double(stats.mean(), 0),
                        format_double(stats.mean() / (static_cast<double>(size) *
                                                      std::log(static_cast<double>(size))),
                                      3),
                        format_double(exact.mean, 0), format_double(z, 2)});
    }
    std::cout << growth.render("whole-population epidemic growth (expectation is (n-1)*H_{n-1} ~ n ln n)")
              << "\n"
              << "every mean within 5 standard errors of (n-1)*H_{n-1}: "
              << (mean_ok ? "YES" : "NO") << "\n\n";

    std::cout << "Reading guide: Lemma 2 is reproduced if no (or almost no) run\n"
              << "exceeds the bound horizon — the bound is loose by design — and\n"
              << "the whole-population completion tracks ~n ln n interactions (the\n"
              << "exact expectation is (n-1)*H_{n-1}; [Ang+06]'s Theta(n log n)).\n";
    return tail_ok && mean_ok ? 0 : 1;
}
