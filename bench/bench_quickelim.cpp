// E5 — Lemma 7 as a figure: the distribution of the number of leaders
// surviving QuickElimination, measured at the lemma's own horizon of
// ⌊21·n·ln n⌋ interactions, against the geometric bound P(|VL| = i) ≤ 2^{1−i}.
// Exits 1 when the bound fails at any n.
#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/estimators.hpp"
#include "analysis/report.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"

namespace {
using namespace ppsim;
}

int main() {
    const unsigned scale = repro_scale();
    const std::size_t runs = 600 * scale;

    std::cout << "== E5: Lemma 7 — QuickElimination survivor distribution ==\n"
              << "(" << runs << " seeded runs per n, inspected at floor(21*n*ln n) "
              << "interactions)\n\n";

    bool all_ok = true;
    for (const std::size_t n : std::vector<std::size_t>{256, 1024, 4096}) {
        const SurvivorDistribution dist = survivor_distribution(n, runs, 0xE5 + n);

        TextTable table;
        table.add_column("survivors i");
        table.add_column("runs");
        table.add_column("empirical P");
        table.add_column("bound 2^(1-i)");
        table.add_column("within bound?");
        bool shape_ok = true;
        const std::uint64_t top = std::max<std::uint64_t>(dist.counts.max_key(), 6);
        for (std::uint64_t i = 1; i <= top; ++i) {
            const double p = dist.counts.fraction(i);
            const double bound = std::pow(2.0, 1.0 - static_cast<double>(i));
            // i = 1 has no bound (it is the good outcome); for i ≥ 2 allow
            // three binomial standard deviations of slack, and never let a
            // single run flip the verdict (a one-count cell in the deep tail
            // is expected somewhere in a 600-run sweep).
            const double slack = std::max(
                3.0 * std::sqrt(bound * (1.0 - bound) / static_cast<double>(runs)),
                2.0 / static_cast<double>(runs));
            const bool ok = i == 1 || p <= bound + slack;
            shape_ok = shape_ok && ok;
            table.add_row({std::to_string(i), std::to_string(dist.counts.count(i)),
                           format_probability(p),
                           i == 1 ? "-" : format_probability(bound),
                           i == 1 ? "-" : (ok ? "yes" : "NO")});
        }
        std::cout << table.render("n = " + std::to_string(n)) << "\n";
        std::cout << "whp side conditions violated (epoch/cap/agreement): "
                  << dist.epoch_violations << "/" << dist.cap_violations << "/"
                  << dist.agreement_violations << " of " << runs << " runs\n"
                  << "geometric bound respected: " << (shape_ok ? "YES" : "NO") << "\n\n";
        all_ok = all_ok && shape_ok;
    }

    std::cout << "Reading guide: Lemma 7 is reproduced if the i >= 2 rows sit at or\n"
              << "below 2^(1-i) (within sampling noise) and the side conditions are\n"
              << "rare — they fail with probability O(1/n) by Lemmas 5-6.\n";
    return all_ok ? 0 : 1;
}
