// The binomial samplers against frozen references.
//
// binomial_inversion skips ln p and the two log-factorials when the mode is
// 0, and binomial_btrs computes the constants of its exact acceptance test
// only when a candidate reaches it. Both are meant to draw bit-identical
// streams. The functions below are the versions they replaced, verbatim but
// for their names. Each test seeds a library sampler and its reference
// alike, over a grid of (trials, p) that crosses the log-factorial table's
// end at 1024 and the dispatcher's mean-10 switch, and requires every draw
// and the generator state after the last one to agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/random.hpp"

namespace ppsim {
namespace {

// --- the references -------------------------------------------------------------

using detail::log_choose;

template <typename Generator>
[[nodiscard]] std::uint64_t reference_binomial_inversion(Generator& gen, std::uint64_t trials,
                                                         double p) {
    const double n = static_cast<double>(trials);
    const double log_p = std::log(p);
    const double log_q = std::log1p(-p);

    auto mode = static_cast<std::uint64_t>((n + 1.0) * p);
    mode = std::min(mode, trials);

    const double log_pm = log_choose(trials, mode) + static_cast<double>(mode) * log_p +
                          static_cast<double>(trials - mode) * log_q;
    const double pm = std::exp(log_pm);

    double u = uniform_unit(gen) - pm;
    if (u <= 0.0) return mode;

    // Walk outward from the mode, alternating sides, subtracting pmf mass
    // until the uniform draw is exhausted. Recurrences give p(x±1) from p(x).
    const double odds = p / (1.0 - p);
    double p_up = pm;
    double p_dn = pm;
    std::uint64_t x_up = mode;
    std::uint64_t x_dn = mode;
    while (true) {
        bool stepped = false;
        if (x_up < trials) {
            const double x = static_cast<double>(x_up);
            p_up *= (n - x) / (x + 1.0) * odds;
            ++x_up;
            u -= p_up;
            if (u <= 0.0) return x_up;
            stepped = true;
        }
        if (x_dn > 0) {
            const double x = static_cast<double>(x_dn);
            p_dn *= x / ((n - x + 1.0) * odds);
            --x_dn;
            u -= p_dn;
            if (u <= 0.0) return x_dn;
            stepped = true;
        }
        // Floating-point residue after consuming the whole support: the
        // remaining mass is below double precision; return the mode.
        if (!stepped) return mode;
    }
}

template <typename Generator>
[[nodiscard]] std::uint64_t reference_binomial_btrs(Generator& gen, std::uint64_t trials,
                                                    double p) {
    const double n = static_cast<double>(trials);
    const double q = 1.0 - p;
    const double spq = std::sqrt(n * p * q);

    const double b = 1.15 + 2.53 * spq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * p;
    const double c = n * p + 0.5;
    const double vr = 0.92 - 4.2 / b;
    const double alpha = (2.83 + 5.1 / b) * spq;
    const double lpq = std::log(p / q);
    const auto mode = static_cast<std::uint64_t>((n + 1.0) * p);
    const double h = log_factorial(mode) + log_factorial(trials - mode);

    while (true) {
        double u = 0.0;
        double v = uniform_unit(gen);
        if (v <= 0.86 * vr) {
            // Inner box: accept without range check or pmf evaluation.
            u = v / vr - 0.43;
            const double k = std::floor((2.0 * a / (0.5 - std::abs(u)) + b) * u + c);
            if (k < 0.0 || k > n) continue;  // defensive: cannot trigger for np ≥ 10
            return static_cast<std::uint64_t>(k);
        }
        if (v >= vr) {
            u = uniform_unit(gen) - 0.5;
        } else {
            u = v / vr - 0.93;
            u = (u < 0.0 ? -0.5 : 0.5) - u;
            v = uniform_unit(gen) * vr;
        }
        const double us = 0.5 - std::abs(u);
        const double k = std::floor((2.0 * a / us + b) * u + c);
        if (k < 0.0 || k > n) continue;
        const auto ki = static_cast<std::uint64_t>(k);
        const double scaled = v * alpha / (a / (us * us) + b);
        const double log_accept = h - log_factorial(ki) - log_factorial(trials - ki) +
                                  (k - static_cast<double>(mode)) * lpq;
        if (std::log(scaled) <= log_accept) return ki;
    }
}

// --- the grid -------------------------------------------------------------------

struct Cell {
    std::uint64_t trials;
    double p;
};

/// Every trial count crossed with p = mean / trials for means on both sides
/// of the dispatcher's switch at 10, plus fixed probabilities up to ½ (the
/// samplers' precondition). Means below 1/(trials + 1) give mode 0.
[[nodiscard]] std::vector<Cell> grid() {
    const std::uint64_t trial_counts[] = {1,    2,    7,    10,      11,      64,
                                          1000, 1023, 1024, 1025,    2047,    4096,
                                          65536, 1ULL << 20U, 1ULL << 34U};
    const double means[] = {1e-6, 0.3, 0.99, 1.0, 2.5, 9.0, 9.99, 10.0, 10.01, 40.0, 1e3, 1e5};
    const double probabilities[] = {1e-9, 1e-4, 0.01, 0.1, 0.3, 0.5};
    std::vector<Cell> cells;
    for (const std::uint64_t trials : trial_counts) {
        const double n = static_cast<double>(trials);
        for (const double mean : means) {
            if (mean / n <= 0.5) cells.push_back({trials, mean / n});
        }
        for (const double p : probabilities) cells.push_back({trials, p});
    }
    return cells;
}

constexpr int draws_per_cell = 3000;

TEST(BinomialReference, InversionDrawsTheReferenceStream) {
    int mode_zero = 0;
    int cells = 0;
    for (const Cell& cell : grid()) {
        const double mean = static_cast<double>(cell.trials) * cell.p;
        if (mean >= 100.0) continue;  // O(sd) walk; the dispatcher stops at 10
        mode_zero += static_cast<double>(cell.trials + 1) * cell.p < 1.0 ? 1 : 0;
        ++cells;
        const std::uint64_t seed = cell.trials * 131 + static_cast<std::uint64_t>(mean * 977);
        Rng gen(seed);
        Rng ref(seed);
        for (int i = 0; i < draws_per_cell; ++i) {
            ASSERT_EQ(detail::binomial_inversion(gen, cell.trials, cell.p),
                      reference_binomial_inversion(ref, cell.trials, cell.p))
                << "trials " << cell.trials << ", p " << cell.p << ", draw " << i;
        }
        ASSERT_EQ(gen.state(), ref.state()) << "trials " << cell.trials << ", p " << cell.p;
    }
    // The grid reaches both branches of the mode test, past the table too.
    EXPECT_GE(mode_zero, 20);
    EXPECT_GE(cells - mode_zero, 40);
}

TEST(BinomialReference, BtrsDrawsTheReferenceStream) {
    int cells = 0;
    for (const Cell& cell : grid()) {
        const double mean = static_cast<double>(cell.trials) * cell.p;
        if (mean < 10.0) continue;  // BTRS's precondition
        ++cells;
        const std::uint64_t seed = cell.trials * 131 + static_cast<std::uint64_t>(mean * 977);
        Rng gen(seed);
        Rng ref(seed);
        for (int i = 0; i < draws_per_cell; ++i) {
            ASSERT_EQ(detail::binomial_btrs(gen, cell.trials, cell.p),
                      reference_binomial_btrs(ref, cell.trials, cell.p))
                << "trials " << cell.trials << ", p " << cell.p << ", draw " << i;
        }
        ASSERT_EQ(gen.state(), ref.state()) << "trials " << cell.trials << ", p " << cell.p;
    }
    EXPECT_GE(cells, 30);
}

TEST(BinomialReference, DispatcherDrawsTheReferenceStream) {
    // The public ratio overload routes by mean and reflects p > ½; it must
    // reach the same draws through either path.
    const std::uint64_t den = 1ULL << 40U;
    for (const Cell& cell : grid()) {
        for (const bool reflect : {false, true}) {
            const auto num = static_cast<std::uint64_t>(cell.p * static_cast<double>(den));
            if (num == 0 || (reflect && 2 * num == den)) continue;  // ½ is never reflected
            const std::uint64_t ratio = reflect ? den - num : num;
            const double p = static_cast<double>(num) / static_cast<double>(den);
            const double mean = static_cast<double>(cell.trials) * p;
            Rng gen(cell.trials + ratio);
            Rng ref(cell.trials + ratio);
            for (int i = 0; i < 200; ++i) {
                const std::uint64_t x = mean < 10.0
                                            ? reference_binomial_inversion(ref, cell.trials, p)
                                            : reference_binomial_btrs(ref, cell.trials, p);
                ASSERT_EQ(binomial(gen, cell.trials, ratio, den), reflect ? cell.trials - x : x)
                    << "trials " << cell.trials << ", ratio " << ratio << ", draw " << i;
            }
            ASSERT_EQ(gen.state(), ref.state());
        }
    }
}

}  // namespace
}  // namespace ppsim
