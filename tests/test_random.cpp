// Unit tests for the PRNG suite (src/core/random.hpp): determinism,
// platform-stable bounded sampling, stream splitting and seed derivation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "core/random.hpp"

namespace ppsim {
namespace {

TEST(SplitMix64, IsDeterministicForEqualSeeds) {
    SplitMix64 a(42);
    SplitMix64 b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64, DistinctSeedsDiverge) {
    SplitMix64 a(1);
    SplitMix64 b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += a() == b() ? 1 : 0;
    EXPECT_LE(equal, 1);
}

TEST(Xoshiro256pp, IsDeterministicForEqualSeeds) {
    Xoshiro256pp a(7);
    Xoshiro256pp b(7);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(UniformBelow, StaysWithinBound) {
    Xoshiro256pp gen(11);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1ULL << 40U}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(uniform_below(gen, bound), bound);
        }
    }
}

TEST(UniformBelow, BoundOneAlwaysYieldsZero) {
    Xoshiro256pp gen(12);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(uniform_below(gen, 1), 0U);
}

TEST(UniformBelow, CoversAllResidues) {
    Xoshiro256pp gen(13);
    std::vector<int> hits(10, 0);
    for (int i = 0; i < 10000; ++i) ++hits[uniform_below(gen, 10)];
    for (int h : hits) EXPECT_GT(h, 0);
    // Loose uniformity: each residue should be within 30% of the mean.
    for (int h : hits) {
        EXPECT_GT(h, 700);
        EXPECT_LT(h, 1300);
    }
}

TEST(UniformBetween, CoversClosedRange) {
    Xoshiro256pp gen(14);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = uniform_between(gen, 5, 8);
        EXPECT_GE(v, 5U);
        EXPECT_LE(v, 8U);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4U);
}

TEST(UniformUnit, StaysInHalfOpenUnitInterval) {
    Xoshiro256pp gen(15);
    for (int i = 0; i < 10000; ++i) {
        const double u = uniform_unit(gen);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(CoinFlip, IsRoughlyFair) {
    Xoshiro256pp gen(16);
    int heads = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) heads += coin_flip(gen) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.01);
}

TEST(DeriveSeed, IsDeterministicAndSpreads) {
    EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(derive_seed(123, i));
    EXPECT_EQ(seeds.size(), 1000U);  // no collisions across stream indices
    EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(Xoshiro256pp, SatisfiesUniformRandomBitGenerator) {
    static_assert(Xoshiro256pp::min() == 0);
    static_assert(Xoshiro256pp::max() == std::numeric_limits<std::uint64_t>::max());
    Xoshiro256pp gen(1);
    (void)gen();
}

// --- hypergeometric sampler agreement (inversion vs H2PE rejection) ---------

// Exact mean and sd of Hypergeometric(total, successes, draws).
struct HypergeometricMoments {
    double mean;
    double sd;
};

HypergeometricMoments exact_moments(std::uint64_t total, std::uint64_t successes,
                                    std::uint64_t draws) {
    const double N = static_cast<double>(total);
    const double p = static_cast<double>(successes) / N;
    const double k = static_cast<double>(draws);
    return {k * p, std::sqrt(k * p * (1.0 - p) * (N - k) / (N - 1.0))};
}

// Empirical mean/sd of `reps` samples drawn by `sampler`.
template <typename Sampler>
HypergeometricMoments sample_moments(Sampler&& sampler, int reps) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < reps; ++i) {
        const double x = static_cast<double>(sampler());
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / reps;
    return {mean, std::sqrt(std::max(0.0, sum_sq / reps - mean * mean))};
}

TEST(Hypergeometric, RejectionSamplerMatchesExactMoments) {
    // Wide regime: sd ≈ 43, far beyond the inversion threshold, so the
    // public dispatcher takes the H2PE rejection path.
    const std::uint64_t total = 40000;
    const std::uint64_t successes = 20000;
    const std::uint64_t draws = 10000;
    ASSERT_GT(detail::hypergeometric_sd(total, successes, draws), 16.0);

    Rng gen(2024);
    const int reps = 200000;
    const auto empirical = sample_moments(
        [&] { return hypergeometric(gen, total, successes, draws); }, reps);
    const auto exact = exact_moments(total, successes, draws);
    // 5σ tolerance on the mean; 2% on the standard deviation.
    EXPECT_NEAR(empirical.mean, exact.mean, 5.0 * exact.sd / std::sqrt(reps));
    EXPECT_NEAR(empirical.sd, exact.sd, 0.02 * exact.sd);
}

TEST(Hypergeometric, RejectionSamplerMatchesExactPmf) {
    // Bin-by-bin check of the H2PE path against the exact pmf over the
    // mode ± 5 sd region (≥ 99.9999% of the mass).
    const std::uint64_t total = 30000;
    const std::uint64_t successes = 9000;
    const std::uint64_t draws = 4000;
    const auto exact = exact_moments(total, successes, draws);
    ASSERT_GT(exact.sd, 16.0);

    Rng gen(77);
    const int reps = 300000;
    std::map<std::uint64_t, int> freq;
    for (int i = 0; i < reps; ++i) {
        ++freq[detail::hypergeometric_hrua(gen, total, successes, draws)];
    }
    const auto lo = static_cast<std::uint64_t>(exact.mean - 5.0 * exact.sd);
    const auto hi = static_cast<std::uint64_t>(exact.mean + 5.0 * exact.sd);
    double covered = 0.0;
    for (std::uint64_t x = lo; x <= hi; ++x) {
        const double p =
            std::exp(detail::log_choose(successes, x) +
                     detail::log_choose(total - successes, draws - x) -
                     detail::log_choose(total, draws));
        covered += p;
        const double observed = static_cast<double>(freq[x]) / reps;
        const double sigma = std::sqrt(p * (1.0 - p) / reps);
        EXPECT_NEAR(observed, p, 5.0 * sigma + 1e-5) << "x = " << x;
    }
    EXPECT_GT(covered, 0.999);
}

TEST(Hypergeometric, BothPathsAgreeOnTheSameParameters) {
    // Head-to-head on parameters both samplers handle: identical moments
    // within combined standard error (they share no code beyond log_choose).
    const std::uint64_t total = 5000;
    const std::uint64_t successes = 1500;
    const std::uint64_t draws = 800;
    const auto exact = exact_moments(total, successes, draws);

    Rng gen_a(11);
    Rng gen_b(12);
    const int reps = 150000;
    const auto inv = sample_moments(
        [&] { return detail::hypergeometric_inversion(gen_a, total, successes, draws); },
        reps);
    const auto rej = sample_moments(
        [&] { return detail::hypergeometric_hrua(gen_b, total, successes, draws); },
        reps);
    const double se = exact.sd * std::sqrt(2.0 / reps);
    EXPECT_NEAR(inv.mean, rej.mean, 5.0 * se);
    EXPECT_NEAR(inv.sd, rej.sd, 0.03 * exact.sd);
}

TEST(Hypergeometric, RejectionPathRespectsSupport) {
    // Forced minimum successes (draws + successes > total) in a regime wide
    // enough for the rejection path.
    const std::uint64_t total = 50000;
    const std::uint64_t successes = 30000;
    const std::uint64_t draws = 30000;
    const std::uint64_t lo = draws + successes - total;
    Rng gen(5);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t x = hypergeometric(gen, total, successes, draws);
        ASSERT_GE(x, lo);
        ASSERT_LE(x, std::min(draws, successes));
    }
}

TEST(Hypergeometric, IsDeterministicForEqualSeeds) {
    Rng a(99);
    Rng b(99);
    for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(hypergeometric(a, 100000, 40000, 20000),
                  hypergeometric(b, 100000, 40000, 20000));
    }
}

// --- binomial sampler (inversion vs BTRS transformed rejection) --------------

// Exact pmf of Binomial(trials, num/den) at x.
double binomial_pmf(std::uint64_t trials, double p, std::uint64_t x) {
    return std::exp(detail::log_choose(trials, x) + static_cast<double>(x) * std::log(p) +
                    static_cast<double>(trials - x) * std::log1p(-p));
}

TEST(Binomial, InversionPathMatchesExactPmf) {
    // Narrow regime (mean < 10 after reflection): the dispatcher takes the
    // mode-centred inversion walk.
    Rng gen(321);
    const std::uint64_t trials = 40;
    const std::uint64_t num = 3;
    const std::uint64_t den = 20;
    std::map<std::uint64_t, int> freq;
    const int reps = 400000;
    for (int i = 0; i < reps; ++i) ++freq[binomial(gen, trials, num, den)];
    for (const auto& [value, count] : freq) {
        const double exact = binomial_pmf(trials, 0.15, value);
        const double empirical = static_cast<double>(count) / reps;
        const double sigma = std::sqrt(exact * (1.0 - exact) / reps);
        EXPECT_NEAR(empirical, exact, 5.0 * sigma + 1e-4) << "x = " << value;
    }
}

TEST(Binomial, BtrsPathMatchesExactPmf) {
    // Wide regime: mean ≈ 1850, sd ≈ 34 — the BTRS rejection path. Bin-by-bin
    // check over mode ± 5 sd (≥ 99.9999% of the mass).
    Rng gen(99);
    const std::uint64_t trials = 5000;
    const double p = 0.37;
    const double mean = static_cast<double>(trials) * p;
    const double sd = std::sqrt(mean * (1.0 - p));
    const int reps = 300000;
    std::map<std::uint64_t, int> freq;
    for (int i = 0; i < reps; ++i) ++freq[binomial(gen, trials, 37, 100)];
    const auto lo = static_cast<std::uint64_t>(mean - 5.0 * sd);
    const auto hi = static_cast<std::uint64_t>(mean + 5.0 * sd);
    double covered = 0.0;
    for (std::uint64_t x = lo; x <= hi; ++x) {
        const double exact = binomial_pmf(trials, p, x);
        covered += exact;
        const double observed = static_cast<double>(freq[x]) / reps;
        const double sigma = std::sqrt(exact * (1.0 - exact) / reps);
        EXPECT_NEAR(observed, exact, 5.0 * sigma + 1e-5) << "x = " << x;
    }
    EXPECT_GT(covered, 0.999);
}

TEST(Binomial, ReflectedProbabilityMatchesExactMoments) {
    // p > ½ exercises the reflection; moments must still match.
    Rng gen(7);
    const std::uint64_t trials = 10000;
    const double p = 0.85;
    const double mean = static_cast<double>(trials) * p;
    const double sd = std::sqrt(mean * (1.0 - p));
    const int reps = 100000;
    const auto moments =
        sample_moments([&] { return binomial(gen, trials, 85, 100); }, reps);
    EXPECT_NEAR(moments.mean, mean, 5.0 * sd / std::sqrt(reps));
    EXPECT_NEAR(moments.sd, sd, 0.02 * sd);
}

TEST(Binomial, RespectsSupportAndEdges) {
    Rng gen(55);
    EXPECT_EQ(binomial(gen, 0, 1, 2), 0U);       // no trials
    EXPECT_EQ(binomial(gen, 100, 0, 5), 0U);     // p = 0
    EXPECT_EQ(binomial(gen, 100, 5, 5), 100U);   // p = 1
    EXPECT_THROW((void)binomial(gen, 10, 6, 5), InvalidArgument);
    for (int i = 0; i < 20000; ++i) {
        ASSERT_LE(binomial(gen, 17, 1, 3), 17U);
    }
}

TEST(Binomial, ReflectionIsOverflowSafeForFullWidthRatios) {
    // num > 2^63 used to overflow the `2·num > den` reflection test, routing
    // p > ½ into the BTRS sampler whose constants assume p ≤ ½. Full-width
    // ratio with p = 0.75: the empirical mean must sit at trials·p, not
    // trials·(1−p).
    Rng gen(8);
    const std::uint64_t den = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t num = den - den / 4;  // p = 0.75, num ≈ 1.5·2^63
    const std::uint64_t trials = 4000;
    const double mean = static_cast<double>(trials) * 0.75;
    const double sd = std::sqrt(mean * 0.25);
    const int reps = 50000;
    const auto moments =
        sample_moments([&] { return binomial(gen, trials, num, den); }, reps);
    EXPECT_NEAR(moments.mean, mean, 5.0 * sd / std::sqrt(reps));
    EXPECT_NEAR(moments.sd, sd, 0.03 * sd);
}

TEST(Binomial, IsDeterministicForEqualSeeds) {
    Rng a(4);
    Rng b(4);
    for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(binomial(a, 100000, 123, 1000), binomial(b, 100000, 123, 1000));
    }
}

// --- geometric (the SSA null-reaction skip) ----------------------------------

TEST(Geometric, MatchesExactPmf) {
    // P(X = k) = (1−p)^{k−1}·p on support 1, 2, …
    Rng gen(61);
    const double p = 0.2;
    const int reps = 400000;
    std::map<std::uint64_t, int> freq;
    for (int i = 0; i < reps; ++i) ++freq[geometric(gen, p)];
    EXPECT_EQ(freq.count(0), 0U);  // support starts at 1
    for (std::uint64_t k = 1; k <= 40; ++k) {
        const double exact = std::pow(1.0 - p, static_cast<double>(k - 1)) * p;
        const double observed = static_cast<double>(freq[k]) / reps;
        const double sigma = std::sqrt(exact * (1.0 - exact) / reps);
        EXPECT_NEAR(observed, exact, 5.0 * sigma + 1e-4) << "k = " << k;
    }
}

TEST(Geometric, SmallProbabilityMatchesTheMean) {
    // The engine's regime: tiny p, huge expected gaps. E[X] = 1/p.
    Rng gen(62);
    const double p = 1e-6;
    const int reps = 20000;
    double sum = 0.0;
    for (int i = 0; i < reps; ++i) sum += static_cast<double>(geometric(gen, p));
    const double mean = sum / reps;
    // sd of the mean ≈ (1/p)/√reps; allow 5σ.
    EXPECT_NEAR(mean, 1.0 / p, 5.0 / (p * std::sqrt(static_cast<double>(reps))));
}

TEST(Geometric, EdgesAndDeterminism) {
    Rng gen(63);
    EXPECT_EQ(geometric(gen, 1.0), 1U);
    EXPECT_EQ(geometric(gen, 2.0), 1U);
    EXPECT_EQ(geometric(gen, 0.0), std::numeric_limits<std::uint64_t>::max());
    Rng a(9);
    Rng b(9);
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(geometric(a, 0.37), geometric(b, 0.37));
}

// --- multinomial (the τ-leap multiset sampler) -------------------------------

TEST(Multinomial, SumsAreExactAndMarginalsMatchTheScalarBinomial) {
    Rng gen(2025);
    const std::vector<std::uint64_t> counts = {30, 0, 50, 20};
    const std::uint64_t trials = 64;
    const int reps = 200000;
    std::vector<std::map<std::uint64_t, int>> freq(counts.size());
    for (int rep = 0; rep < reps; ++rep) {
        const auto out = multinomial(gen, counts, trials);
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            total += out[i];
            ++freq[i][out[i]];
        }
        ASSERT_EQ(total, trials);  // with replacement, but the sum is exact
    }
    EXPECT_EQ(freq[1].size(), 1U);  // empty colour never drawn
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double p = static_cast<double>(counts[i]) / 100.0;
        if (p == 0.0) continue;
        for (const auto& [value, count] : freq[i]) {
            const double exact = binomial_pmf(trials, p, value);
            const double empirical = static_cast<double>(count) / reps;
            const double sigma = std::sqrt(exact * (1.0 - exact) / reps);
            EXPECT_NEAR(empirical, exact, 5.0 * sigma + 1e-4)
                << "colour " << i << ", x = " << value;
        }
    }
}

TEST(Multinomial, IsDeterministicForEqualSeeds) {
    const std::vector<std::uint64_t> counts = {100, 300, 7, 0, 2000, 55};
    Rng a(17);
    Rng b(17);
    for (int rep = 0; rep < 2000; ++rep) {
        ASSERT_EQ(multinomial(a, counts, 500), multinomial(b, counts, 500));
    }
}

// --- multivariate hypergeometric (the contingency-table row sampler) --------

TEST(MultivariateHypergeometric, RowSumsAreExactAndWithinSupport) {
    Rng gen(31);
    const std::vector<std::uint64_t> counts = {7, 0, 1000, 3, 250, 1, 64};
    std::uint64_t pool = 0;
    for (const std::uint64_t c : counts) pool += c;
    const std::vector<std::uint64_t> draw_sizes = {0, 1, 2, 8, 100, pool - 1, pool};
    for (const std::uint64_t draws : draw_sizes) {
        for (int rep = 0; rep < 500; ++rep) {
            const auto out = multivariate_hypergeometric(gen, counts, draws);
            ASSERT_EQ(out.size(), counts.size());
            std::uint64_t total = 0;
            for (std::size_t i = 0; i < out.size(); ++i) {
                ASSERT_LE(out[i], counts[i]) << "colour " << i;
                total += out[i];
            }
            ASSERT_EQ(total, draws);  // row sums exact, never approximate
        }
    }
    // draws == pool must take everything, deterministically.
    EXPECT_EQ(multivariate_hypergeometric(gen, counts, pool), counts);
    EXPECT_THROW((void)multivariate_hypergeometric(gen, counts, pool + 1),
                 InvalidArgument);
}

TEST(MultivariateHypergeometric, MarginalsMatchTheScalarHypergeometric) {
    // Each colour's marginal is Hypergeometric(total, counts[i], draws):
    // bin-by-bin 5σ agreement with the exact pmf, for every colour — the
    // property that makes the conditional chain an exact sampler.
    Rng gen(2024);
    const std::vector<std::uint64_t> counts = {30, 20, 50, 4};
    const std::uint64_t total = 104;
    const std::uint64_t draws = 40;
    const int reps = 200000;
    std::vector<std::map<std::uint64_t, int>> freq(counts.size());
    for (int rep = 0; rep < reps; ++rep) {
        const auto out = multivariate_hypergeometric(gen, counts, draws);
        for (std::size_t i = 0; i < out.size(); ++i) ++freq[i][out[i]];
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
        for (const auto& [value, count] : freq[i]) {
            const double exact =
                std::exp(detail::log_choose(counts[i], value) +
                         detail::log_choose(total - counts[i], draws - value) -
                         detail::log_choose(total, draws));
            const double empirical = static_cast<double>(count) / reps;
            const double sigma = std::sqrt(exact * (1.0 - exact) / reps);
            EXPECT_NEAR(empirical, exact, 5.0 * sigma + 1e-4)
                << "colour " << i << ", x = " << value;
        }
    }
}

TEST(MultivariateHypergeometric, SingleDrawIsCategoricallyUniform) {
    // draws == 1 exercises the generator-free categorical fast path: the
    // drawn colour must be distributed proportionally to the counts.
    Rng gen(5);
    const std::vector<std::uint64_t> counts = {10, 0, 40, 50};
    const int reps = 100000;
    std::vector<int> hits(counts.size(), 0);
    for (int rep = 0; rep < reps; ++rep) {
        const auto out = multivariate_hypergeometric(gen, counts, 1);
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (out[i] == 1) ++hits[i];
        }
    }
    EXPECT_EQ(hits[1], 0);  // empty colour never drawn
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double p = static_cast<double>(counts[i]) / 100.0;
        const double sigma = std::sqrt(p * (1.0 - p) / reps);
        EXPECT_NEAR(static_cast<double>(hits[i]) / reps, p, 5.0 * sigma + 1e-4)
            << "colour " << i;
    }
}

TEST(MultivariateHypergeometric, IsDeterministicForEqualSeeds) {
    const std::vector<std::uint64_t> counts = {100, 300, 7, 0, 2000, 55};
    Rng a(77);
    Rng b(77);
    for (int rep = 0; rep < 2000; ++rep) {
        ASSERT_EQ(multivariate_hypergeometric(a, counts, 123),
                  multivariate_hypergeometric(b, counts, 123));
    }
}

TEST(MultivariateHypergeometric, PointerFormSupportsAliasing) {
    // The documented in-place form: counts and out may be the same buffer.
    Rng a(13);
    Rng b(13);
    const std::vector<std::uint64_t> counts = {12, 34, 56, 78};
    const auto expected = multivariate_hypergeometric(a, counts, 60);
    std::vector<std::uint64_t> buffer = counts;
    multivariate_hypergeometric(b, buffer.data(), buffer.size(), 60, buffer.data());
    EXPECT_EQ(buffer, expected);
}

}  // namespace
}  // namespace ppsim
