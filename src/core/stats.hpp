/// \file stats.hpp
/// \brief Statistics toolkit: summaries, percentiles, frequency tables,
/// confidence intervals and least-squares scaling fits used by the
/// experiment harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ppsim {

/// Streaming mean/variance accumulator (Welford's algorithm) — numerically
/// stable single-pass summary used by all experiment aggregations.
class RunningStats {
public:
    void add(double x) noexcept;

    /// Merges another accumulator into this one (parallel reduction).
    void merge(const RunningStats& other) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const noexcept { return mean_; }
    /// Unbiased sample variance; 0 when fewer than two samples.
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    /// Standard error of the mean; 0 when fewer than two samples.
    [[nodiscard]] double sem() const noexcept;
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }

    /// Half-width of the normal-approximation confidence interval at the
    /// given level (supported levels: 0.90, 0.95, 0.99).
    [[nodiscard]] double ci_half_width(double level = 0.95) const;

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Full-sample summary with percentiles (keeps all samples).
class SampleSet {
public:
    void add(double x) { samples_.push_back(x); }
    void add(std::span<const double> xs);

    [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
    [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
    [[nodiscard]] double mean() const noexcept;
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept;
    [[nodiscard]] double max() const noexcept;

    /// Linear-interpolated percentile, p in [0, 100].
    [[nodiscard]] double percentile(double p) const;
    [[nodiscard]] double median() const { return percentile(50.0); }

    [[nodiscard]] std::span<const double> samples() const noexcept { return samples_; }

private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
    void ensure_sorted() const;
};

/// Integer-keyed frequency counter (e.g. "how many runs ended with i
/// surviving leaders"), used by the Lemma-7 survivor-distribution experiment.
class FrequencyTable {
public:
    void add(std::uint64_t key) { ++counts_[key_index(key)], ++total_; }

    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    [[nodiscard]] std::uint64_t count(std::uint64_t key) const noexcept;
    [[nodiscard]] double fraction(std::uint64_t key) const noexcept;
    [[nodiscard]] std::uint64_t max_key() const noexcept;

private:
    std::size_t key_index(std::uint64_t key);
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/// Result of an ordinary least-squares fit y ≈ slope·x + intercept.
struct LinearFit {
    double slope = 0.0;
    double intercept = 0.0;
    double r_squared = 0.0;  ///< coefficient of determination
};

/// Ordinary least-squares fit over paired samples. Requires ≥ 2 points.
[[nodiscard]] LinearFit fit_linear(std::span<const double> x, std::span<const double> y);

/// Fits y ≈ a·log2(x) + b. Returns {slope=a, intercept=b}. Used to test
/// Theorem 1's O(log n) scaling: a good fit with stable `a` across the top
/// octaves is the empirical signature of logarithmic growth.
[[nodiscard]] LinearFit fit_log2(std::span<const double> x, std::span<const double> y);

/// Fits y ≈ c·x^e via log-log regression (returns slope=e, intercept=log2 c).
/// Used to estimate growth exponents, e.g. the Ω(n) check on the O(1)-state
/// baseline for Table 2.
[[nodiscard]] LinearFit fit_power_law(std::span<const double> x, std::span<const double> y);

/// Result of a two-sample Kolmogorov–Smirnov test: the KS statistic (the
/// supremum distance between the two empirical CDFs) and the asymptotic
/// p-value of the null hypothesis that both samples come from the same
/// distribution. The cross-engine agreement harness
/// (tests/test_statistical.cpp) runs this over stabilisation-time samples.
struct KsTestResult {
    double statistic = 0.0;
    double p_value = 1.0;
};

/// Two-sample KS statistic sup_x |F_a(x) − F_b(x)|. Requires both samples
/// non-empty; the inputs need not be sorted (copies are sorted internally).
[[nodiscard]] double ks_statistic(std::span<const double> a, std::span<const double> b);

/// Asymptotic p-value of a two-sample KS statistic for sample sizes n1, n2
/// (Kolmogorov distribution with the Stephens small-sample correction, as in
/// Numerical Recipes). Accurate for n1, n2 ≳ 20 — the harness uses hundreds.
[[nodiscard]] double ks_p_value(double statistic, std::size_t n1, std::size_t n2);

/// Convenience: statistic + p-value in one call.
[[nodiscard]] KsTestResult ks_two_sample(std::span<const double> a,
                                         std::span<const double> b);

/// Two-sided binomial confidence interval (Wilson score) for a proportion.
struct ProportionCi {
    double estimate = 0.0;
    double lower = 0.0;
    double upper = 0.0;
};
[[nodiscard]] ProportionCi wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                           double level = 0.95);

}  // namespace ppsim
