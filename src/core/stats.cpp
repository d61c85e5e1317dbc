#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common.hpp"

namespace ppsim {

// --- RunningStats -----------------------------------------------------------

void RunningStats::add(double x) noexcept {
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::sem() const noexcept {
    return count_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStats::ci_half_width(double level) const {
    // Normal-approximation z values for the levels the harness uses. The
    // sample counts in experiments (≥ 30) make the normal approximation fine.
    double z = 1.959964;
    if (level == 0.90) {
        z = 1.644854;
    } else if (level == 0.95) {
        z = 1.959964;
    } else if (level == 0.99) {
        z = 2.575829;
    } else {
        throw InvalidArgument("unsupported confidence level; use 0.90, 0.95 or 0.99");
    }
    return z * sem();
}

// --- SampleSet ---------------------------------------------------------------

void SampleSet::add(std::span<const double> xs) {
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sorted_ = false;
}

void SampleSet::ensure_sorted() const {
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double SampleSet::mean() const noexcept {
    if (samples_.empty()) return 0.0;
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
}

double SampleSet::variance() const noexcept {
    if (samples_.size() < 2) return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double x : samples_) acc += (x - m) * (x - m);
    return acc / static_cast<double>(samples_.size() - 1);
}

double SampleSet::stddev() const noexcept { return std::sqrt(variance()); }

double SampleSet::min() const noexcept {
    return samples_.empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const noexcept {
    return samples_.empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::percentile(double p) const {
    require(!samples_.empty(), "percentile of an empty sample set");
    require(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
    ensure_sorted();
    if (samples_.size() == 1) return samples_.front();
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

// --- FrequencyTable ------------------------------------------------------------

std::size_t FrequencyTable::key_index(std::uint64_t key) {
    if (key >= counts_.size()) counts_.resize(key + 1, 0);
    return static_cast<std::size_t>(key);
}

std::uint64_t FrequencyTable::count(std::uint64_t key) const noexcept {
    return key < counts_.size() ? counts_[key] : 0;
}

double FrequencyTable::fraction(std::uint64_t key) const noexcept {
    return total_ == 0 ? 0.0
                       : static_cast<double>(count(key)) / static_cast<double>(total_);
}

std::uint64_t FrequencyTable::max_key() const noexcept {
    for (std::size_t i = counts_.size(); i-- > 0;) {
        if (counts_[i] != 0) return i;
    }
    return 0;
}

// --- fits ----------------------------------------------------------------------

LinearFit fit_linear(std::span<const double> x, std::span<const double> y) {
    require(x.size() == y.size(), "fit requires equally many x and y values");
    require(x.size() >= 2, "fit requires at least two points");
    const double n = static_cast<double>(x.size());
    double sx = 0.0;
    double sy = 0.0;
    double sxx = 0.0;
    double sxy = 0.0;
    double syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
        syy += y[i] * y[i];
    }
    const double denom = n * sxx - sx * sx;
    LinearFit fit;
    if (denom == 0.0) {
        fit.slope = 0.0;
        fit.intercept = sy / n;
        fit.r_squared = 0.0;
        return fit;
    }
    fit.slope = (n * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / n;
    const double ss_tot = syy - sy * sy / n;
    double ss_res = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double e = y[i] - (fit.slope * x[i] + fit.intercept);
        ss_res += e * e;
    }
    fit.r_squared = ss_tot <= 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
    return fit;
}

LinearFit fit_log2(std::span<const double> x, std::span<const double> y) {
    std::vector<double> lx(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        require(x[i] > 0.0, "fit_log2 requires positive x values");
        lx[i] = std::log2(x[i]);
    }
    return fit_linear(lx, y);
}

LinearFit fit_power_law(std::span<const double> x, std::span<const double> y) {
    std::vector<double> lx(x.size());
    std::vector<double> ly(y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        require(x[i] > 0.0 && y[i] > 0.0, "fit_power_law requires positive values");
        lx[i] = std::log2(x[i]);
        ly[i] = std::log2(y[i]);
    }
    return fit_linear(lx, ly);
}

double ks_statistic(std::span<const double> a, std::span<const double> b) {
    require(!a.empty() && !b.empty(), "ks_statistic requires two non-empty samples");
    std::vector<double> sa(a.begin(), a.end());
    std::vector<double> sb(b.begin(), b.end());
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    const double na = static_cast<double>(sa.size());
    const double nb = static_cast<double>(sb.size());
    std::size_t ia = 0;
    std::size_t ib = 0;
    double d = 0.0;
    // Merge walk over both sorted samples: after consuming every value ≤ x
    // the CDF gap at x is |ia/na − ib/nb|. Ties are consumed from both sides
    // before the gap is read, so tied observations never inflate D.
    while (ia < sa.size() && ib < sb.size()) {
        const double x = std::min(sa[ia], sb[ib]);
        while (ia < sa.size() && sa[ia] == x) ++ia;
        while (ib < sb.size() && sb[ib] == x) ++ib;
        d = std::max(d, std::abs(static_cast<double>(ia) / na -
                                 static_cast<double>(ib) / nb));
    }
    return d;
}

double ks_p_value(double statistic, std::size_t n1, std::size_t n2) {
    require(n1 > 0 && n2 > 0, "ks_p_value requires non-empty samples");
    const double ne = static_cast<double>(n1) * static_cast<double>(n2) /
                      static_cast<double>(n1 + n2);
    const double sqrt_ne = std::sqrt(ne);
    // Stephens' correction makes the asymptotic Kolmogorov distribution
    // accurate down to small effective sample sizes (Numerical Recipes
    // §14.3.3).
    const double lambda = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * statistic;
    if (lambda < 1e-9) return 1.0;
    // Q_KS(λ) = 2 Σ_{j≥1} (−1)^{j−1} exp(−2 j² λ²) — alternating, and
    // rapidly convergent except as λ → 0, where Q → 1. Following Numerical
    // Recipes' probks, non-convergence within the term budget is reported
    // as p = 1: it only happens for λ small enough that the distributions
    // are statistically indistinguishable at these sample sizes.
    double sum = 0.0;
    double sign = 1.0;
    const double l2 = -2.0 * lambda * lambda;
    for (int j = 1; j <= 100; ++j) {
        const double term = std::exp(l2 * static_cast<double>(j) * static_cast<double>(j));
        sum += sign * term;
        if (term < 1e-12 * std::abs(sum)) {
            return std::clamp(2.0 * sum, 0.0, 1.0);
        }
        sign = -sign;
    }
    return 1.0;  // series not converged: λ ≈ 0, no evidence of a difference
}

KsTestResult ks_two_sample(std::span<const double> a, std::span<const double> b) {
    KsTestResult result;
    result.statistic = ks_statistic(a, b);
    result.p_value = ks_p_value(result.statistic, a.size(), b.size());
    return result;
}

ProportionCi wilson_interval(std::uint64_t successes, std::uint64_t trials, double level) {
    require(trials > 0, "wilson_interval requires at least one trial");
    require(successes <= trials, "successes cannot exceed trials");
    double z = 1.959964;
    if (level == 0.90) {
        z = 1.644854;
    } else if (level == 0.99) {
        z = 2.575829;
    } else if (level != 0.95) {
        throw InvalidArgument("unsupported confidence level; use 0.90, 0.95 or 0.99");
    }
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double centre = (p + z2 / (2.0 * n)) / denom;
    const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
    ProportionCi ci;
    ci.estimate = p;
    ci.lower = std::max(0.0, centre - margin);
    ci.upper = std::min(1.0, centre + margin);
    return ci;
}

}  // namespace ppsim
