/// \file random.hpp
/// \brief Pseudo-random number generation for the simulation engine.
///
/// The population-protocol model has a single source of randomness: the
/// uniformly random scheduler that picks an ordered pair of agents at every
/// step. All protocol transition functions are deterministic. A simulation's
/// statistical quality therefore rests entirely on the scheduler's PRNG.
///
/// We provide two generators:
///  * SplitMix64 — tiny, used for seeding and for cheap auxiliary streams;
///  * Xoshiro256pp (xoshiro256++) — the main generator: 256-bit state,
///    period 2^256 − 1, passes BigCrush. Every independent stream (a
///    repetition's, an engine's fault stream, a hybrid segment's) is
///    seeded through `derive_seed`.
///
/// Both satisfy the C++ UniformRandomBitGenerator concept so they compose
/// with <random> distributions, but hot paths use the bias-free bounded
/// sampling below (Lemire's method) instead of std::uniform_int_distribution,
/// whose implementation varies across standard libraries and would break
/// cross-platform reproducibility of seeded runs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common.hpp"

namespace ppsim {

/// SplitMix64 generator (Steele, Lea, Flood 2014). Used to expand a single
/// 64-bit seed into larger seed material and as a cheap standalone stream.
class SplitMix64 {
public:
    using result_type = std::uint64_t;

    constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
    [[nodiscard]] static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    constexpr result_type operator()() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31U);
    }

private:
    std::uint64_t state_;
};

/// xoshiro256++ 1.0 (Blackman & Vigna 2019). The library's main generator.
class Xoshiro256pp {
public:
    using result_type = std::uint64_t;

    /// Seeds the four state words from a single 64-bit seed via SplitMix64,
    /// the seeding procedure recommended by the xoshiro authors.
    constexpr explicit Xoshiro256pp(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
        SplitMix64 sm(seed);
        for (auto& word : state_) word = sm();
        // An all-zero state is the one fixed point; SplitMix64 cannot emit
        // four zero words in a row, but guard anyway for safety.
        if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
    }

    [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
    [[nodiscard]] static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    constexpr result_type operator()() noexcept {
        const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
        const std::uint64_t t = state_[1] << 17U;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// The raw 256-bit state, for checkpointing a stream position.
    [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state() const noexcept {
        return state_;
    }

    /// Restores a state captured by `state()`. An all-zero state is the
    /// generator's fixed point and can never be produced by it, so reject it.
    constexpr void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
        state_ = s;
        if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
    }

private:
    [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << static_cast<unsigned>(k)) | (x >> (64U - static_cast<unsigned>(k)));
    }

    std::array<std::uint64_t, 4> state_{};
};

/// The generator type used by the scheduler and all experiment drivers.
using Rng = Xoshiro256pp;

/// One accepted draw of Lemire's multiply-shift method for a bound:
/// `value` = ⌊word·bound / 2^64⌋, uniform in [0, bound).
struct LemireDraw {
    std::uint64_t word;   ///< the accepted generator output
    std::uint64_t value;  ///< the sample
};

/// The rejection loop of Lemire's method, for bound ≥ 1: draws words until
/// the low half of word·bound lies outside the rejection zone. Its one
/// division is taken only inside the zone. Forced inline, so that a caller
/// that reads only `value` compiles as if the loop were written in place.
template <typename Generator>
[[nodiscard]] [[gnu::always_inline]] constexpr LemireDraw lemire_draw(
    Generator& gen, std::uint64_t bound) noexcept {
    while (true) {
        const std::uint64_t x = gen();
        const unsigned __int128 m =
            static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(bound);
        const auto low = static_cast<std::uint64_t>(m);
        if (low >= bound) return {x, static_cast<std::uint64_t>(m >> 64U)};
        // Rejection zone: only entered with probability < bound / 2^64.
        const std::uint64_t threshold = (0ULL - bound) % bound;
        if (low >= threshold) return {x, static_cast<std::uint64_t>(m >> 64U)};
    }
}

/// Unbiased sampling of an integer in [0, bound) by Lemire's multiply-shift
/// rejection method. Identical output on every platform for a given stream.
template <typename Generator>
[[nodiscard]] constexpr std::uint64_t uniform_below(Generator& gen, std::uint64_t bound) noexcept {
    // bound == 0 would be a caller bug; map it to 0 deterministically rather
    // than dividing by zero (callers validate in debug builds).
    if (bound == 0) return 0;
    return lemire_draw(gen, bound).value;
}

/// Samples an integer in the closed range [lo, hi].
template <typename Generator>
[[nodiscard]] constexpr std::uint64_t uniform_between(Generator& gen, std::uint64_t lo,
                                                      std::uint64_t hi) noexcept {
    return lo + uniform_below(gen, hi - lo + 1);
}

/// Samples a double uniformly in [0, 1) with 53 bits of precision.
template <typename Generator>
[[nodiscard]] constexpr double uniform_unit(Generator& gen) noexcept {
    return static_cast<double>(gen() >> 11U) * 0x1.0p-53;
}

/// Fair coin.
template <typename Generator>
[[nodiscard]] constexpr bool coin_flip(Generator& gen) noexcept {
    return (gen() >> 63U) != 0;
}

// --- samplers for the count-based batched engine ---------------------------

/// ln(x!) for integer x: table lookup below 1024, Stirling series above
/// (relative error < 1e-16 there). Hot in the batched engine's samplers,
/// where lgamma() itself would dominate the per-batch cost.
[[nodiscard]] inline double log_factorial(std::uint64_t x) noexcept {
    constexpr std::size_t table_size = 1024;
    static const std::array<double, table_size> table = [] {
        std::array<double, table_size> t{};
        double acc = 0.0;
        for (std::size_t i = 1; i < table_size; ++i) {
            acc += std::log(static_cast<double>(i));
            t[i] = acc;
        }
        return t;
    }();
    if (x < table_size) return table[x];
    const double xd = static_cast<double>(x);
    const double inv = 1.0 / xd;
    // ln x! = (x + ½)·ln x − x + ½·ln 2π + 1/(12x) − 1/(360x³) + …
    return (xd + 0.5) * std::log(xd) - xd + 0.91893853320467274178 +
           inv * (1.0 / 12.0 - inv * inv * (1.0 / 360.0));
}

namespace detail {

/// ln C(n, k) for integer arguments via the fast log-factorial.
[[nodiscard]] inline double log_choose(std::uint64_t n, std::uint64_t k) noexcept {
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

/// Standard deviation of the hypergeometric(total, successes, draws)
/// distribution — the dispatch criterion between the two samplers below.
[[nodiscard]] inline double hypergeometric_sd(std::uint64_t total, std::uint64_t successes,
                                              std::uint64_t draws) noexcept {
    const double N = static_cast<double>(total);
    const double p = static_cast<double>(successes) / N;
    const double k = static_cast<double>(draws);
    return std::sqrt(k * p * (1.0 - p) * (N - k) / (N - 1.0));
}

/// Inversion from the mode (zig-zag chop-down): expected work is
/// O(standard deviation). The right tool when the distribution is narrow —
/// a handful of pmf recurrence steps and one exp() — but its cost grows
/// with √(draws) in the wide regime.
template <typename Generator>
[[nodiscard]] std::uint64_t hypergeometric_inversion(Generator& gen, std::uint64_t total,
                                                     std::uint64_t successes,
                                                     std::uint64_t draws) {
    const std::uint64_t lo =
        draws + successes > total ? draws + successes - total : 0;
    const std::uint64_t hi = std::min(draws, successes);
    if (lo >= hi) return lo;

    const double N = static_cast<double>(total);
    const double K = static_cast<double>(successes);
    const double k = static_cast<double>(draws);

    auto mode = static_cast<std::uint64_t>(((k + 1.0) * (K + 1.0)) / (N + 2.0));
    mode = std::clamp(mode, lo, hi);

    const double log_pm = log_choose(successes, mode) +
                          log_choose(total - successes, draws - mode) -
                          log_choose(total, draws);
    const double pm = std::exp(log_pm);

    double u = uniform_unit(gen) - pm;
    if (u <= 0.0) return mode;

    // Walk outward from the mode, alternating sides, subtracting pmf mass
    // until the uniform draw is exhausted. Recurrences give p(x±1) from p(x).
    double p_up = pm;
    double p_dn = pm;
    std::uint64_t x_up = mode;
    std::uint64_t x_dn = mode;
    while (true) {
        bool stepped = false;
        if (x_up < hi) {
            const double x = static_cast<double>(x_up);
            p_up *= ((K - x) * (k - x)) / ((x + 1.0) * (N - K - k + x + 1.0));
            ++x_up;
            u -= p_up;
            if (u <= 0.0) return x_up;
            stepped = true;
        }
        if (x_dn > lo) {
            const double x = static_cast<double>(x_dn);
            p_dn *= (x * (N - K - k + x)) / ((K - x + 1.0) * (k - x + 1.0));
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

/// Ratio-of-uniforms rejection sampler (Stadlober's H2PE/HRUA* scheme, the
/// same algorithm behind NumPy's wide-regime hypergeometric): O(1) expected
/// PRNG draws and log-factorial evaluations *independent of the standard
/// deviation*, with an acceptance squeeze that skips the exact pmf
/// evaluation for most candidates. Used when the distribution is wide,
/// where inversion's O(sd) walk would dominate the batched engine's
/// per-batch cost; the two samplers draw from the identical distribution
/// (agreement is tested against the exact pmf for both).
template <typename Generator>
[[nodiscard]] std::uint64_t hypergeometric_hrua(Generator& gen, std::uint64_t total,
                                                std::uint64_t successes,
                                                std::uint64_t draws) {
    // Work on the smaller of each symmetric pair (successes vs failures,
    // draws vs non-draws); undo the reflections at the end.
    const std::uint64_t good = successes;
    const std::uint64_t bad = total - successes;
    const std::uint64_t min_gb = std::min(good, bad);
    const std::uint64_t max_gb = std::max(good, bad);
    const std::uint64_t m = std::min(draws, total - draws);

    constexpr double d1 = 1.7155277699214135;  // 2·sqrt(2/e)
    constexpr double d2 = 0.8989161620588988;  // 3 − 2·sqrt(3/e)

    const double popsize = static_cast<double>(total);
    const double md = static_cast<double>(m);
    const double d4 = static_cast<double>(min_gb) / popsize;
    const double d5 = 1.0 - d4;
    const double d6 = md * d4 + 0.5;
    const double d7 =
        std::sqrt((popsize - md) * md * d4 * d5 / (popsize - 1.0) + 0.5);
    const double d8 = d1 * d7 + d2;
    const auto mode = static_cast<std::uint64_t>(
        static_cast<double>(m + 1) * static_cast<double>(min_gb + 1) /
        (popsize + 2.0));
    const double d10 = log_factorial(mode) + log_factorial(min_gb - mode) +
                       log_factorial(m - mode) + log_factorial(max_gb - m + mode);
    const double d11 = std::min(static_cast<double>(std::min(m, min_gb) + 1),
                                std::floor(d6 + 16.0 * d7));

    std::uint64_t z = 0;
    while (true) {
        const double x = uniform_unit(gen);
        const double y = uniform_unit(gen);
        if (x == 0.0) continue;  // open interval: avoid the division blow-up
        const double w = d6 + d8 * (y - 0.5) / x;
        if (w < 0.0 || w >= d11) continue;  // outside the candidate window
        z = static_cast<std::uint64_t>(std::floor(w));
        const double t = d10 - (log_factorial(z) + log_factorial(min_gb - z) +
                                log_factorial(m - z) + log_factorial(max_gb - m + z));
        if (x * (4.0 - x) - 3.0 <= t) break;       // squeeze accept
        if (x * (x - t) >= 1.0) continue;          // squeeze reject
        if (2.0 * std::log(x) <= t) break;         // exact acceptance test
    }
    if (good > bad) z = m - z;
    if (m < draws) z = good - z;
    return z;
}

/// Inversion from the mode for the binomial distribution (same zig-zag
/// chop-down as hypergeometric_inversion): expected work O(standard
/// deviation), tiny constants. Routed to when the distribution is narrow.
template <typename Generator>
[[nodiscard]] std::uint64_t binomial_inversion(Generator& gen, std::uint64_t trials,
                                               double p) {
    const double n = static_cast<double>(trials);
    const double log_q = std::log1p(-p);

    auto mode = static_cast<std::uint64_t>((n + 1.0) * p);
    mode = std::min(mode, trials);

    // At mode 0 the general form adds ln C(trials, 0), which is exactly 0,
    // and 0·ln p, which is −0: trials·ln q is the same double, without the
    // log and the two log-factorials.
    const double log_pm = mode == 0 ? n * log_q
                                    : log_choose(trials, mode) +
                                          static_cast<double>(mode) * std::log(p) +
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

/// Transformed-rejection binomial sampler (Hörmann's BTRS, the algorithm
/// behind NumPy's and TensorFlow's wide-regime binomial): O(1) expected PRNG
/// draws and log-factorial evaluations independent of the parameters, with a
/// box squeeze that accepts most candidates without evaluating the exact
/// pmf. Requires p ≤ 0.5 and trials·p ≥ 10 (callers reflect / route).
template <typename Generator>
[[nodiscard]] std::uint64_t binomial_btrs(Generator& gen, std::uint64_t trials, double p) {
    const double n = static_cast<double>(trials);
    const double q = 1.0 - p;
    const double spq = std::sqrt(n * p * q);

    const double b = 1.15 + 2.53 * spq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * p;
    const double c = n * p + 0.5;
    const double vr = 0.92 - 4.2 / b;
    // The exact test's constants, computed on the first candidate that
    // reaches it: the inner box accepts most draws without them.
    double alpha = 0.0;
    double lpq = 0.0;
    std::uint64_t mode = 0;
    double h = 0.0;
    bool exact_ready = false;

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
        if (!exact_ready) {
            alpha = (2.83 + 5.1 / b) * spq;
            lpq = std::log(p / q);
            mode = static_cast<std::uint64_t>((n + 1.0) * p);
            h = log_factorial(mode) + log_factorial(trials - mode);
            exact_ready = true;
        }
        const double scaled = v * alpha / (a / (us * us) + b);
        const double log_accept = h - log_factorial(ki) - log_factorial(trials - ki) +
                                  (k - static_cast<double>(mode)) * lpq;
        if (std::log(scaled) <= log_accept) return ki;
    }
}

}  // namespace detail

/// Samples the binomial distribution: the number of successes among `trials`
/// independent draws that each succeed with probability `num`/`den`. The
/// probability is taken as an integer ratio so call sites built on counts
/// avoid any argument-rounding ambiguity (like the other samplers here, the
/// draw itself still evaluates libm functions, so seeded streams are
/// reproducible per libm — glibc covers every CI job — not across every
/// platform's last-ulp differences). Two regimes behind one interface, mirroring
/// `hypergeometric`: narrow distributions use inversion from the mode
/// (expected O(sd) work), wide ones Hörmann's BTRS transformed-rejection
/// sampler (expected O(1) work). Both are exact in distribution up to
/// double-precision rounding of the pmf.
template <typename Generator>
[[nodiscard]] std::uint64_t binomial(Generator& gen, std::uint64_t trials,
                                     std::uint64_t num, std::uint64_t den) {
    if (num > den) [[unlikely]] {  // cheap check: no string temporary per call
        require(false, "binomial: success probability exceeds one");
    }
    if (trials == 0 || num == 0) return 0;
    if (num == den) return trials;
    // Work on p ≤ ½ (reflect the failures otherwise), the precondition of
    // BTRS and the cheaper side for inversion. Overflow-safe form of
    // 2·num > den: num may use all 64 bits.
    const bool reflected = num > den - num;
    const double p = reflected ? static_cast<double>(den - num) / static_cast<double>(den)
                               : static_cast<double>(num) / static_cast<double>(den);
    const double mean = static_cast<double>(trials) * p;
    const std::uint64_t x = mean < 10.0 ? detail::binomial_inversion(gen, trials, p)
                                        : detail::binomial_btrs(gen, trials, p);
    return reflected ? trials - x : x;
}

/// Samples the geometric distribution: the number of Bernoulli(p) trials up
/// to and including the first success (support 1, 2, …), by inversion of
/// the survival function P(X > k) = (1−p)^k. One PRNG draw and two log
/// evaluations — the Gillespie engine's null-reaction skip, where it jumps
/// every null interaction up to the next real reaction at once. Exact up to
/// double precision of log/log1p, the trade every SSA implementation makes
/// for its waiting times. Saturates at 2^64−1 for astronomically long waits.
template <typename Generator>
[[nodiscard]] std::uint64_t geometric(Generator& gen, double p) {
    if (p >= 1.0) return 1;
    if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
    const double u = 1.0 - uniform_unit(gen);  // (0, 1]
    const double gap = std::floor(std::log(u) / std::log1p(-p));
    if (gap >= 9.2e18) return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(gap) + 1;
}

/// Samples a multinomial vector: `trials` independent draws land in colour i
/// with probability `counts[i]` / Σ counts, and `out[i]` receives the number
/// of colour-i draws. Factored as a conditional chain of scalar binomial
/// draws (colour i against the remaining colour mass), exactly like
/// `multivariate_hypergeometric` below — the with-replacement sibling. This
/// is the dense reference form: its distribution tests in test_random.cpp
/// pin the chain math, while the Gillespie engine's τ-leap path runs the
/// same chain as a sparse specialisation over its (state id, count) live
/// list (`GillespieEngine::sample_leap_multiset`) — changes to either
/// chain's fast paths should be mirrored in the other, exactly as for the
/// hypergeometric chain and `ContingencyTablePairing`. `counts` and `out`
/// may alias.
template <typename Generator>
void multinomial(Generator& gen, const std::uint64_t* counts, std::size_t m,
                 std::uint64_t trials, std::uint64_t* out) {
    std::uint64_t pool = 0;
    for (std::size_t i = 0; i < m; ++i) pool += counts[i];
    if (pool == 0 && trials > 0) [[unlikely]] {
        require(false, "multinomial: zero total mass with trials remaining");
    }
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t c = counts[i];
        if (trials == 0 || c == pool) {  // nothing left to draw, or forced
            out[i] = trials;
            trials = 0;
            pool -= c;
            continue;
        }
        const std::uint64_t x = binomial(gen, trials, c, pool);
        out[i] = x;
        pool -= c;
        trials -= x;
    }
    if (trials != 0) [[unlikely]] {  // cheap check: no string temporary per call
        ensure(false, "multinomial chain under-drew");
    }
}

/// Vector convenience overload: returns the per-colour draw counts.
template <typename Generator>
[[nodiscard]] std::vector<std::uint64_t> multinomial(
    Generator& gen, const std::vector<std::uint64_t>& counts, std::uint64_t trials) {
    std::vector<std::uint64_t> out(counts.size(), 0);
    multinomial(gen, counts.data(), counts.size(), trials, out.data());
    return out;
}

/// Samples the hypergeometric distribution: the number of successes among
/// `draws` draws without replacement from a population of `total` items of
/// which `successes` are successes. Two regimes behind one interface:
/// narrow distributions (sd ≤ 16) use inversion from the mode (expected
/// O(sd) work, tiny constants), wide ones use the H2PE-style
/// ratio-of-uniforms rejection sampler (expected O(1) work regardless of
/// the parameters). Both are exact in distribution up to double-precision
/// rounding of the pmf, the trade every production hypergeometric sampler
/// makes.
template <typename Generator>
[[nodiscard]] std::uint64_t hypergeometric(Generator& gen, std::uint64_t total,
                                           std::uint64_t successes, std::uint64_t draws) {
    const std::uint64_t lo =
        draws + successes > total ? draws + successes - total : 0;
    const std::uint64_t hi = std::min(draws, successes);
    if (lo >= hi) return lo;
    // Cheap pre-gate: sd ≤ √(draws·p·(1−p)) ≤ √draws / 2, and symmetrically
    // for the support width, so small parameters prove "narrow" without the
    // sqrt of the exact-sd test — the common case in multi-state batches.
    if (draws <= 1024 || hi - lo <= 64 ||
        detail::hypergeometric_sd(total, successes, draws) <= 16.0) {
        return detail::hypergeometric_inversion(gen, total, successes, draws);
    }
    return detail::hypergeometric_hrua(gen, total, successes, draws);
}

/// Samples a multivariate hypergeometric vector: `draws` items are drawn
/// without replacement from a population of `m` colours with `counts[i]`
/// items of colour i, and `out[i]` receives the number drawn of colour i.
/// The joint distribution is factored as a conditional chain of scalar
/// hypergeometric draws (colour i against the pool of colours i..m−1), so
/// the sampler is exact for any colour order and costs O(m) scalar draws.
/// Two exactness-preserving fast paths keep the chain cheap in the batched
/// engine's contingency-table use, where most rows want few items:
///  * when the remaining pool must be drawn entirely, every colour's
///    remainder is taken without touching the generator;
///  * when exactly one item remains wanted, it is picked by a single
///    categorical draw over the remaining colour masses.
/// Requires sum(counts) >= draws; `counts` and `out` may alias (the counts
/// are then replaced by the drawn amounts).
template <typename Generator>
void multivariate_hypergeometric(Generator& gen, const std::uint64_t* counts,
                                 std::size_t m, std::uint64_t draws,
                                 std::uint64_t* out) {
    std::uint64_t pool = 0;
    for (std::size_t i = 0; i < m; ++i) pool += counts[i];
    if (draws > pool) [[unlikely]] {  // cheap check: no string temporary per call
        require(false, "multivariate hypergeometric: draws exceed the population");
    }
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint64_t c = counts[i];
        if (draws == 0) {
            out[i] = 0;
            continue;
        }
        if (draws == pool) {  // must take everything that is left
            out[i] = c;
            pool -= c;
            draws -= c;
            continue;
        }
        if (draws == 1) {
            // One categorical draw locates the colour of the last wanted
            // item; the remaining colours are zero-filled without touching
            // the generator again.
            std::uint64_t r = uniform_below(gen, pool);
            for (std::size_t j = i; j < m; ++j) {
                const std::uint64_t cj = counts[j];
                if (r < cj) {
                    out[j] = 1;
                    for (std::size_t k = j + 1; k < m; ++k) out[k] = 0;
                    return;
                }
                out[j] = 0;
                r -= cj;
            }
            ensure(false, "multivariate hypergeometric categorical draw overran");
        }
        const std::uint64_t x = hypergeometric(gen, pool, c, draws);
        out[i] = x;
        pool -= c;
        draws -= x;
    }
    if (draws != 0) [[unlikely]] {  // cheap check: no string temporary per call
        ensure(false, "multivariate hypergeometric chain under-drew");
    }
}

/// Vector convenience overload: returns the per-colour draw counts.
template <typename Generator>
[[nodiscard]] std::vector<std::uint64_t> multivariate_hypergeometric(
    Generator& gen, const std::vector<std::uint64_t>& counts, std::uint64_t draws) {
    std::vector<std::uint64_t> out(counts.size(), 0);
    multivariate_hypergeometric(gen, counts.data(), counts.size(), draws, out.data());
    return out;
}

/// Samples the length of the collision-free run at the start of a batch: the
/// number L of consecutive uniformly scheduled interactions that touch 2L
/// distinct agents before an interaction first re-uses an agent (the
/// birthday-problem run length, E[L] = Θ(√n)). The survival function is
///   P(L ≥ ℓ) = n! / ((n − 2ℓ)! · (n(n−1))^ℓ),
/// inverted by binary search on its logarithm. Always returns L ≥ 1 (the
/// first interaction cannot collide) and L ≤ ⌊n/2⌋. The per-population
/// constants are precomputed once so a sample costs ~log2(n) cheap
/// log-factorial evaluations.
class CollisionRunSampler {
public:
    explicit CollisionRunSampler(std::uint64_t n) {
        // Tabulate the survival function by its multiplicative recurrence
        //   S(ℓ+1) = S(ℓ) · (n−2ℓ)(n−2ℓ−1) / (n(n−1)),
        // truncated where S drops below any representable uniform draw
        // (u ≥ 2^−53 ≫ 10^−18). The table is Θ(√n) doubles and a sample is
        // one binary search over it — no lgamma on the hot path.
        const std::uint64_t max_run = n / 2;
        const double pairs = static_cast<double>(n) * (static_cast<double>(n) - 1.0);
        double s = 1.0;
        survival_.push_back(s);  // S(1) = 1: the first interaction cannot collide
        for (std::uint64_t l = 1; l < max_run && s > 1e-18; ++l) {
            const double fresh = static_cast<double>(n - 2 * l);
            s *= fresh * (fresh - 1.0) / pairs;
            survival_.push_back(s);
        }
    }

    template <typename Generator>
    [[nodiscard]] std::uint64_t sample(Generator& gen) const {
        // u ∈ (0, 1]; L = max{ℓ : S(ℓ) ≥ u}, found by binary search on the
        // decreasing table (survival_[i] = S(i + 1)).
        const double u = 1.0 - uniform_unit(gen);
        std::size_t lo = 0;
        std::size_t hi = survival_.size() - 1;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo + 1) / 2;
            if (survival_[mid] >= u) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        return lo + 1;
    }

private:
    std::vector<double> survival_;
};

/// One-shot convenience wrapper around CollisionRunSampler.
template <typename Generator>
[[nodiscard]] std::uint64_t sample_collision_free_run(Generator& gen, std::uint64_t n) {
    return CollisionRunSampler(n).sample(gen);
}

/// Uniform Fisher–Yates shuffle of a vector (bias-free via uniform_below).
template <typename T, typename Generator>
void shuffle_vector(std::vector<T>& items, Generator& gen) {
    for (std::size_t i = items.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(uniform_below(gen, i));
        std::swap(items[i - 1], items[j]);
    }
}

/// Derives a child seed from a root seed and a stream index. Used to give
/// every repetition of an experiment an independent, reproducible seed.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t root,
                                                  std::uint64_t stream) noexcept {
    SplitMix64 sm(root ^ (0x632be59bd9b4e019ULL * (stream + 1)));
    // Burn a few outputs so nearby stream indices decorrelate fully.
    sm();
    sm();
    return sm();
}

}  // namespace ppsim
