// Cross-engine statistical-agreement harness: the three back-ends (agent,
// batched, gillespie) simulate the same Markov chain through entirely
// different code paths — per-interaction replay, collision-free batching
// with hypergeometric multisets, and reaction-rate SSA/τ-leaping. This suite
// compares their stabilisation-time *distributions* with the two-sample
// Kolmogorov–Smirnov test (src/core/stats.hpp) over hundreds of seeded
// repetitions per protocol:
//
//  * at small n (64) the gillespie engine is exact (below its leap
//    threshold), so all three engines sample the identical distribution and
//    KS must accept — any systematic deviation is an engine bug;
//  * at n = 8192 the gillespie engine τ-leaps, so the comparison bounds the
//    leaping approximation error statistically (pll is the stressor: a wide
//    state profile with every interaction non-null).
//
// All seeds are fixed, so the suite is fully deterministic: the sampled
// distributions — and therefore the p-values — are identical on every run.
// The acceptance threshold of p ≥ 0.001 leaves a wide margin over the
// observed values (≥ 0.05 for every pinned seed set).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "core/observer.hpp"
#include "core/random.hpp"
#include "core/stats.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

/// Stabilisation times (parallel-time units) of `reps` seeded elections.
std::vector<double> stabilization_times(const std::string& protocol, std::size_t n,
                                        EngineKind engine, int reps,
                                        std::uint64_t seed_root, StepCount budget) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const RunResult r = registry.run_election(protocol, n, derive_seed(seed_root, i),
                                                  budget, engine);
        if (!r.converged || !r.stabilization_step) {
            ADD_FAILURE() << protocol << " rep " << i << " on " << to_string(engine)
                          << " missed the budget";
            return {};
        }
        out.push_back(r.stabilization_parallel_time(n));
    }
    return out;
}

/// Acceptance level. KS p-values here are deterministic (fixed seeds), so
/// this is a regression bar, not a false-positive rate: the committed seed
/// sets all pass with p ≥ 0.05, and a real distributional bug (e.g. a
/// mis-weighted sampler) drives p below 1e-6 at these sample sizes.
constexpr double ks_alpha = 0.001;

void expect_agreement(const std::string& protocol, std::size_t n, int reps,
                      StepCount budget, EngineKind lhs, EngineKind rhs,
                      std::uint64_t root_lhs, std::uint64_t root_rhs) {
    std::vector<double> a = stabilization_times(protocol, n, lhs, reps, root_lhs, budget);
    std::vector<double> b = stabilization_times(protocol, n, rhs, reps, root_rhs, budget);
    if (a.empty() || b.empty()) return;  // ASSERT in helper already failed the test
    const KsTestResult ks = ks_two_sample(a, b);
    EXPECT_GE(ks.p_value, ks_alpha)
        << protocol << " @ n=" << n << ": " << to_string(lhs) << " vs " << to_string(rhs)
        << " disagree (D=" << ks.statistic << ", p=" << ks.p_value << ")";
}

// --- exact regime: all three engines sample the identical distribution ------

class SmallPopulationAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(SmallPopulationAgreement, AgentVsBatched) {
    const std::size_t n = 64;
    expect_agreement(GetParam(), n, 250, static_cast<StepCount>(n) * n * 50,
                     EngineKind::agent, EngineKind::batched, 11, 22);
}

TEST_P(SmallPopulationAgreement, AgentVsGillespie) {
    const std::size_t n = 64;
    expect_agreement(GetParam(), n, 250, static_cast<StepCount>(n) * n * 50,
                     EngineKind::agent, EngineKind::gillespie, 11, 33);
}

TEST_P(SmallPopulationAgreement, BatchedVsGillespie) {
    const std::size_t n = 64;
    expect_agreement(GetParam(), n, 250, static_cast<StepCount>(n) * n * 50,
                     EngineKind::batched, EngineKind::gillespie, 22, 33);
}

INSTANTIATE_TEST_SUITE_P(Protocols, SmallPopulationAgreement,
                         ::testing::Values("angluin06", "lottery", "pll"),
                         [](const auto& info) { return std::string(info.param); });

// --- leap regime: bounds the τ-leaping approximation statistically ----------
//
// The exact reference is whichever exact engine elects faster at n = 8192:
// the agent engine for pll, the batched engine for lottery and for the
// churn_election recovery below.

TEST(LeapRegimeAgreement, PllGillespieMatchesAgentAt8192) {
    // n = 8192 is above GillespieEngine::leap_min_population, so virtually
    // every gillespie step here goes through the τ-leap path. pll is the
    // wide-state stressor: every interaction non-null, thousands of live
    // timer×colour states mid-run.
    const std::size_t n = 8192;
    expect_agreement("pll", n, 150, static_cast<StepCount>(n) * n * 4,
                     EngineKind::gillespie, EngineKind::agent, 101, 202);
}

TEST(LeapRegimeAgreement, LotteryGillespieMatchesBatchedAt8192) {
    // Heavy-tailed stabilisation (lottery ties need Θ(n²) steps to resolve):
    // KS is distribution-free, so the tail mass must match too — this is
    // where the near-stabilisation exact-SSA fallback earns its keep.
    const std::size_t n = 8192;
    expect_agreement("lottery", n, 120, static_cast<StepCount>(n) * n * 8,
                     EngineKind::gillespie, EngineKind::batched, 101, 202);
}

// --- post-fault recovery agreement ------------------------------------------
//
// The fault pipeline (core/fault.hpp) must not perturb the sampled chain
// beyond the surgery itself: after the churn_election scenario's final reset
// wave, the time to re-stabilise is a random variable of the same Markov
// chain on all three engines. These suites compare the recovery-time
// distributions of the *last* fault per repetition — the full crash → rejoin
// → reset history feeds into it, so a biased victim sampler, a mis-anchored
// fault step, or a broken post-fault leader census on any engine shifts the
// distribution and KS rejects.

/// Recovery times (parallel-time units) of the final churn_election fault
/// over `reps` seeded runs.
std::vector<double> churn_recovery_times(std::size_t n, EngineKind engine, int reps,
                                         std::uint64_t seed_root, StepCount budget) {
    const ChaosScenario& scenario = find_chaos_scenario("churn_election");
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const auto sim = registry.make_simulation(scenario.protocol, n,
                                                  derive_seed(seed_root, i), engine);
        sim->set_fault_plan(scenario.make_plan(n));
        RecoveryObserver recovery(n);
        sim->add_observer(recovery);
        const RunResult r = sim->run_until_one_leader(budget);
        if (!r.converged || recovery.records().empty() ||
            !recovery.records().back().recovery_step) {
            ADD_FAILURE() << "churn_election rep " << i << " on " << to_string(engine)
                          << " never recovered within the budget";
            return {};
        }
        out.push_back(*recovery.records().back().recovery_time(n));
    }
    return out;
}

void expect_recovery_agreement(std::size_t n, int reps, StepCount budget,
                               EngineKind lhs, EngineKind rhs,
                               std::uint64_t root_lhs, std::uint64_t root_rhs) {
    std::vector<double> a = churn_recovery_times(n, lhs, reps, root_lhs, budget);
    std::vector<double> b = churn_recovery_times(n, rhs, reps, root_rhs, budget);
    if (a.empty() || b.empty()) return;  // helper already failed the test
    const KsTestResult ks = ks_two_sample(a, b);
    EXPECT_GE(ks.p_value, ks_alpha)
        << "churn_election recovery @ n=" << n << ": " << to_string(lhs) << " vs "
        << to_string(rhs) << " disagree (D=" << ks.statistic << ", p=" << ks.p_value
        << ")";
}

TEST(ChurnRecoveryAgreement, AgentVsBatchedAt64) {
    const std::size_t n = 64;
    expect_recovery_agreement(n, 250, static_cast<StepCount>(n) * n * 300,
                              EngineKind::agent, EngineKind::batched, 401, 402);
}

TEST(ChurnRecoveryAgreement, AgentVsGillespieAt64) {
    const std::size_t n = 64;
    expect_recovery_agreement(n, 250, static_cast<StepCount>(n) * n * 300,
                              EngineKind::agent, EngineKind::gillespie, 401, 403);
}

TEST(ChurnRecoveryAgreement, BatchedVsGillespieAt64) {
    const std::size_t n = 64;
    expect_recovery_agreement(n, 250, static_cast<StepCount>(n) * n * 300,
                              EngineKind::batched, EngineKind::gillespie, 402, 403);
}

TEST(ChurnRecoveryAgreement, GillespieMatchesBatchedAt8192) {
    // The leap regime: post-fault recovery under τ-leaping must match the
    // batched engine's exact hypergeometric batches. The reset wave drops the
    // population back into a wide contention profile mid-run, which is
    // exactly where a leaping bias would concentrate.
    const std::size_t n = 8192;
    expect_recovery_agreement(n, 120, static_cast<StepCount>(n) * n * 8,
                              EngineKind::gillespie, EngineKind::batched, 501, 502);
}

}  // namespace
}  // namespace ppsim
