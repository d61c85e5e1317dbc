// Golden-seed regression tests: exact stabilisation step counts pinned for
// one fixed seed per (protocol × engine) cell at a small n, plus gillespie
// cells above its τ-leap floor.
//
// Each engine's seeded replay semantics — which PRNG draws happen in which
// order — is part of its reproducibility contract: BENCH_engine.json rows,
// the KS harness seeds and every documented example depend on it. A change
// to a sampler's draw order, a pairing strategy's column sort, the leap
// dispatch thresholds or the scheduler's fast path silently shifts every
// seeded run; these pins make that shift loud instead. An *intentional*
// semantics change (a new sampler regime, a retuned threshold) is expected
// to update these constants — the point is that it happens knowingly, in
// the same commit, rather than as an invisible side effect.
//
// The step counts are NOT distributional claims (the statistical-agreement
// harness in test_statistical.cpp owns those); engines legitimately differ
// per seed, which is why each cell pins its own value.
//
// Platform assumption: the batched and gillespie cells consume PRNG draws
// through samplers whose accept/reject decisions evaluate libm functions
// (log/log1p/exp in the hypergeometric, binomial and geometric samplers),
// so the pinned values assume one libm — glibc, the libm of every CI job
// (gcc and clang both link it on ubuntu, and the sanitizer job reproduces
// the same values). A different libm (musl, Apple) may flip a last-ulp
// accept/reject and shift the draw stream; on such a platform, regenerate
// the table rather than treating a mismatch as an engine bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>

#include "core/engine.hpp"
#include "protocols/pll.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

struct GoldenRun {
    const char* protocol;
    EngineKind engine;
    std::uint64_t stabilization_step;
};

/// Prints a cell as "pll/agent". gtest appends this text to each
/// discovered test id; without a printer it would append the struct's raw
/// bytes, which start with the run-time address of the protocol name.
void PrintTo(const GoldenRun& run, std::ostream* os) {
    *os << run.protocol << "/" << to_string(run.engine);
}

// All cells: n = 128, seed = 2019, budget = 50·n² (every run converges).
constexpr GoldenRun golden_runs[] = {
    {"angluin06", EngineKind::agent, 22269ULL},
    {"angluin06", EngineKind::batched, 54877ULL},
    {"angluin06", EngineKind::gillespie, 15103ULL},
    {"lottery", EngineKind::agent, 1138ULL},
    {"lottery", EngineKind::batched, 1234ULL},
    {"lottery", EngineKind::gillespie, 830ULL},
    {"pll", EngineKind::agent, 770ULL},
    {"pll", EngineKind::batched, 15654ULL},
    {"pll", EngineKind::gillespie, 16354ULL},
    {"pll_symmetric", EngineKind::agent, 33708ULL},
    {"pll_symmetric", EngineKind::batched, 16602ULL},
    {"pll_symmetric", EngineKind::gillespie, 32938ULL},
    {"mst18_style", EngineKind::agent, 2611ULL},
    {"mst18_style", EngineKind::gillespie, 2347ULL},
    // Hybrid cells: segment 0 runs the agent engine on the hybrid segment
    // stream (derive_seed(seed, hybrid_segment_tag)), so these values differ
    // from the fixed-engine cells by design. Only angluin06 lives past the
    // first evaluation at step 16384, where it hands over to gillespie.
    {"angluin06", EngineKind::hybrid, 22026ULL},
    {"lottery", EngineKind::hybrid, 750ULL},
    {"pll", EngineKind::hybrid, 750ULL},
    {"pll_symmetric", EngineKind::hybrid, 1314ULL},
};

class GoldenSeedReplay : public ::testing::TestWithParam<GoldenRun> {};

TEST_P(GoldenSeedReplay, StabilizationStepIsPinned) {
    const GoldenRun& run = GetParam();
    const std::size_t n = 128;
    const RunResult result = ProtocolRegistry::instance().run_election(
        run.protocol, n, /*seed=*/2019, /*max_steps=*/static_cast<StepCount>(n) * n * 50,
        run.engine);
    ASSERT_TRUE(result.converged) << "golden run no longer converges";
    ASSERT_TRUE(result.stabilization_step.has_value());
    EXPECT_EQ(*result.stabilization_step, run.stabilization_step)
        << "seeded replay semantics changed for " << run.protocol << " on "
        << to_string(run.engine)
        << " — if the change is intentional, update this table in the same commit";
}

std::string golden_name(const ::testing::TestParamInfo<GoldenRun>& info) {
    return std::string(info.param.protocol) + "_" + std::string(to_string(info.param.engine));
}

INSTANTIATE_TEST_SUITE_P(Cells, GoldenSeedReplay, ::testing::ValuesIn(golden_runs),
                         golden_name);

// --- every PLL module on the agent engine ------------------------------------

// The pll/agent cell above settles at step 770, about 6 parallel time into
// epoch 1, so it never runs a timer wrap, the Tournament or BackUp. These
// seeds settle in epochs 2, 3 and 4, so each stream crosses the count-up
// wraps and colour epidemics and, in turn, one Tournament round, both
// rounds, and BackUp. Same n, budget and engine as the table above.
struct EpochGoldenRun {
    std::uint64_t seed;
    unsigned settling_epoch;
    std::uint64_t stabilization_step;
};

void PrintTo(const EpochGoldenRun& run, std::ostream* os) {
    *os << "pll/agent seed " << run.seed;
}

constexpr EpochGoldenRun epoch_golden_runs[] = {
    {2026, 2, 16677ULL},
    {2020, 3, 32493ULL},
    {2036, 4, 49689ULL},
};

class GoldenSeedReplayPllEpochs : public ::testing::TestWithParam<EpochGoldenRun> {};

TEST_P(GoldenSeedReplayPllEpochs, StabilizationStepIsPinned) {
    const EpochGoldenRun& run = GetParam();
    const std::size_t n = 128;
    Engine<Pll> engine(Pll::for_population(n), n, run.seed);
    const RunResult result =
        engine.run_until_one_leader(static_cast<StepCount>(n) * n * 50);
    ASSERT_TRUE(result.converged) << "golden run no longer converges";
    ASSERT_TRUE(result.stabilization_step.has_value());
    EXPECT_EQ(*result.stabilization_step, run.stabilization_step)
        << "seeded replay semantics changed for pll on agent at seed " << run.seed
        << " — if the change is intentional, update this table in the same commit";

    // The population settles in the epoch the cell is meant to cover.
    unsigned epoch = 0;
    for (const PllState& s : engine.population().states()) {
        epoch = std::max(epoch, Pll::epoch_of(s));
    }
    EXPECT_EQ(epoch, run.settling_epoch);
}

std::string epoch_golden_name(const ::testing::TestParamInfo<EpochGoldenRun>& info) {
    return "epoch" + std::to_string(info.param.settling_epoch) + "_seed" +
           std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Cells, GoldenSeedReplayPllEpochs,
                         ::testing::ValuesIn(epoch_golden_runs), epoch_golden_name);

// --- the τ-leap regime ------------------------------------------------------

// The table above runs at n = 128, below GillespieEngine::leap_min_population,
// so it pins only the gillespie engine's exact SSA forms. These cells pin its
// τ-leap stream: pll at 2^20 on a seed whose election waits for the count-up
// timer, so the run crosses QuickElimination's folded leaps, thousands of
// separable leaps and the first wrap's paired leaps; lottery at 2^14, whose
// leaps pair and whose last two leaders meet on the exact-SSA fallback.
struct LeapGoldenRun {
    const char* protocol;
    std::size_t n;
    std::uint64_t seed;
    std::uint64_t stabilization_step;
};

void PrintTo(const LeapGoldenRun& run, std::ostream* os) {
    *os << run.protocol << "/gillespie@" << run.n;
}

// Budget 50·n², as above (every run converges). The pll cell moved from
// 382959320 when a separable leap began drawing its 2L step slots as one
// Mult(2L) multiset, split into sides only where needed, instead of two
// Mult(L) multisets: same chain, another stream. It moved again, from seed
// 2023 (384552551) to seed 2024, when QuickElimination's leaps began to
// fold: on the folded stream seed 2023 settles in QuickElimination
// (t ≈ 15.3), and 2024 is the first seed from 2023 up that still waits
// for the timer (t ≈ 364.7). The lottery cell did not move: its only
// separable leap is the first, over one state, whose split draws nothing,
// and its partner classes are singletons, so it never folds.
constexpr LeapGoldenRun leap_golden_runs[] = {
    {"pll", std::size_t{1} << 20U, 2024, 382411553ULL},
    {"lottery", std::size_t{1} << 14U, 2019, 58934560ULL},
};

class GoldenSeedReplayLeapRegime : public ::testing::TestWithParam<LeapGoldenRun> {};

TEST_P(GoldenSeedReplayLeapRegime, StabilizationStepIsPinned) {
    const LeapGoldenRun& run = GetParam();
    const RunResult result = ProtocolRegistry::instance().run_election(
        run.protocol, run.n, run.seed, /*max_steps=*/static_cast<StepCount>(run.n) * run.n * 50,
        EngineKind::gillespie);
    ASSERT_TRUE(result.converged) << "golden run no longer converges";
    ASSERT_TRUE(result.stabilization_step.has_value());
    EXPECT_EQ(*result.stabilization_step, run.stabilization_step)
        << "seeded replay semantics changed for " << run.protocol << " on gillespie at n = "
        << run.n << " — if the change is intentional, update this table in the same commit";
}

std::string leap_golden_name(const ::testing::TestParamInfo<LeapGoldenRun>& info) {
    return std::string(info.param.protocol) + "_gillespie_" + std::to_string(info.param.n);
}

INSTANTIATE_TEST_SUITE_P(Cells, GoldenSeedReplayLeapRegime,
                         ::testing::ValuesIn(leap_golden_runs), leap_golden_name);

}  // namespace
}  // namespace ppsim
