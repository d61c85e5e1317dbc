// Correctness under ablated configurations (the `PllConfig` knobs D1–D5,
// protocols/pll.hpp; symbols in docs/NOTATION.md): every knob
// setting must preserve the election guarantee — only speed may change.
// These tests back the bench_ablation experiment with hard assertions.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "protocols/pll.hpp"

namespace ppsim {
namespace {

RunResult elect(const PllConfig& cfg, std::size_t n, std::uint64_t seed,
                double budget_factor = 8000.0) {
    Engine<Pll> engine(Pll(cfg), n, seed);
    const auto budget = static_cast<StepCount>(
        budget_factor * static_cast<double>(n) * std::log2(static_cast<double>(n)));
    RunResult result = engine.run_until_one_leader(budget);
    if (result.converged) {
        EXPECT_TRUE(engine.verify_outputs_stable(10 * static_cast<StepCount>(n)));
    }
    return result;
}

class CmaxAblation : public ::testing::TestWithParam<unsigned> {};

TEST_P(CmaxAblation, StillElects) {
    PllConfig cfg = PllConfig::for_population(256);
    cfg.cmax_multiplier = GetParam();
    EXPECT_TRUE(elect(cfg, 256, 0xD1 + GetParam()).converged);
}

INSTANTIATE_TEST_SUITE_P(Multipliers, CmaxAblation, ::testing::Values(5, 11, 21, 41, 81));

class PhiAblation : public ::testing::TestWithParam<unsigned> {};

TEST_P(PhiAblation, StillElects) {
    PllConfig cfg = PllConfig::for_population(256);
    cfg.phi_override = GetParam();
    EXPECT_TRUE(elect(cfg, 256, 0xD2 + GetParam()).converged);
}

INSTANTIATE_TEST_SUITE_P(Widths, PhiAblation, ::testing::Values(1, 2, 4, 8, 12));

class LmaxAblation : public ::testing::TestWithParam<unsigned> {};

TEST_P(LmaxAblation, StillElects) {
    PllConfig cfg = PllConfig::for_population(256);
    cfg.lmax_multiplier = GetParam();
    EXPECT_TRUE(elect(cfg, 256, 0xD3 + GetParam()).converged);
}

INSTANTIATE_TEST_SUITE_P(Caps, LmaxAblation, ::testing::Values(1, 2, 5, 10));

TEST(ModuleAblation, EveryCompositionElects) {
    for (const bool qe : {true, false}) {
        for (const bool tournament : {true, false}) {
            PllConfig cfg = PllConfig::for_population(128);
            cfg.enable_quick_elimination = qe;
            cfg.enable_tournament = tournament;
            const RunResult result = elect(cfg, 128, 0xD4, 20000.0);
            EXPECT_TRUE(result.converged)
                << "qe=" << qe << " tournament=" << tournament;
        }
    }
}

TEST(ModuleAblation, DisabledModulesLeaveEpochVariablesUntouched) {
    PllConfig cfg = PllConfig::for_population(64);
    cfg.enable_quick_elimination = false;
    Engine<Pll> engine(Pll(cfg), 64, 5);
    engine.run_for(20'000);
    for (const PllState& s : engine.population().states()) {
        if (Pll::in_va(s) && s.epoch == 1) {
            // With QuickElimination off, nobody flips lottery coins.
            EXPECT_EQ(s.level_q, 0);
        }
    }
}

TEST(KnowledgeAblation, UndersizedMStillElects) {
    // D5: m below log2(n) voids the whp analysis, not correctness.
    for (const unsigned m : {2U, 3U, 5U}) {
        PllConfig cfg;
        cfg.m = m;
        const RunResult result = elect(cfg, 512, 0xD5 + m, 20000.0);
        EXPECT_TRUE(result.converged) << "m = " << m;
    }
}

TEST(KnowledgeAblation, OversizedMStillElects) {
    PllConfig cfg;
    cfg.m = 64;  // ≫ log2(128) = 7
    EXPECT_TRUE(elect(cfg, 128, 0xD5, 40000.0).converged);
}

TEST(ConfigValidation, RejectsOutOfRangeDerivedParameters) {
    PllConfig cfg;
    cfg.m = 2000;
    cfg.cmax_multiplier = 41;  // cmax = 82000 > uint16 range
    EXPECT_THROW(Pll{cfg}, InvalidArgument);
    PllConfig tiny;
    tiny.m = 1;
    EXPECT_THROW(Pll{tiny}, InvalidArgument);
}

}  // namespace
}  // namespace ppsim
