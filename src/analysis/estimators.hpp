/// \file estimators.hpp
/// \brief Protocol-specific measurements that turn the paper's quantitative
/// lemmas into experiments: Lemma 7 (QuickElimination survivor counts),
/// Lemma 6 (synchroniser behaviour) and the Section-4 coin-fairness claim.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "../core/common.hpp"
#include "../core/stats.hpp"

namespace ppsim {

/// Outcome of one QuickElimination observation (Lemma 7): run PLL from its
/// initial configuration for exactly ⌊21·n·ln n⌋ interactions — the horizon
/// of Lemma 7 — and inspect the configuration.
struct QuickElimObservation {
    std::size_t leaders = 0;        ///< |VL| at the horizon
    bool all_in_first_epoch = true; ///< no agent left epoch 1 (condition 1 of Lemma 7)
    bool any_level_capped = false;  ///< some levelQ hit lmax (condition 2 violated)
    bool all_done_and_agreed = true;///< VA agents all done with equal levelQ (condition 3)
};

/// Runs one seeded QuickElimination observation at population size n.
[[nodiscard]] QuickElimObservation observe_quick_elimination(std::size_t n,
                                                             std::uint64_t seed);

/// Aggregated Lemma-7 experiment: distribution of surviving leader counts
/// over many seeded runs, plus how often the lemma's three whp side
/// conditions held.
struct SurvivorDistribution {
    FrequencyTable counts;            ///< key = surviving leaders at the horizon
    std::size_t runs = 0;
    std::size_t epoch_violations = 0; ///< runs where some agent left epoch 1 early
    std::size_t cap_violations = 0;   ///< runs where levelQ saturated
    std::size_t agreement_violations = 0;  ///< runs where VA had not agreed yet
};
[[nodiscard]] SurvivorDistribution survivor_distribution(std::size_t n, std::size_t runs,
                                                         std::uint64_t seed);

/// Synchroniser trace of one PLL run (Lemma 6 / the CountUp machinery):
/// when colours first change and when the population completes each epoch.
struct SyncObservation {
    StepCount first_color_change = 0;      ///< first step any agent leaves colour 0
    /// Step at which the *last* agent entered epoch e (index e−2 ⇒ epochs 2..4);
    /// unset if the run ended first.
    std::array<std::optional<StepCount>, 3> all_in_epoch;
    std::optional<StepCount> stabilization_step;  ///< first single-leader step
    StepCount steps_run = 0;
};
[[nodiscard]] SyncObservation observe_synchronizer(std::size_t n, std::uint64_t seed,
                                                   StepCount max_steps);

/// Fairness measurement of the Section-4 symmetric coin substrate: drive a
/// symmetric-PLL run, record every coin observation made by a leader
/// (meeting a follower with coin F0 = head / F1 = tail) and test fairness
/// and lag-1 independence; also verify the #F0 = #F1 invariant after every
/// interaction.
struct CoinFairnessReport {
    std::uint64_t flips = 0;
    std::uint64_t heads = 0;
    double head_fraction = 0.0;
    double lag1_correlation = 0.0;  ///< sample autocorrelation of the flip sequence
    bool f0_f1_always_equal = true; ///< invariant held at every step
    ProportionCi head_ci;           ///< Wilson CI for P(head)
};
[[nodiscard]] CoinFairnessReport measure_symmetric_coins(std::size_t n, StepCount steps,
                                                         std::uint64_t seed);

}  // namespace ppsim
