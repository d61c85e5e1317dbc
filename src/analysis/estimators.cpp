#include "estimators.hpp"

#include <array>
#include <cmath>
#include <mutex>

#include "../core/engine.hpp"
#include "../core/random.hpp"
#include "../core/thread_pool.hpp"
#include "../protocols/pll.hpp"
#include "../protocols/pll_symmetric.hpp"

namespace ppsim {

namespace {

/// ⌊21·n·ln n⌋ — the interaction horizon of Lemma 7 (and P1 of Lemma 6).
[[nodiscard]] StepCount lemma7_horizon(std::size_t n) {
    return static_cast<StepCount>(
        std::floor(21.0 * static_cast<double>(n) * std::log(static_cast<double>(n))));
}

}  // namespace

QuickElimObservation observe_quick_elimination(std::size_t n, std::uint64_t seed) {
    require(n >= 2, "population too small");
    Engine<Pll> engine(Pll::for_population(n), n, seed);
    engine.run_for(lemma7_horizon(n));

    const Pll& pll = engine.protocol();
    const unsigned lmax = pll.config().lmax();

    QuickElimObservation obs;
    obs.leaders = engine.leader_count();
    std::optional<unsigned> agreed_level;
    for (const PllState& s : engine.population().states()) {
        if (s.epoch != 1) obs.all_in_first_epoch = false;
        if (Pll::in_va(s)) {
            if (s.level_q >= lmax) obs.any_level_capped = true;
            if (!s.done) {
                obs.all_done_and_agreed = false;
            } else if (!agreed_level) {
                agreed_level = s.level_q;
            } else if (*agreed_level != s.level_q) {
                obs.all_done_and_agreed = false;
            }
        }
    }
    return obs;
}

SurvivorDistribution survivor_distribution(std::size_t n, std::size_t runs,
                                           std::uint64_t seed) {
    SurvivorDistribution dist;
    dist.runs = runs;
    std::mutex merge_mutex;
    shared_pool().for_each(runs, [&](std::size_t rep) {
        const QuickElimObservation obs = observe_quick_elimination(n, derive_seed(seed, rep));
        const std::lock_guard lock(merge_mutex);
        dist.counts.add(obs.leaders);
        if (!obs.all_in_first_epoch) ++dist.epoch_violations;
        if (obs.any_level_capped) ++dist.cap_violations;
        if (!obs.all_done_and_agreed) ++dist.agreement_violations;
    });
    return dist;
}

SyncObservation observe_synchronizer(std::size_t n, std::uint64_t seed,
                                     StepCount max_steps) {
    Engine<Pll> engine(Pll::for_population(n), n, seed);
    SyncObservation obs;

    // Shadow per-agent epochs so progress tracking is O(1) per interaction.
    std::vector<std::uint8_t> epochs(n, 1);
    std::array<std::size_t, 5> at_least{n, n, 0, 0, 0};  // at_least[e] = #agents with epoch ≥ e

    for (StepCount step = 1; step <= max_steps; ++step) {
        const Interaction ia = engine.step();
        for (const AgentId id : {ia.initiator, ia.responder}) {
            const auto e = static_cast<std::uint8_t>(
                Pll::epoch_of(engine.population()[id]));
            for (std::uint8_t k = epochs[id] + 1U; k <= e; ++k) ++at_least[k];
            epochs[id] = e;
            if (obs.first_color_change == 0 &&
                Pll::color_of(engine.population()[id]) != 0) {
                obs.first_color_change = step;
            }
        }
        for (std::size_t e = 2; e <= 4; ++e) {
            if (!obs.all_in_epoch[e - 2] && at_least[e] == n) {
                obs.all_in_epoch[e - 2] = step;
            }
        }
        if (engine.leader_count() == 1 && obs.all_in_epoch[2]) break;
    }
    obs.stabilization_step = engine.stabilization_step();
    obs.steps_run = engine.steps();
    return obs;
}

CoinFairnessReport measure_symmetric_coins(std::size_t n, StepCount steps,
                                           std::uint64_t seed) {
    require(n >= 3, "symmetric PLL requires n >= 3");
    Engine<SymmetricPll> engine(SymmetricPll::for_population(n), n, seed);
    UniformScheduler scheduler(n, derive_seed(seed, 0x0C01));

    CoinFairnessReport report;
    std::vector<std::uint8_t> flip_results;
    flip_results.reserve(1024);

    std::int64_t f_balance = 0;  // #F0 − #F1, updated incrementally

    const auto coin_of = [&](AgentId id) {
        return SymmetricPll::coin_of(engine.population()[id]);
    };
    const auto count_as = [](CoinStatus c) {
        return c == CoinStatus::f0 ? 1 : (c == CoinStatus::f1 ? -1 : 0);
    };

    for (StepCount step = 0; step < steps; ++step) {
        const Interaction ia = scheduler.next();
        const bool lead0 = SymmetricPll::is_leader(engine.population()[ia.initiator]);
        const bool lead1 = SymmetricPll::is_leader(engine.population()[ia.responder]);
        // A coin observation: exactly one leader, partner holding a minted coin.
        if (lead0 != lead1) {
            const AgentId follower = lead0 ? ia.responder : ia.initiator;
            const CoinStatus c = coin_of(follower);
            if (c == CoinStatus::f0 || c == CoinStatus::f1) {
                ++report.flips;
                const bool head = c == CoinStatus::f0;
                report.heads += head ? 1 : 0;
                flip_results.push_back(head ? 1 : 0);
            }
        }
        const int before = count_as(coin_of(ia.initiator)) + count_as(coin_of(ia.responder));
        engine.apply(ia);
        const int after = count_as(coin_of(ia.initiator)) + count_as(coin_of(ia.responder));
        f_balance += after - before;
        if (f_balance != 0) report.f0_f1_always_equal = false;
    }

    if (report.flips > 0) {
        report.head_fraction =
            static_cast<double>(report.heads) / static_cast<double>(report.flips);
        report.head_ci = wilson_interval(report.heads, report.flips);
    }
    if (flip_results.size() >= 3) {
        // Sample lag-1 autocorrelation of the 0/1 flip sequence.
        const double mean = report.head_fraction;
        double num = 0.0;
        double den = 0.0;
        for (std::size_t i = 0; i < flip_results.size(); ++i) {
            const double d = flip_results[i] - mean;
            den += d * d;
            if (i + 1 < flip_results.size()) {
                num += d * (flip_results[i + 1] - mean);
            }
        }
        report.lag1_correlation = den == 0.0 ? 0.0 : num / den;
    }
    return report;
}

}  // namespace ppsim
