// Agreement and invariant tests for the count-based batched engine
// (src/core/batched_engine.hpp) and its samplers (src/core/random.hpp):
//
//  * the hypergeometric sampler matches the exact pmf;
//  * the collision-free run-length sampler matches brute-force simulation;
//  * BatchedEngine conserves agent counts, keeps its incremental leader
//    count consistent, is deterministic under a fixed seed, and rejects
//    populations past the count engines' ceiling;
//  * the distribution of stabilisation times agrees with the agent-based
//    Engine (mean/variance tolerance at small n — the two engines sample
//    the same process through entirely different code paths);
//  * both pairing strategies sample the exact contingency-table
//    distribution, and the per-batch rule picks between them at its
//    boundary;
//  * the registry runs elections on either engine by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/batch_pairing.hpp"
#include "core/batched_engine.hpp"
#include "core/count_engine.hpp"
#include "core/engine.hpp"
#include "core/fault.hpp"
#include "core/random.hpp"
#include "core/state_index.hpp"
#include "core/stats.hpp"
#include "protocols/angluin.hpp"
#include "protocols/lottery.hpp"
#include "protocols/pll.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

static_assert(InternableProtocol<Angluin>);
static_assert(InternableProtocol<Lottery>);
static_assert(InternableProtocol<Pll>);

TEST(Samplers, HypergeometricMatchesExactPmf) {
    Rng rng(123);
    const std::uint64_t total = 40;
    const std::uint64_t successes = 15;
    const std::uint64_t draws = 12;
    std::map<std::uint64_t, int> freq;
    const int reps = 400000;
    for (int i = 0; i < reps; ++i) ++freq[hypergeometric(rng, total, successes, draws)];
    for (const auto& [value, count] : freq) {
        const double exact =
            std::exp(detail::log_choose(successes, value) +
                     detail::log_choose(total - successes, draws - value) -
                     detail::log_choose(total, draws));
        const double empirical = static_cast<double>(count) / reps;
        // 5σ binomial tolerance around the exact pmf.
        const double sigma = std::sqrt(exact * (1.0 - exact) / reps);
        EXPECT_NEAR(empirical, exact, 5.0 * sigma + 1e-4) << "x = " << value;
    }
}

TEST(Samplers, HypergeometricRespectsSupport) {
    Rng rng(7);
    // draws + successes > total forces a minimum number of successes.
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t x = hypergeometric(rng, 10, 8, 7);
        EXPECT_GE(x, 5U);  // lo = 7 + 8 − 10
        EXPECT_LE(x, 7U);
    }
    EXPECT_EQ(hypergeometric(rng, 5, 5, 3), 3U);  // all successes
    EXPECT_EQ(hypergeometric(rng, 5, 0, 3), 0U);  // no successes
    EXPECT_EQ(hypergeometric(rng, 5, 3, 0), 0U);  // no draws
}

TEST(Samplers, CollisionRunMatchesBruteForce) {
    const std::size_t n = 10;
    const int reps = 300000;
    Rng rng(99);
    std::map<std::uint64_t, int> sampled;
    for (int i = 0; i < reps; ++i) ++sampled[sample_collision_free_run(rng, n)];

    UniformScheduler scheduler(n, 4242);
    std::map<std::uint64_t, int> brute;
    for (int i = 0; i < reps; ++i) {
        std::vector<bool> touched(n, false);
        std::uint64_t length = 0;
        while (true) {
            const Interaction ia = scheduler.next();
            if (touched[ia.initiator] || touched[ia.responder]) break;
            touched[ia.initiator] = true;
            touched[ia.responder] = true;
            ++length;
        }
        ++brute[length];
    }
    for (std::uint64_t l = 1; l <= n / 2; ++l) {
        const double p_sampled = static_cast<double>(sampled[l]) / reps;
        const double p_brute = static_cast<double>(brute[l]) / reps;
        EXPECT_NEAR(p_sampled, p_brute, 0.01) << "L = " << l;
    }
}

TEST(StateIndex, InternsByCanonicalKey) {
    StateIndex<Lottery> index;
    const Lottery proto(8);
    LotteryState a;  // level 0, not done, leader
    LotteryState b;
    b.level = 3;
    const StateId ia = index.intern(proto, a);
    const StateId ib = index.intern(proto, b);
    EXPECT_NE(ia, ib);
    EXPECT_EQ(index.intern(proto, a), ia);  // idempotent
    EXPECT_EQ(index.size(), 2U);
    EXPECT_EQ(index.role(ia), Role::leader);
    EXPECT_EQ(index.state(ib).level, 3);
}

TEST(BatchedEngine, StartsLikeAgentEngine) {
    BatchedEngine<Angluin> engine(Angluin{}, 10, 1);
    EXPECT_EQ(engine.leader_count(), 10U);
    EXPECT_EQ(engine.steps(), 0U);
    EXPECT_EQ(engine.population_size(), 10U);
    EXPECT_EQ(engine.total_count(), 10U);
    EXPECT_THROW(BatchedEngine<Angluin>(Angluin{}, 1, 1), InvalidArgument);
}

TEST(BatchedEngine, RejectsPopulationsPastTheCountCeiling) {
    // The core checks n before the Θ(√n) collision-run table exists, so
    // neither size allocates it.
    for (const std::uint64_t n : {max_count_population + 1, std::uint64_t{1} << 60U}) {
        EXPECT_THROW(BatchedEngine<Angluin>(Angluin{}, n, 1), InvalidArgument) << n;
    }
}

TEST(BatchedEngine, RejoinPastTheCountCeilingThrows) {
    BatchedEngine<Angluin> engine(Angluin{}, 256, 1);
    EXPECT_THROW(engine.apply_fault(FaultAction::rejoin_count(max_count_population - 255)),
                 InvalidArgument);
    // A count that would wrap n + k around 2^64 is past the ceiling too.
    EXPECT_THROW(engine.apply_fault(FaultAction::rejoin_count(~std::uint64_t{0})),
                 InvalidArgument);
    EXPECT_EQ(engine.population_size(), 256U);
    EXPECT_EQ(engine.total_count(), 256U);
    engine.apply_fault(FaultAction::rejoin_count(max_count_population - 256));
    EXPECT_EQ(engine.total_count(), max_count_population);
}

TEST(BatchedEngine, ConservesCountsAndLeaderTally) {
    const std::size_t n = 500;
    BatchedEngine<Lottery> engine(Lottery::for_population(n), n, 42);
    for (int chunk = 0; chunk < 50; ++chunk) {
        (void)engine.run_for(100);
        ASSERT_EQ(engine.total_count(), n) << "count conservation violated";
        const std::size_t incremental = engine.leader_count();
        ASSERT_EQ(engine.recount_leaders(), incremental)
            << "incremental leader tally diverged from recount";
    }
}

TEST(BatchedEngine, SeededRunsAreDeterministic) {
    const std::size_t n = 256;
    BatchedEngine<Pll> a(Pll::for_population(n), n, 77);
    BatchedEngine<Pll> b(Pll::for_population(n), n, 77);
    const RunResult ra = a.run_until_one_leader(1'000'000);
    const RunResult rb = b.run_until_one_leader(1'000'000);
    EXPECT_EQ(ra.converged, rb.converged);
    EXPECT_EQ(ra.steps, rb.steps);
    EXPECT_EQ(ra.leader_count, rb.leader_count);
    EXPECT_EQ(ra.stabilization_step, rb.stabilization_step);
    EXPECT_EQ(a.total_count(), b.total_count());
    EXPECT_EQ(a.live_state_count(), b.live_state_count());
}

TEST(BatchedEngine, ElectsExactlyOneLeader) {
    for (const std::size_t n : {4UL, 16UL, 64UL, 256UL}) {
        BatchedEngine<Angluin> engine(Angluin{}, n, n);
        const RunResult r = engine.run_until_one_leader(50'000'000);
        EXPECT_TRUE(r.converged) << "n = " << n;
        EXPECT_EQ(r.leader_count, 1U) << "n = " << n;
        ASSERT_TRUE(r.stabilization_step.has_value());
        EXPECT_LE(*r.stabilization_step, r.steps);
        EXPECT_EQ(engine.count_of(AngluinState{true}), 1U);
        EXPECT_EQ(engine.count_of(AngluinState{false}), n - 1);
    }
}

TEST(BatchedEngine, VerifyOutputsStableAfterConvergence) {
    const std::size_t n = 64;
    BatchedEngine<Angluin> engine(Angluin{}, n, 5);
    const RunResult r = engine.run_until_one_leader(50'000'000);
    ASSERT_TRUE(r.converged);
    // Angluin's single-leader configuration is absorbing: long suffixes
    // must not change any output.
    EXPECT_TRUE(engine.verify_outputs_stable(20'000));
}

TEST(BatchedEngine, VerifyDetectsOngoingChanges) {
    const std::size_t n = 512;
    BatchedEngine<Angluin> engine(Angluin{}, n, 5);
    // From the all-leaders initial configuration the outputs churn heavily.
    EXPECT_FALSE(engine.verify_outputs_stable(5'000));
}

// The acceptance test of the batched engine: stabilisation parallel-time
// distribution agrees with the agent-based engine. Both means and variances
// must match within a generous multiple of the standard error — the engines
// share no simulation code beyond the protocol itself, so agreement here
// pins the whole batching pipeline (run lengths, hypergeometric chains,
// pairing, collision handling, crossing detection).
template <typename P>
void expect_distribution_agreement(P proto, std::size_t n, int reps, StepCount budget) {
    RunningStats agent_stats;
    RunningStats batched_stats;
    for (int i = 0; i < reps; ++i) {
        Engine<P> agent(proto, n, derive_seed(1000, static_cast<std::uint64_t>(i)));
        const RunResult ra = agent.run_until_one_leader(budget);
        ASSERT_TRUE(ra.converged && ra.stabilization_step);
        agent_stats.add(ra.stabilization_parallel_time(n));

        BatchedEngine<P> batched(proto, n, derive_seed(2000, static_cast<std::uint64_t>(i)));
        const RunResult rb = batched.run_until_one_leader(budget);
        ASSERT_TRUE(rb.converged && rb.stabilization_step);
        batched_stats.add(rb.stabilization_parallel_time(n));
    }
    const double se = std::sqrt(agent_stats.variance() / reps +
                                batched_stats.variance() / reps);
    EXPECT_NEAR(agent_stats.mean(), batched_stats.mean(), 5.0 * se)
        << "agent mean " << agent_stats.mean() << " vs batched mean "
        << batched_stats.mean();
    // Variances agree loosely (ratio test; stabilisation times are skewed).
    const double var_ratio = (agent_stats.variance() + 1e-9) /
                             (batched_stats.variance() + 1e-9);
    EXPECT_GT(var_ratio, 0.5);
    EXPECT_LT(var_ratio, 2.0);
}

TEST(BatchedEngineAgreement, AngluinStabilizationTimes) {
    expect_distribution_agreement(Angluin{}, 64, 400, 10'000'000);
}

TEST(BatchedEngineAgreement, LotteryStabilizationTimes) {
    expect_distribution_agreement(Lottery::for_population(128), 128, 300,
                                  10'000'000);
}

TEST(BatchedEngineAgreement, PllStabilizationTimes) {
    expect_distribution_agreement(Pll::for_population(64), 64, 200, 10'000'000);
}

// The engines' only pairing behaviour is the per-batch rule: bulk exactly
// when distinct initiators × distinct responders fits in the batch length.
static_assert(use_bulk_pairing(BatchMode::automatic, 4, 6, 24));
static_assert(!use_bulk_pairing(BatchMode::automatic, 5, 5, 24));
// Forced modes bypass the rule, so the strategy tests below reach both
// strategies even on tables the rule would send to bulk.
static_assert(use_bulk_pairing(BatchMode::bulk, 5, 5, 24));
static_assert(!use_bulk_pairing(BatchMode::pairwise, 4, 6, 24));

const char* strategy_name(BatchMode mode) {
    return mode == BatchMode::bulk ? "bulk" : "pairwise";
}

TEST(BatchPairingStrategies, BothProduceExactBijectionsOfTheMultisets) {
    // Feed both strategies the same multisets: every produced pairing must
    // be a bijection — initiator side visited in multiset order, responder
    // side a permutation of the responder multiset.
    Rng rng(9);
    const StateMultiset initiators = {{0, 5}, {1, 3}, {2, 8}};
    const StateMultiset responders_template = {{0, 10}, {3, 4}, {4, 2}};
    const std::uint64_t fresh = 16;
    for (const BatchMode mode : {BatchMode::pairwise, BatchMode::bulk}) {
        for (int rep = 0; rep < 200; ++rep) {
            StateMultiset responders = responders_template;
            BatchPairs pairs;
            sample_batch_pairing(mode, rng, initiators, responders, fresh, pairs);
            EXPECT_EQ(pairs.pair_total(), fresh) << strategy_name(mode);
            std::map<StateId, std::uint64_t> a_hist;
            std::map<StateId, std::uint64_t> b_hist;
            pairs.for_each([&](StateId a, StateId b, std::uint64_t mult) {
                a_hist[a] += mult;
                b_hist[b] += mult;
            });
            for (const auto& [state, count] : initiators) {
                EXPECT_EQ(a_hist[state], count) << strategy_name(mode);
            }
            for (const auto& [state, count] : responders_template) {
                EXPECT_EQ(b_hist[state], count) << strategy_name(mode);
            }
        }
    }
}

TEST(BatchPairingStrategies, ContingencyCellsMatchShuffleCellsInDistribution) {
    // Under a uniform bijection, cell (a, b) counts the members of a's
    // block among the |b| responders of state b: Hypergeometric(fresh,
    // |b|, |a|). Both strategies must match that pmf bin by bin within 5σ.
    // The rows straddle ContingencyTablePairing::categorical_row_cap, so
    // the bulk strategy runs both its categorical path and its
    // hypergeometric chain.
    const StateMultiset initiators = {{0, 4}, {1, 12}, {2, 8}};
    const StateMultiset responders_template = {{3, 10}, {4, 9}, {5, 5}};
    const std::uint64_t fresh = 24;
    static_assert(ContingencyTablePairing::categorical_row_cap >= 4 &&
                  ContingencyTablePairing::categorical_row_cap < 12);
    const int reps = 100000;
    for (const BatchMode mode : {BatchMode::pairwise, BatchMode::bulk}) {
        Rng rng(1234);  // same stream for both strategies
        // freq[{a, b}][x]: repetitions in which cell (a, b) held x pairs.
        std::map<std::pair<StateId, StateId>, std::map<std::uint64_t, int>> freq;
        BatchPairs pairs;
        for (int rep = 0; rep < reps; ++rep) {
            StateMultiset responders = responders_template;
            sample_batch_pairing(mode, rng, initiators, responders, fresh, pairs);
            std::map<std::pair<StateId, StateId>, std::uint64_t> cells;
            pairs.for_each([&](StateId a, StateId b, std::uint64_t mult) {
                cells[{a, b}] += mult;
            });
            for (const auto& [state_a, count_a] : initiators) {
                for (const auto& [state_b, count_b] : responders_template) {
                    ++freq[{state_a, state_b}][cells[{state_a, state_b}]];
                }
            }
        }
        for (const auto& [state_a, count_a] : initiators) {
            for (const auto& [state_b, count_b] : responders_template) {
                const auto& bins = freq[{state_a, state_b}];
                int in_support = 0;
                for (std::uint64_t x = 0; x <= std::min(count_a, count_b); ++x) {
                    const double exact =
                        x + fresh < count_a + count_b
                            ? 0.0
                            : std::exp(detail::log_choose(count_b, x) +
                                       detail::log_choose(fresh - count_b, count_a - x) -
                                       detail::log_choose(fresh, count_a));
                    const auto bin = bins.find(x);
                    const int hits = bin == bins.end() ? 0 : bin->second;
                    in_support += hits;
                    const double empirical = static_cast<double>(hits) / reps;
                    const double sigma = std::sqrt(exact * (1.0 - exact) / reps);
                    EXPECT_NEAR(empirical, exact, 5.0 * sigma + 1e-4)
                        << strategy_name(mode) << " cell (" << state_a << "," << state_b
                        << ") x = " << x;
                }
                EXPECT_EQ(in_support, reps) << strategy_name(mode) << " cell (" << state_a
                                            << "," << state_b << ") left its support";
            }
        }
    }
}

TEST(BatchedEngineRegistry, RunsElectionsOnEitherEngine) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const std::string& name : registry.names()) {
        const RunResult r =
            registry.run_election(name, 64, 3, 50'000'000, EngineKind::batched);
        EXPECT_TRUE(r.converged) << name;
        EXPECT_EQ(r.leader_count, 1U) << name;
    }
}

TEST(BatchedEngineRegistry, VerifiedBatchedRunsConfirmStability) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const RunResult r = registry.run_election_verified("pll", 128, 9, 50'000'000,
                                                      10'000, EngineKind::batched);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.leader_count, 1U);
}

TEST(BatchedEngineRegistry, RunForExecutesFixedWork) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const RunResult agent = registry.make_simulation("angluin06", 64, 3)->run_for(10'000);
    EXPECT_EQ(agent.steps, 10'000U);
    // The batched engine clamps its final collision-free run to the budget,
    // so the step count is exact there too.
    const RunResult batched =
        registry.make_simulation("angluin06", 64, 3, EngineKind::batched)->run_for(10'000);
    EXPECT_EQ(batched.steps, 10'000U);
}

TEST(EngineKindParsing, RoundTripsAndRejects) {
    EXPECT_EQ(parse_engine_kind("agent"), EngineKind::agent);
    EXPECT_EQ(parse_engine_kind("batched"), EngineKind::batched);
    EXPECT_EQ(to_string(EngineKind::batched), "batched");
    EXPECT_EQ(to_string(EngineKind::agent), "agent");
    EXPECT_THROW((void)parse_engine_kind("warp-drive"), InvalidArgument);
}

}  // namespace
}  // namespace ppsim
