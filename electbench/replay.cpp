// eb_replay: layer replays fed by the inputs eb_trace recorded.
//
//   eb_replay --workload sweep_agent|elect_gillespie|observed_agent
//             --seed <n> --seconds <s> --dir <eb_trace output dir>
//
// elect_gillespie: replays each sampled τ-leap on its recorded live census
// through the layers' public functions — `multinomial` / `binomial` /
// `hypergeometric` (core/random), `sample_batch_pairing` in both modes
// (core/batch_pairing), `TransitionCache::get` (core/transition_cache) and
// `InternedCountStore` touch and merge (core/count_store) — and reports the
// per-call times and the per-leap time they add up to.
// sweep_agent, observed_agent: replays `UniformScheduler::next` and
// `Pll::interact` on the recorded agent populations.
#include "bench.hpp"
#include "core/batch_pairing.hpp"
#include "core/count_store.hpp"
#include "core/scheduler.hpp"
#include "core/transition_cache.hpp"
#include "inputs.hpp"

namespace {

using namespace eb;
using ppsim::Pll;
using ppsim::PllState;
using ppsim::StateId;

/// Seconds per call of `f`, over `reps` back-to-back calls.
template <typename F>
double seconds_per_call(F&& f, std::size_t reps) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) f();
    return seconds_since(start) / static_cast<double>(reps);
}

/// Per-class sums over the replayed leaps (microseconds per leap).
struct LeapReplay {
    double leaps = 0.0;
    double multinomial_us = 0.0;
    double bulk_us = 0.0;
    double pairwise_us = 0.0;
    double bulk_leaps = 0.0;
    double cells = 0.0;
    double explained_us = 0.0;
};

void replay_gillespie(const Args& args, Report& report) {
    const std::vector<CensusSample> samples = read_census(args.dir + "/census.bin");
    ppsim::require(!samples.empty(), "no recorded gillespie census");
    const Pll proto = Pll::for_population(samples.front().n);
    ppsim::Rng rng(stream_seed(args.seed, Stream::setup));

    LeapReplay qe;
    LeapReplay timer;
    double binomial_s = 0.0;
    double binomial_calls = 0.0;
    double hypergeometric_s = 0.0;
    double hypergeometric_calls = 0.0;
    double get_s = 0.0;
    double gets = 0.0;
    double touch_merge_s = 0.0;
    double touches = 0.0;
    double misses = 0.0;
    std::uint64_t sink = 0;

    // One store and cache per election, as in the engine, so cache misses
    // count first sightings within an election.
    std::optional<ppsim::InternedCountStore<Pll>> store;
    std::optional<ppsim::TransitionCache> cache;
    std::uint32_t election = 0;
    std::vector<StateId> ids;
    std::vector<std::uint64_t> counts;
    std::vector<std::uint64_t> drawn;
    ppsim::StateMultiset initiators;
    ppsim::StateMultiset responders;
    ppsim::StateMultiset scratch;
    ppsim::BatchPairs pairs;
    std::vector<ppsim::PairCount> outputs;
    std::size_t sample_misses = 0;
    const auto intern = [&](const PllState& s) { return store->intern(proto, s); };
    const auto compute = [&](StateId a, StateId b) {
        ++sample_misses;
        return ppsim::compute_cached_transition(proto, store->index(), a, b, intern);
    };

    for (std::size_t i = 0; i < samples.size(); ++i) {
        const CensusSample& s = samples[i];
        if (i == 0 || s.election != election) {
            store.emplace();
            cache.emplace();
            election = s.election;
        }
        ids.clear();
        counts.clear();
        for (const auto& [state, count] : s.census) {
            ids.push_back(intern(state));
            counts.push_back(count);
        }
        const std::size_t d = counts.size();
        const std::uint64_t leap = s.leap;
        drawn.assign(d, 0);

        // core/random: one leap multiset, and the binomial draws of its chain.
        const double multinomial_s = seconds_per_call(
            [&] { ppsim::multinomial(rng, counts.data(), d, leap, drawn.data()); }, 8);
        std::size_t calls = 0;
        binomial_s += 8.0 * seconds_per_call(
                                [&] {
                                    std::uint64_t pool = s.n;
                                    std::uint64_t remaining = leap;
                                    for (std::size_t k = 0; k < d && remaining > 0; ++k) {
                                        const std::uint64_t x =
                                            counts[k] == pool
                                                ? remaining
                                                : ppsim::binomial(rng, remaining, counts[k], pool);
                                        calls += counts[k] == pool ? 0 : 1;
                                        pool -= counts[k];
                                        remaining -= x;
                                    }
                                },
                                8);
        binomial_calls += static_cast<double>(calls);
        const auto draw_multiset = [&](ppsim::StateMultiset& out) {
            ppsim::multinomial(rng, counts.data(), d, leap, drawn.data());
            out.clear();
            for (std::size_t k = 0; k < d; ++k) {
                if (drawn[k] > 0) out.emplace_back(ids[k], drawn[k]);
            }
        };
        draw_multiset(initiators);
        draw_multiset(responders);
        std::size_t hyper = 0;
        hypergeometric_s += seconds_per_call(
            [&] {
                for (std::size_t r = 0; r < std::min<std::size_t>(4, initiators.size()); ++r) {
                    for (std::size_t c = 0; c < std::min<std::size_t>(4, responders.size()); ++c) {
                        sink += ppsim::hypergeometric(rng, leap, responders[c].second,
                                                      initiators[r].second);
                        ++hyper;
                    }
                }
            },
            1);
        hypergeometric_calls += static_cast<double>(hyper);

        // core/batch_pairing: both strategies, then the one auto picks.
        const double bulk_s = seconds_per_call(
            [&] {
                scratch = responders;
                ppsim::sample_batch_pairing(ppsim::BatchMode::bulk, rng, initiators, scratch, leap,
                                            pairs);
            },
            4);
        const double cells = static_cast<double>(pairs.cells.size());
        const double pairwise_s = seconds_per_call(
            [&] {
                scratch = responders;
                ppsim::sample_batch_pairing(ppsim::BatchMode::pairwise, rng, initiators, scratch,
                                            leap, pairs);
            },
            2);
        const bool bulk = ppsim::use_bulk_pairing(ppsim::BatchMode::automatic, initiators.size(),
                                                  responders.size(), leap);
        scratch = responders;
        ppsim::sample_batch_pairing(ppsim::BatchMode::automatic, rng, initiators, scratch, leap,
                                    pairs);

        // core/transition_cache: a first pass fills the cache (the misses),
        // a second times the hits the engine's cell walk makes.
        sample_misses = 0;
        outputs.clear();
        pairs.for_each([&](StateId a, StateId b, std::uint64_t mult) {
            const ppsim::CachedTransition& tr = cache->get(a, b, compute);
            outputs.push_back(ppsim::PairCount{tr.out_a, tr.out_b, mult});
        });
        misses += static_cast<double>(sample_misses);
        const auto groups = static_cast<double>(pairs.group_count());
        const double get_pass_s = seconds_per_call(
            [&] {
                pairs.for_each([&](StateId a, StateId b, std::uint64_t) {
                    sink += cache->get(a, b, compute).out_a;
                });
            },
            2);
        get_s += get_pass_s;
        gets += groups;

        // core/count_store: touch both outputs of every cell, then merge.
        const double touch_pass_s = seconds_per_call(
            [&] {
                for (const ppsim::PairCount& out : outputs) {
                    store->touch(out.a, out.mult);
                    store->touch(out.b, out.mult);
                }
                store->merge_touched();
            },
            2);
        touch_merge_s += touch_pass_s;
        touches += groups;

        LeapReplay& c = s.qe != 0 ? qe : timer;
        c.leaps += 1.0;
        c.multinomial_us += 1e6 * multinomial_s;
        c.bulk_us += 1e6 * bulk_s;
        c.pairwise_us += 1e6 * pairwise_s;
        c.bulk_leaps += bulk ? 1.0 : 0.0;
        c.cells += cells;
        c.explained_us +=
            1e6 * (2.0 * multinomial_s + (bulk ? bulk_s : pairwise_s) + get_pass_s + touch_pass_s);
    }

    for (const auto& [name, c] : {std::pair{"qe", qe}, std::pair{"timer", timer}}) {
        const std::string suffix = std::string(".") + name;
        report.metric("random.multinomial_us" + suffix, c.multinomial_us / c.leaps, "us");
        report.metric("pairing.bulk_us" + suffix, c.bulk_us / c.leaps, "us");
        report.metric("pairing.pairwise_us" + suffix, c.pairwise_us / c.leaps, "us");
        report.metric("pairing.bulk_share" + suffix, c.bulk_leaps / c.leaps, "ratio");
        report.metric("pairing.cells" + suffix, c.cells / c.leaps, "count");
        report.metric("replay.explained_us" + suffix, c.explained_us / c.leaps, "us");
        report.fact("replayed_leaps" + suffix, std::to_string(static_cast<std::size_t>(c.leaps)));
    }
    report.metric("random.binomial_ns", 1e9 * binomial_s / binomial_calls, "ns");
    report.metric("random.hypergeometric_ns", 1e9 * hypergeometric_s / hypergeometric_calls, "ns");
    report.metric("cache.get_ns", 1e9 * get_s / gets, "ns");
    report.metric("cache.misses", misses / (qe.leaps + timer.leaps), "count");
    report.metric("count_store.touch_merge_ns", 1e9 * touch_merge_s / touches, "ns");
    report.fact("checksum", std::to_string(sink));
    report.check(true, "replayed " + std::to_string(samples.size()) + " leaps");
}

void replay_agent(const Args& args, Report& report) {
    const std::vector<AgentSample> samples = read_agents(args.dir + "/agents.bin");
    ppsim::require(!samples.empty(), "no recorded agent population");
    const std::size_t n = samples.front().agents.size();
    const Pll proto = Pll::for_population(n);
    std::uint64_t sink = 0;

    // core/scheduler: the uniform pair draw of every agent-engine step.
    ppsim::UniformScheduler scheduler(n, stream_seed(args.seed, Stream::setup));
    std::vector<double> pair_ns;
    constexpr std::size_t draws = std::size_t{1} << 22U;
    for (int rep = 0; rep < 7; ++rep) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < draws; ++i) {
            const ppsim::Interaction p = scheduler.next();
            sink += p.initiator ^ p.responder;
        }
        pair_ns.push_back(1e9 * seconds_since(start) / static_cast<double>(draws));
    }

    // protocols/pll: the transition function on pairs drawn ahead of time,
    // applied to copies of each recorded population (4 parallel time each).
    std::vector<ppsim::Interaction> pairs(4 * n);
    for (ppsim::Interaction& p : pairs) p = scheduler.next();
    double interact_ns = 0.0;
    for (const AgentSample& sample : samples) {
        std::vector<double> ns;
        for (int rep = 0; rep < 7; ++rep) {
            std::vector<PllState> agents = sample.agents;
            const auto start = Clock::now();
            for (const ppsim::Interaction& p : pairs) {
                proto.interact(agents[p.initiator], agents[p.responder]);
            }
            ns.push_back(1e9 * seconds_since(start) / static_cast<double>(pairs.size()));
            sink += agents[0].count;
        }
        interact_ns += median(ns);
    }
    report.metric("scheduler.ns_per_pair", median(pair_ns), "ns");
    report.metric("pll.ns_per_interact", interact_ns / static_cast<double>(samples.size()), "ns");
    report.fact("checksum", std::to_string(sink));
    report.check(true, "replayed " + std::to_string(samples.size()) + " populations");
}

}  // namespace

int main(int argc, char** argv) {
    return eb::run_program(argc, argv, /*traced=*/true, [](const Args& args, Report& report) {
        replay_gillespie(args, report);
        replay_agent(args, report);
    });
}
