#include "scenario.hpp"

#include <algorithm>

namespace ppsim {

namespace {

/// Leader-election churn: a crash wave mid-election, a rejoin wave of fresh
/// contenders (each a new leader candidate, reopening the race), then a
/// full adversarial reset. Exercises every count-surgery path and the
/// re-stabilisation measurement on a protocol whose whole point is electing
/// exactly one leader.
///
/// The final reset is deliberately the *whole* population: a crash wave can
/// remove every live leader while done followers carrying the dead leaders'
/// high lottery levels survive, and fresh level-0 contenders then lose to
/// those orphans — leader extinction is effectively permanent (the
/// loose-stabilisation caveat of the source paper, observed empirically).
/// A full reset wipes the orphaned levels, so the scenario is guaranteed to
/// re-elect and every repetition yields a recovery-time sample.
FaultPlan churn_election_plan(std::size_t n0) {
    FaultPlan plan;
    plan.add(2.0, FaultAction::crash_fraction(0.3));
    plan.add(5.0, FaultAction::rejoin_count(
                      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(n0) * 3 / 10)));
    plan.add(8.0, FaultAction::reset_fraction(1.0));
    return plan;
}

/// Epidemic chaos on the [Ang+06] pairwise rule: half the population reset
/// to fresh candidates (the defeat epidemic must re-spread), a silence
/// window where model time passes with nothing reacting, then a crash
/// wave.
FaultPlan reset_epidemic_plan(std::size_t n0) {
    (void)n0;  // fraction-based throughout
    FaultPlan plan;
    plan.add(1.5, FaultAction::reset_fraction(0.5));
    plan.add(3.0, FaultAction::transient_silence(0.75));
    plan.add(5.0, FaultAction::crash_fraction(0.25));
    return plan;
}

}  // namespace

const std::vector<ChaosScenario>& chaos_scenarios() {
    static const std::vector<ChaosScenario> scenarios = {
        ChaosScenario{
            "churn_election", "lottery",
            "crash 30% at t=2, rejoin 30% fresh contenders at t=5, full reset at t=8",
            3000.0, &churn_election_plan},
        ChaosScenario{
            "reset_epidemic", "angluin06",
            "reset 50% at t=1.5, silence for 0.75 time at t=3, crash 25% at t=5",
            3000.0, &reset_epidemic_plan},
    };
    return scenarios;
}

const ChaosScenario& find_chaos_scenario(const std::string& name) {
    for (const ChaosScenario& scenario : chaos_scenarios()) {
        if (scenario.name == name) return scenario;
    }
    std::string known;
    for (const ChaosScenario& scenario : chaos_scenarios()) {
        if (!known.empty()) known += ", ";
        known += scenario.name;
    }
    throw InvalidArgument("unknown scenario '" + name + "' (registered: " + known + ")");
}

}  // namespace ppsim
