#include "registry.hpp"

#include "angluin.hpp"
#include "loose.hpp"
#include "lottery.hpp"
#include "mst.hpp"
#include "pll.hpp"
#include "pll_symmetric.hpp"

namespace ppsim {

namespace {

ProtocolRegistry build_default_registry() {
    ProtocolRegistry registry;
    registry.register_protocol(
        ProtocolInfo{"angluin06", "[Ang+06]", "O(1)", "O(n)"},
        [](std::size_t) { return Angluin{}; });
    registry.register_protocol(
        ProtocolInfo{"loose_sud12", "[Sud+12] (loosely stabilising)", "O(log n)",
                     "O(n) worst pair; holds w.h.p."},
        [](std::size_t n) { return LooselyStabilizing::for_population(n); });
    registry.register_protocol(
        ProtocolInfo{"lottery", "[Ali+17]-style (QE lottery only)", "O(log n)",
                     "O(log n) + P(tie)*O(n)"},
        [](std::size_t n) { return Lottery::for_population(n); });
    registry.register_protocol(
        ProtocolInfo{"mst18_style", "[MST18]-style (wide nonce)", "poly(n)", "O(log n)"},
        [](std::size_t n) { return MstStyle::for_population(n); });
    registry.register_protocol(
        ProtocolInfo{"pll", "this work [Sudo+19]", "O(log n)", "O(log n)"},
        [](std::size_t n) { return Pll::for_population(n); });
    registry.register_protocol(
        ProtocolInfo{"pll_symmetric", "this work, Section 4", "O(log n)", "O(log n)"},
        [](std::size_t n) { return SymmetricPll::for_population(n < 3 ? 3 : n); });
    return registry;
}

}  // namespace

const ProtocolRegistry& ProtocolRegistry::instance() {
    static const ProtocolRegistry registry = build_default_registry();
    return registry;
}

std::vector<std::string> ProtocolRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.info.name);
    return out;
}

bool ProtocolRegistry::contains(const std::string& name) const {
    for (const Entry& e : entries_) {
        if (e.info.name == name) return true;
    }
    return false;
}

const ProtocolRegistry::Entry& ProtocolRegistry::entry(const std::string& name) const {
    for (const Entry& e : entries_) {
        if (e.info.name == name) return e;
    }
    throw InvalidArgument("unknown protocol: " + name);
}

const ProtocolInfo& ProtocolRegistry::info(const std::string& name) const {
    return entry(name).info;
}

std::unique_ptr<Simulation> ProtocolRegistry::make_simulation(const std::string& name,
                                                              std::size_t n, std::uint64_t seed,
                                                              EngineKind engine) const {
    return entry(name).simulate(n, seed, engine);
}

std::unique_ptr<Simulation> ProtocolRegistry::make_simulation(
    const CheckpointHeader& header) const {
    return make_simulation(header.protocol, static_cast<std::size_t>(header.population),
                           header.seed, parse_engine_kind(header.engine));
}

std::unique_ptr<Simulation> ProtocolRegistry::resume_simulation(
    const std::string& path) const {
    std::string payload;
    const CheckpointHeader header = load_checkpoint(path, payload);
    auto sim = make_simulation(header);
    CheckpointReader reader(std::move(payload));
    sim->restore_checkpoint(reader);
    reader.expect_end();
    return sim;
}

RunResult ProtocolRegistry::run_election(const std::string& name, std::size_t n,
                                         std::uint64_t seed, StepCount max_steps,
                                         EngineKind engine, const FaultPlan& faults) const {
    const auto sim = make_simulation(name, n, seed, engine);
    if (!faults.empty()) sim->set_fault_plan(faults);
    return run_to_single_leader(*sim, max_steps);
}

RunResult ProtocolRegistry::run_election_verified(const std::string& name, std::size_t n,
                                                  std::uint64_t seed, StepCount max_steps,
                                                  StepCount verify_steps,
                                                  EngineKind engine) const {
    const auto sim = make_simulation(name, n, seed, engine);
    return run_to_single_leader(*sim, max_steps, verify_steps);
}

std::unique_ptr<AnyProtocol> ProtocolRegistry::make(const std::string& name,
                                                    std::size_t n) const {
    return entry(name).make(n);
}

std::vector<ProtocolInfo> unimplemented_table1_rows() {
    return {
        ProtocolInfo{"ag15", "[AG15]", "O(log^3 n)", "O(log^3 n)"},
        ProtocolInfo{"aaegr17", "[Ali+17] (full)", "O(log^2 n)",
                     "O(log^5.3 n loglog n)"},
        ProtocolInfo{"aag18", "[AAG18]", "O(log n)", "O(log^2 n)"},
        ProtocolInfo{"gs18", "[GS18]", "O(loglog n)", "O(log^2 n)"},
        ProtocolInfo{"gsu18", "[GSU18]", "O(loglog n)", "O(log n loglog n)"},
        ProtocolInfo{"mst18", "[MST18] (as published)", "O(n)", "O(log n)"},
    };
}

}  // namespace ppsim
