// Tests for the agent-population census (`census_of`, core/population.hpp),
// which every agent-side census goes through: the agent simulation's
// `state_counts()` / `live_state_count()` and the hybrid engine's agent-mode
// `collect_census()`. The census groups agents by raw state bytes and keys
// each distinct raw state once; these tests hold it to the per-agent keyed
// histogram it replaces, including for states whose padding bytes differ.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/hybrid_engine.hpp"
#include "core/population.hpp"
#include "core/simulation.hpp"
#include "protocols/pll.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

/// Two state layouts with padding: three bytes between the members, and
/// one trailing byte. A member-wise copy of the second may drop its padding
/// byte, which is what a census that copies states by assignment trips on.
struct InnerPadState {
    std::uint8_t tag = 1;
    std::uint32_t value = 7;
};
static_assert(sizeof(InnerPadState) == 8);
struct TailPadState {
    std::uint16_t value = 7;
    bool tag = true;
};
static_assert(sizeof(TailPadState) == 4);

/// A protocol whose key reads the members only, so two agents that differ
/// in padding bytes alone are the same state.
template <typename S>
struct PaddedProtocol {
    using State = S;
    [[nodiscard]] std::string_view name() const { return "padded"; }
    [[nodiscard]] State initial_state() const { return State{}; }
    [[nodiscard]] Role output(const State& s) const {
        return s.tag ? Role::leader : Role::follower;
    }
    void interact(State&, State& b) const { b.tag = 0; }
    [[nodiscard]] std::uint64_t state_key(const State& s) const {
        return static_cast<std::uint64_t>(s.tag) | (std::uint64_t{s.value} << 8U);
    }
};

/// Overwrites every byte of `s` outside its two members with `fill`.
template <typename S>
void scribble_padding(S& s, unsigned char fill) {
    auto* bytes = reinterpret_cast<unsigned char*>(&s);
    for (std::size_t k = 0; k < sizeof(S); ++k) {
        const bool in_tag = k >= offsetof(S, tag) && k < offsetof(S, tag) + sizeof(s.tag);
        const bool in_value =
            k >= offsetof(S, value) && k < offsetof(S, value) + sizeof(s.value);
        if (!in_tag && !in_value) bytes[k] = fill;
    }
}

/// Agents that differ only in padding bytes are one state, both for
/// `census_of` directly and through the agent simulation's census surface.
template <typename S>
void expect_padding_does_not_split_a_state() {
    constexpr std::size_t n = 64;
    const PaddedProtocol<S> proto;
    Population<S> population(n, proto.initial_state());
    for (std::size_t i = 0; i < n; ++i) {
        scribble_padding(population[static_cast<AgentId>(i)],
                         static_cast<unsigned char>(0x40 + i % 7));
    }
    // Agents 40.. take a second state, again with assorted padding.
    for (std::size_t i = 40; i < n; ++i) population[static_cast<AgentId>(i)].tag = 0;

    const auto census = census_of(proto, population.states());
    ASSERT_EQ(census.size(), 2U);
    EXPECT_EQ(proto.state_key(census[0].first), proto.state_key(population[40]));
    EXPECT_EQ(census[0].second, 24U);
    EXPECT_EQ(proto.state_key(census[1].first), proto.state_key(population[0]));
    EXPECT_EQ(census[1].second, 40U);
    // Each entry keeps the bytes of the first agent with its key.
    EXPECT_EQ(std::memcmp(&census[0].first, &population[40], sizeof(S)), 0);
    EXPECT_EQ(std::memcmp(&census[1].first, &population[0], sizeof(S)), 0);

    const auto sim = make_simulation([](std::size_t) { return PaddedProtocol<S>{}; }, n,
                                     /*seed=*/3, EngineKind::agent);
    auto& agent = dynamic_cast<detail::AgentSimulation<PaddedProtocol<S>>&>(*sim);
    for (std::size_t i = 0; i < n; ++i) {
        scribble_padding(agent.engine().population()[static_cast<AgentId>(i)],
                         static_cast<unsigned char>(i % 5));
    }
    EXPECT_EQ(sim->live_state_count(), 1U);
    const ConfigurationSnapshot snapshot = sim->state_counts();
    ASSERT_EQ(snapshot.counts.size(), 1U);
    EXPECT_EQ(snapshot.counts[0].count, n);
    EXPECT_EQ(snapshot.counts[0].role, Role::leader);
}

TEST(AgentCensus, MatchesAPerAgentKeyedHistogramForEveryProtocol) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    constexpr std::size_t n = 256;
    for (const std::string& name : registry.names()) {
        const auto sim = registry.make_simulation(name, n, /*seed=*/17, EngineKind::agent);
        (void)sim->run_for(8 * n);

        // The raw agent states, read back from the checkpoint payload: the
        // protocol and engine names, then the agent engine's u64 population
        // size and raw states.
        CheckpointWriter w;
        sim->save_checkpoint(w);
        CheckpointReader r(w.buffer());
        for (int i = 0; i < 2; ++i) (void)r.str();
        ASSERT_EQ(r.u64(), n) << name;
        const auto proto = registry.make(name, n);
        const std::size_t width = proto->state_size();
        std::vector<std::byte> raw(n * width);
        r.raw(raw.data(), raw.size());

        // The reference, built the per-agent way the census replaced.
        std::unordered_map<std::uint64_t, StateCount> reference;
        for (std::size_t i = 0; i < n; ++i) {
            const std::byte* slot = raw.data() + i * width;
            const std::uint64_t key = proto->state_key(slot);
            StateCount& entry = reference[key];
            if (entry.count == 0) {
                entry.key = key;
                entry.role = proto->output(slot);
            }
            ++entry.count;
        }

        EXPECT_EQ(sim->live_state_count(), reference.size()) << name;
        const ConfigurationSnapshot snapshot = sim->state_counts();
        EXPECT_EQ(snapshot.step, 8 * n) << name;
        ASSERT_EQ(snapshot.counts.size(), reference.size()) << name;
        for (std::size_t i = 0; i < snapshot.counts.size(); ++i) {
            const StateCount& got = snapshot.counts[i];
            if (i > 0) {
                EXPECT_LT(snapshot.counts[i - 1].key, got.key) << name;
            }
            const auto it = reference.find(got.key);
            ASSERT_NE(it, reference.end()) << name << " key " << got.key;
            EXPECT_EQ(got.count, it->second.count) << name << " key " << got.key;
            EXPECT_EQ(got.role, it->second.role) << name << " key " << got.key;
        }
    }
}

TEST(AgentCensus, PaddingBytesDoNotSplitAState) {
    expect_padding_does_not_split_a_state<InnerPadState>();
    expect_padding_does_not_split_a_state<TailPadState>();
}

TEST(AgentCensus, HybridAgentModeCollectsCensusOfItsPopulation) {
    // pll's all-initial census is one state with no null mass, so the rule
    // starts the hybrid engine in agent mode at this n.
    constexpr std::size_t n = 512;
    HybridEngine<Pll> engine(Pll::for_population(n), n, /*seed=*/5);
    ASSERT_EQ(engine.mode(), EngineKind::agent);
    (void)engine.run_for(4 * n);
    // A handoff into agent mode lays a count engine's census out again.
    engine.force_mode(EngineKind::gillespie);
    (void)engine.run_for(4 * n);
    engine.force_mode(EngineKind::agent);
    (void)engine.run_for(4 * n);

    const auto expected = census_of(engine.protocol(), engine.agent_population().states());
    EXPECT_EQ(engine.collect_census(), expected);
    EXPECT_EQ(engine.live_state_count(), expected.size());
}

}  // namespace
}  // namespace ppsim
