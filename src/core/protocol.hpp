/// \file protocol.hpp
/// \brief The protocol concept: what a population protocol looks like to the
/// simulation engine, plus a type-erased wrapper for runtime dispatch.
///
/// A protocol in the model is a tuple P(Q, s_init, T, Y, π_out). Here:
///  * `State`            is Q (a small trivially-copyable value),
///  * `initial_state()`  is s_init,
///  * `interact(a, b)`   is T applied to (initiator=a, responder=b) in place,
///  * `output(s)`        is π_out restricted to Y = {L, F}.
///
/// Transition functions are deterministic — every bit of randomness in the
/// model comes from the scheduler. Protocols that flip coins (PLL) do so by
/// reading their role (initiator vs responder) in the interaction, exactly as
/// the paper prescribes.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common.hpp"

namespace ppsim {

/// Compile-time interface for protocols usable with the templated engine.
template <typename P>
concept Protocol = requires(const P proto, typename P::State a, typename P::State b) {
    requires std::is_trivially_copyable_v<typename P::State>;
    { proto.initial_state() } -> std::same_as<typename P::State>;
    { proto.output(a) } -> std::same_as<Role>;
    { proto.interact(a, b) } -> std::same_as<void>;
    { proto.name() } -> std::convertible_to<std::string_view>;
};

/// Optional extension: protocols that can report an upper bound on the number
/// of distinct states an agent may ever be in (Lemma 3 style accounting).
template <typename P>
concept BoundedStateProtocol = Protocol<P> && requires(const P proto) {
    { proto.state_bound() } -> std::convertible_to<std::size_t>;
};

/// Optional extension: protocols that can serialise a state into a canonical
/// 64-bit key, used by the reachable-state-space counter. The key must be
/// injective on reachable states.
template <typename P>
concept HashableStateProtocol = Protocol<P> &&
    requires(const P proto, typename P::State s) {
        { proto.state_key(s) } -> std::same_as<std::uint64_t>;
    };

/// Protocols whose states can be interned into dense ids (the requirement of
/// the count-based BatchedEngine): either the protocol supplies an injective
/// `state_key()`, or the state fits in 8 bytes so its raw bits are their own
/// key. Every protocol in the registry satisfies this.
template <typename P>
concept InternableProtocol =
    Protocol<P> && (HashableStateProtocol<P> || sizeof(typename P::State) <= 8);

/// Canonical 64-bit key of `s` under `proto`, injective on reachable states.
/// Single definition of the key logic, shared by the type-erased adapter and
/// the batched engine's state-interning layer.
template <Protocol P>
[[nodiscard]] std::uint64_t state_key_of(const P& proto,
                                         const typename P::State& s) noexcept {
    if constexpr (HashableStateProtocol<P>) {
        return proto.state_key(s);
    } else {
        // Fallback: states at most 8 bytes are their own key.
        static_assert(sizeof(typename P::State) <= 8,
                      "protocol must provide state_key() for states wider than 8 bytes");
        std::uint64_t key = 0;
        std::memcpy(&key, &s, sizeof(s));
        return key;
    }
}

/// Runtime (type-erased) view of a protocol over an opaque state buffer.
/// Used by the registry, the experiment driver and the examples, where the
/// protocol is chosen by name at runtime. The hot engine path stays templated.
class AnyProtocol {
public:
    virtual ~AnyProtocol() = default;

    /// Size in bytes of one agent state.
    [[nodiscard]] virtual std::size_t state_size() const noexcept = 0;

    /// Writes the initial state into `slot` (state_size() bytes).
    virtual void write_initial_state(std::byte* slot) const noexcept = 0;

    /// Applies the transition function to (initiator, responder) in place.
    virtual void interact(std::byte* initiator, std::byte* responder) const noexcept = 0;

    /// Output of the agent whose state is in `slot`.
    [[nodiscard]] virtual Role output(const std::byte* slot) const noexcept = 0;

    /// Canonical 64-bit key of the state (injective on reachable states).
    [[nodiscard]] virtual std::uint64_t state_key(const std::byte* slot) const noexcept = 0;

    /// Upper bound on distinct reachable states per agent, if the protocol
    /// declares one; 0 when unknown.
    [[nodiscard]] virtual std::size_t state_bound() const noexcept = 0;

    /// Protocol display name.
    [[nodiscard]] virtual std::string name() const = 0;
};

namespace detail {

/// Adapts a static Protocol to the AnyProtocol interface.
template <Protocol P>
class AnyProtocolAdapter final : public AnyProtocol {
public:
    explicit AnyProtocolAdapter(P proto) : proto_(std::move(proto)) {}

    [[nodiscard]] std::size_t state_size() const noexcept override {
        return sizeof(typename P::State);
    }

    void write_initial_state(std::byte* slot) const noexcept override {
        const auto s = proto_.initial_state();
        std::memcpy(slot, &s, sizeof(s));
    }

    void interact(std::byte* initiator, std::byte* responder) const noexcept override {
        typename P::State a;
        typename P::State b;
        std::memcpy(&a, initiator, sizeof(a));
        std::memcpy(&b, responder, sizeof(b));
        proto_.interact(a, b);
        std::memcpy(initiator, &a, sizeof(a));
        std::memcpy(responder, &b, sizeof(b));
    }

    [[nodiscard]] Role output(const std::byte* slot) const noexcept override {
        typename P::State s;
        std::memcpy(&s, slot, sizeof(s));
        return proto_.output(s);
    }

    [[nodiscard]] std::uint64_t state_key(const std::byte* slot) const noexcept override {
        typename P::State s;
        std::memcpy(&s, slot, sizeof(s));
        return state_key_of(proto_, s);
    }

    [[nodiscard]] std::size_t state_bound() const noexcept override {
        if constexpr (BoundedStateProtocol<P>) {
            return proto_.state_bound();
        } else {
            return 0;
        }
    }

    [[nodiscard]] std::string name() const override { return std::string(proto_.name()); }

private:
    P proto_;
};

}  // namespace detail

/// Wraps a statically-typed protocol into an AnyProtocol.
template <Protocol P>
[[nodiscard]] std::unique_ptr<AnyProtocol> erase_protocol(P proto) {
    return std::make_unique<detail::AnyProtocolAdapter<P>>(std::move(proto));
}

}  // namespace ppsim
