/// \file pll_kernel.hpp
/// \brief Transition arithmetic shared by the kernels of Pll (pll.cpp) and
/// SymmetricPll (pll_symmetric.cpp); included by those two files only.
#pragma once

#include <cstdint>

namespace ppsim::pll_kernel {

/// min(x + 1, cap) on unsigned 16-bit values — the saturating increments of
/// lines 9, 36, 45 and 52 (see fidelity note 1 in pll.hpp).
[[nodiscard]] constexpr std::uint16_t saturating_increment(std::uint16_t x,
                                                           unsigned cap) noexcept {
    return x + 1U >= cap ? static_cast<std::uint16_t>(cap) : static_cast<std::uint16_t>(x + 1U);
}

[[nodiscard]] constexpr std::uint8_t next_color(std::uint8_t c) noexcept {
    return static_cast<std::uint8_t>((c + 1U) % 3U);
}

/// CountUp (Algorithm 2) on the pair (a0, a1); `timer` is the status of VB.
///
/// CountUp runs on every interaction, and its status test is true for
/// about one agent in four, independently on every step: a branch on it
/// would be mispredicted about as often as it is taken. The timer advance
/// is therefore arithmetic on the 0/1 flag `is_timer`, and only the rare
/// events (a wrap, a colour adoption) branch. Forced inline, so that the
/// kernels' bodies hold it: compiled as a call, it made `pll` agent steps
/// at n = 4096 about 6% slower (median of 13 alternating runs, slower in
/// 9; GCC 12.2, -O3). Requires count < cmax for timers and count = 0 for
/// every other agent, as on every reachable state.
template <typename State, typename Status>
[[gnu::always_inline]] inline void count_up(State& a0, State& a1, unsigned cmax,
                                            Status timer) noexcept {
    // Lines 23–29: every timer agent advances its count; a wrap-around to 0
    // mints the next colour and raises the tick flag. Other agents add 0 to
    // a count that stays 0.
    const auto advance_timer = [&](State& s) {
        const unsigned is_timer = s.status == timer;
        unsigned next = s.count + is_timer;
        next = next >= cmax ? 0U : next;
        s.count = static_cast<std::uint16_t>(next);
        // A timer that wrapped, as one compare: GCC splits the equivalent
        // `is_timer & (next == 0)` back into two branches.
        if ((next | (is_timer ^ 1U)) == 0) [[unlikely]] {
            s.color = next_color(s.color);
            s.tick = true;
        }
    };
    advance_timer(a0);
    advance_timer(a1);

    // Lines 30–34: the newer colour (one step ahead cyclically) spreads by
    // one-way epidemic; an adopting timer agent restarts its counter. Two
    // distinct colours of {0, 1, 2} are one step apart in exactly one
    // direction, so one inequality guards both directions.
    if (a0.color != a1.color) [[unlikely]] {
        const bool a0_behind = a1.color == next_color(a0.color);
        State& behind = a0_behind ? a0 : a1;
        const State& ahead = a0_behind ? a1 : a0;
        behind.color = ahead.color;
        behind.tick = true;
        if (behind.status == timer) behind.count = 0;
    }
}

}  // namespace ppsim::pll_kernel
