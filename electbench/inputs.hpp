/// \file inputs.hpp
/// \brief The layer inputs eb_trace records and eb_replay reads: live
/// censuses of gillespie elections at sampled model-time slices, and agent
/// populations part-way through an election. Raw binary files; both programs
/// are built from the same sources, so the state layout always agrees.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/common.hpp"
#include "protocols/pll.hpp"

namespace eb {

/// One sampled gillespie slice: the live census at a whole model-time unit,
/// in the engine's live-list order (the order its multinomial chain walks).
struct CensusSample {
    std::uint32_t election = 0;  ///< index of the election within the run
    std::uint32_t qe = 0;        ///< 1 when the election is a QE election
    std::uint64_t n = 0;         ///< population size
    std::uint64_t leap = 0;      ///< τ-leap length, n / 64
    std::vector<std::pair<ppsim::PllState, std::uint64_t>> census;
};

/// One agent population part-way through an election.
struct AgentSample {
    double time = 0.0;  ///< model time the population was taken at
    std::vector<ppsim::PllState> agents;
};

static_assert(std::is_trivially_copyable_v<ppsim::PllState>);

namespace detail {

struct FileCloser {
    void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

inline File open_file(const std::string& path, const char* mode) {
    File f(std::fopen(path.c_str(), mode));
    ppsim::require(f != nullptr, "cannot open " + path);
    return f;
}

template <typename T>
void put(std::FILE* f, const T& value) {
    ppsim::require(std::fwrite(&value, sizeof(T), 1, f) == 1, "short write");
}

template <typename T>
void put_array(std::FILE* f, const T* values, std::size_t count) {
    ppsim::require(count == 0 || std::fwrite(values, sizeof(T), count, f) == count,
                   "short write");
}

/// Reads one T; false at a clean end of file, throws on a truncated record.
template <typename T>
bool get(std::FILE* f, T& value, bool eof_ok = false) {
    const std::size_t got = std::fread(&value, sizeof(T), 1, f);
    if (got == 1) return true;
    ppsim::require(eof_ok && std::feof(f) != 0, "truncated recorded input");
    return false;
}

}  // namespace detail

inline void write_census(const std::string& path, const std::vector<CensusSample>& samples) {
    const detail::File f = detail::open_file(path, "wb");
    for (const CensusSample& s : samples) {
        detail::put(f.get(), s.election);
        detail::put(f.get(), s.qe);
        detail::put(f.get(), s.n);
        detail::put(f.get(), s.leap);
        detail::put(f.get(), static_cast<std::uint64_t>(s.census.size()));
        for (const auto& [state, count] : s.census) {
            detail::put(f.get(), state);
            detail::put(f.get(), count);
        }
    }
}

[[nodiscard]] inline std::vector<CensusSample> read_census(const std::string& path) {
    const detail::File f = detail::open_file(path, "rb");
    std::vector<CensusSample> samples;
    CensusSample s;
    while (detail::get(f.get(), s.election, /*eof_ok=*/true)) {
        std::uint64_t size = 0;
        detail::get(f.get(), s.qe);
        detail::get(f.get(), s.n);
        detail::get(f.get(), s.leap);
        detail::get(f.get(), size);
        ppsim::require(size <= 1'000'000, "implausible census size in recorded input");
        s.census.resize(size);
        for (auto& [state, count] : s.census) {
            detail::get(f.get(), state);
            detail::get(f.get(), count);
        }
        samples.push_back(s);
    }
    return samples;
}

inline void write_agents(const std::string& path, const std::vector<AgentSample>& samples) {
    const detail::File f = detail::open_file(path, "wb");
    for (const AgentSample& s : samples) {
        detail::put(f.get(), s.time);
        detail::put(f.get(), static_cast<std::uint64_t>(s.agents.size()));
        detail::put_array(f.get(), s.agents.data(), s.agents.size());
    }
}

[[nodiscard]] inline std::vector<AgentSample> read_agents(const std::string& path) {
    const detail::File f = detail::open_file(path, "rb");
    std::vector<AgentSample> samples;
    AgentSample s;
    while (detail::get(f.get(), s.time, /*eof_ok=*/true)) {
        std::uint64_t size = 0;
        detail::get(f.get(), size);
        ppsim::require(size >= 2 && size <= (std::uint64_t{1} << 32U),
                       "implausible population size in recorded input");
        s.agents.resize(size);
        ppsim::require(std::fread(s.agents.data(), sizeof(ppsim::PllState), size, f.get()) == size,
                       "truncated recorded input");
        samples.push_back(s);
    }
    return samples;
}

}  // namespace eb
