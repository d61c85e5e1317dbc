/// \file calibration.hpp
/// \brief The hybrid engine's measured cost model: per-mode ns/interaction
/// tables calibrated by short probe runs and cached on disk per (protocol,
/// machine), plus the process-wide ambient options that configure where the
/// cache lives and when it is rebuilt.
///
/// The hybrid engine (hybrid_engine.hpp) switches between the library's
/// execution modes mid-run based on *measured* costs, not hard-coded
/// heuristics. Probing costs real wall time, so tables persist in a small
/// versioned binary container (magic "PPCL", the persist.cpp idiom): a table
/// is only reused when the library version and the CPU signature it was
/// measured on both match, and `--recalibrate` forces a fresh probe. Within
/// a process tables are additionally memoised under a mutex, which is what
/// makes two hybrid simulations built in the same process take identical
/// mode decisions (the seeded-determinism contract of the engine table).
///
/// Configuration is ambient (process-wide) rather than threaded through
/// `make_simulation`: the registry / sweep / CLI surfaces stay unchanged,
/// and `EngineKind::hybrid` flows through the existing engine parameters.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace ppsim {

/// Execution modes the hybrid engine chooses among. `batched_pairwise` and
/// `batched_bulk` pin the batched engine's pairing strategy
/// (batch_pairing.hpp); `gillespie` covers both of that engine's internal
/// paths (exact SSA and τ-leaping — it already self-selects between them
/// from the live configuration, so the hybrid layer treats it as one mode).
enum class HybridMode : std::uint8_t {
    agent = 0,
    batched_pairwise = 1,
    batched_bulk = 2,
    gillespie = 3,
};

inline constexpr std::size_t hybrid_mode_count = 4;

/// Display name of a hybrid mode ("agent", "batched-pairwise", …).
[[nodiscard]] std::string_view to_string(HybridMode mode) noexcept;

/// Measured cost of one mode, in nanoseconds per interaction, under the two
/// anchor profiles the decision model interpolates between:
///  * `wide_ns`  — the early-run profile: many live states, nearly every
///    channel non-null (probed from the initial configuration);
///  * `narrow_ns` — the absorbed tail: few live states, null-dominated
///    channel mass (probed from a pre-run census), where the gillespie
///    engine's geometric null-skipping shines.
///
/// Per-interaction costs are population-dependent — the count engines
/// amortise per-round work over batches that grow with n, the agent engine
/// does not — so each anchor also carries a measured power-law exponent:
/// the anchor's cost at population n is `anchor_ns · (n / probe_population)^b`,
/// with b fitted from probes at two population buckets (hybrid_engine.hpp)
/// and clamped to a sane range. Exponents of 0 (the default, and the value
/// for single-bucket probes) reproduce the unscaled anchors exactly.
struct ModeCost {
    double wide_ns = 0.0;
    double narrow_ns = 0.0;
    double wide_exponent = 0.0;
    double narrow_exponent = 0.0;
};

/// One protocol's calibration on one machine: per-mode costs plus the probe
/// parameters they were measured under.
struct CalibrationTable {
    std::array<ModeCost, hybrid_mode_count> costs{};
    std::uint64_t probe_population = 0;  ///< the n the probes ran at
};

/// A short signature of the CPU the table was measured on (model name +
/// hardware thread count). A cached table from a different machine is stale:
/// relative mode costs do not transfer.
[[nodiscard]] std::string cpu_signature();

/// The calibration cache directory, resolved in order: the
/// PPSIM_CALIBRATION_DIR environment variable, XDG_CACHE_HOME/ppsim,
/// HOME/.cache/ppsim, then the system temp directory. Created on demand by
/// `save_calibration`.
[[nodiscard]] std::string default_calibration_dir();

/// Cache file path for (protocol, probe population) under `dir`
/// (empty = `default_calibration_dir()`).
[[nodiscard]] std::string calibration_cache_path(std::string_view protocol,
                                                 std::size_t probe_population,
                                                 std::string_view dir = {});

/// Writes a calibration table to `path` (versioned "PPCL" container,
/// stamped with the library version, CPU signature and protocol name).
/// The write is atomic: a temp file in the same directory is renamed over
/// the target, so concurrent writers can never expose a torn file.
void save_calibration(const std::string& path, std::string_view protocol,
                      const CalibrationTable& table);

/// Reads a table written by `save_calibration`. Returns nullopt — the
/// caller re-probes — when the file is missing, truncated, corrupt, from a
/// different library version, format version or CPU, or for a different
/// protocol. Never throws for cache-staleness reasons.
[[nodiscard]] std::optional<CalibrationTable> load_calibration(
    const std::string& path, std::string_view protocol);

/// Process-wide hybrid configuration, set once (CLI startup, test setup)
/// and read by every hybrid engine built afterwards.
struct HybridOptions {
    /// Cache directory; empty = `default_calibration_dir()`.
    std::string cache_dir;
    /// Ignore any existing cache file and re-probe (then overwrite it).
    bool recalibrate = false;
    /// Test hook: use this table verbatim — no probing, no disk. Also the
    /// lever for seeded-reproducible hybrid replay across machines: a run
    /// is a deterministic function of (seed, calibration table).
    std::optional<CalibrationTable> injected;
};

/// Replaces the ambient options (and clears the in-process memo, so the new
/// options take effect for the next engine built).
void set_hybrid_options(HybridOptions options);

/// A copy of the current ambient options.
[[nodiscard]] HybridOptions hybrid_options();

/// The memoised table for (protocol, probe_population): the
/// injected table if one is set, else the first of {in-process memo, valid
/// disk cache, fresh `probe()` run} that applies — probed tables are saved
/// back to disk (best-effort) and memoised. Serialised under a mutex so a
/// process probes each key at most once and two same-process simulations
/// see the identical table.
[[nodiscard]] CalibrationTable calibration_for(
    const std::string& protocol, std::size_t probe_population,
    const std::function<CalibrationTable()>& probe);

}  // namespace ppsim
