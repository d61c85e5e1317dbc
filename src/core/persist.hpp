/// \file persist.hpp
/// \brief Persistence of executions: schedules and configurations round-trip
/// to disk, so a run can be archived, shared and replayed exactly — the
/// "repro bundle" workflow for bug reports and paper artefacts.
///
/// Format: a small self-describing binary container (magic, version, typed
/// header, raw payload). Integers are little-endian fixed-width; states are
/// raw trivially-copyable bytes, so a bundle is portable across builds of
/// the same protocol on the same ABI (the protocol name and state size are
/// embedded and validated on load).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "population.hpp"
#include "protocol.hpp"
#include "scheduler.hpp"

namespace ppsim {

/// Writes a recorded schedule to `path`. Throws on I/O failure.
void save_schedule(const std::string& path, const RecordedSchedule& schedule);

/// Reads a schedule previously written by save_schedule.
[[nodiscard]] RecordedSchedule load_schedule(const std::string& path);

/// A type-erased configuration dump: protocol identity + raw agent states.
struct ConfigurationDump {
    std::string protocol_name;
    std::size_t state_size = 0;
    std::size_t agents = 0;
    std::vector<std::byte> states;  ///< agents × state_size raw bytes
};

/// Captures the configuration of a population of trivially-copyable states.
template <typename State>
[[nodiscard]] ConfigurationDump dump_configuration(const Population<State>& population,
                                                   std::string protocol_name) {
    static_assert(std::is_trivially_copyable_v<State>);
    ConfigurationDump dump;
    dump.protocol_name = std::move(protocol_name);
    dump.state_size = sizeof(State);
    dump.agents = population.size();
    dump.states.resize(dump.agents * dump.state_size);
    std::memcpy(dump.states.data(), population.states().data(), dump.states.size());
    return dump;
}

/// Restores a previously dumped configuration into a population. The dump
/// must match the protocol name, state size and population size exactly.
template <typename State>
void restore_configuration(const ConfigurationDump& dump, Population<State>& population,
                           std::string_view protocol_name) {
    static_assert(std::is_trivially_copyable_v<State>);
    require(dump.protocol_name == protocol_name,
            "configuration dump belongs to protocol '" + dump.protocol_name + "'");
    require(dump.state_size == sizeof(State), "state size mismatch in dump");
    require(dump.agents == population.size(), "population size mismatch in dump");
    std::memcpy(population.states().data(), dump.states.data(), dump.states.size());
}

/// Writes a configuration dump to `path`.
void save_configuration(const std::string& path, const ConfigurationDump& dump);

/// Reads a configuration dump written by save_configuration. A length
/// field that does not fit in the rest of the file (truncation, corruption,
/// or an agents × state_size product that would overflow) throws
/// InvalidArgument before anything is allocated.
[[nodiscard]] ConfigurationDump load_configuration(const std::string& path);

// --- checkpoints ("PPCK") ---------------------------------------------------

/// Identity of a checkpointed run: everything `--resume` needs to rebuild
/// the simulation through the registry before handing the payload to
/// `Simulation::restore_checkpoint`. Engine and batch mode are stored as
/// their table names (engine.hpp / batch_pairing.hpp) so this header stays
/// independent of the enum layouts.
struct CheckpointHeader {
    std::string protocol;          ///< registry name
    std::string engine;            ///< engine_table name ("agent", "hybrid", ...)
    std::string batch_mode;        ///< batch_mode_table name ("auto", ...)
    std::uint64_t population = 0;  ///< n the simulation was constructed with
    std::uint64_t seed = 0;        ///< root seed
    std::uint64_t step = 0;        ///< step the checkpoint was taken at (informational)
};

/// The checkpoint payload checksum: FNV-1a 64-bit with its xor-multiply
/// step applied to 8-byte words read in host byte order, byte by byte only
/// for the tail (PPCK format 3; format 2 hashed every byte). Each step is a
/// bijection of the running hash (xor, then multiplication by an odd
/// prime), so any corruption confined to one word or tail byte changes the
/// result. Host byte order is safe because a PPCK file never loads on
/// another CPU signature.
[[nodiscard]] std::uint64_t checkpoint_checksum(std::string_view payload) noexcept;

/// Writes a checkpoint container: validated header (magic "PPCK", format
/// version, library version, CPU signature) plus the length-prefixed,
/// checksummed opaque payload produced by `Simulation::save_checkpoint`.
/// The write is atomic (temp file + rename), so a crash mid-write or a
/// concurrent reader can never observe a torn checkpoint.
void save_checkpoint(const std::string& path, const CheckpointHeader& header,
                     const std::string& payload);

/// Reads a checkpoint written by `save_checkpoint`, returning the header
/// and filling `payload`. Strict by design — a checkpoint the user asked
/// to resume from must either load exactly or fail with a clear error:
/// wrong magic, unsupported format version, another library version, another CPU
/// signature (libm differences void the bit-identical resume contract
/// across machines), truncation (a length field larger than the rest of
/// the file included, checked before allocating), or a payload checksum
/// mismatch all throw InvalidArgument. No partial state escapes.
[[nodiscard]] CheckpointHeader load_checkpoint(const std::string& path,
                                               std::string& payload);

}  // namespace ppsim
