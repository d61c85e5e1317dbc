/// \file persist.hpp
/// \brief The checkpoint container ("PPCK"): a run's full state on disk, so
/// a long run can be stopped and resumed exactly (`ppsim_sim --checkpoint`
/// / `--resume`, `Simulation::write_checkpoint` / `restore_checkpoint_file`).
///
/// Format: a small self-describing binary container — magic, format
/// version, the library version and CPU signature it was written under, the
/// run identity (CheckpointHeader), then one length-prefixed, checksummed
/// opaque payload (checkpoint_io.hpp). Integers are fixed-width in host
/// byte order; a file only ever loads on the machine and library version
/// that wrote it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common.hpp"

namespace ppsim {

/// Identity of a checkpointed run: everything `--resume` needs to rebuild
/// the simulation through the registry before handing the payload to
/// `Simulation::restore_checkpoint`. The engine is stored as its table name
/// (engine.hpp) so this header stays independent of the enum layout.
struct CheckpointHeader {
    std::string protocol;          ///< registry name
    std::string engine;            ///< engine_table name ("agent", "hybrid", ...)
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
