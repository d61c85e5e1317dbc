// Tests for the checkpoint container (core/persist.hpp): a header round
// trip, and the rejection of every corruption the loader guards against.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/persist.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
}

// --- checkpoint containers ("PPCK", core/persist.hpp) -----------------------
//
// A checkpoint the user asked to resume from must either load exactly or
// fail with a clear error — and a failed load must never leave a half-restored
// simulation behind. These tests corrupt a valid container every way the
// loader guards against and check both halves of that contract.

/// A small valid checkpoint file to corrupt, plus the simulation that wrote
/// it (still live, for no-partial-restore checks). On the agent engine the
/// payload length is fixed by n and the state size, not by the random
/// stream, so it keeps the sub-word tail `RejectsBitFlippedPayload` needs.
std::unique_ptr<Simulation> write_sample_checkpoint(const std::string& path) {
    auto sim =
        ProtocolRegistry::instance().make_simulation("pll", 64, /*seed=*/11, EngineKind::agent);
    (void)sim->run_for(300);
    sim->write_checkpoint(path);
    return sim;
}

/// Loads the whole file, applies `mutate` to its bytes, writes it back.
template <typename Mutator>
void corrupt_file(const std::string& path, Mutator&& mutate) {
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    mutate(bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The error message a corrupted load fails with.
std::string load_error(const std::string& path) {
    std::string payload;
    try {
        (void)load_checkpoint(path, payload);
    } catch (const InvalidArgument& e) {
        return e.what();
    }
    return {};
}

TEST(CheckpointContainer, HeaderRoundTrips) {
    const std::string path = temp_path("ppsim_ppck_roundtrip.ppck");
    const auto sim = write_sample_checkpoint(path);
    std::string payload;
    const CheckpointHeader header = load_checkpoint(path, payload);
    EXPECT_EQ(header.protocol, "pll");
    EXPECT_EQ(header.engine, "agent");
    EXPECT_EQ(header.population, 64U);
    EXPECT_EQ(header.step, 300U);
    EXPECT_FALSE(payload.empty());
    std::filesystem::remove(path);
}

TEST(CheckpointContainer, RejectsNonCheckpointFile) {
    const std::string path = temp_path("ppsim_ppck_not_a_checkpoint.ppck");
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not a checkpoint";
    }
    EXPECT_NE(load_error(path).find("is not a ppsim checkpoint file"),
              std::string::npos);
    std::filesystem::remove(path);
}

TEST(CheckpointContainer, RejectsTruncatedFile) {
    const std::string path = temp_path("ppsim_ppck_truncated.ppck");
    (void)write_sample_checkpoint(path);
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);
    std::string payload;
    EXPECT_THROW((void)load_checkpoint(path, payload), InvalidArgument);
    std::filesystem::remove(path);
}

TEST(CheckpointContainer, RejectsBitFlippedPayload) {
    const std::string path = temp_path("ppsim_ppck_bitflip.ppck");
    (void)write_sample_checkpoint(path);
    std::string payload;
    (void)load_checkpoint(path, payload);
    ASSERT_GT(payload.size(), 16U);
    ASSERT_NE(payload.size() % 8, 0U)
        << "the sample payload must end in a partial word, or the flips below "
           "never reach the checksum's byte tail";
    // Payload offsets to corrupt: the first word, a middle word, and each of
    // the last 8 bytes — which span the checksum's word loop and byte tail.
    std::vector<std::size_t> offsets{0, payload.size() / 2};
    for (std::size_t k = 8; k >= 1; --k) offsets.push_back(payload.size() - k);
    for (const std::size_t offset : offsets) {
        (void)write_sample_checkpoint(path);
        corrupt_file(path, [&](std::string& bytes) {
            // The payload ends 8 bytes (the checksum) before the file does.
            const std::size_t at = bytes.size() - 8 - payload.size() + offset;
            bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
        });
        EXPECT_NE(load_error(path).find("checksum mismatch"), std::string::npos)
            << "payload offset " << offset;
    }
    std::filesystem::remove(path);
}

TEST(CheckpointContainer, RejectsAPayloadLengthPastTheEndOfTheFile) {
    // A corrupt length must fail as a truncated file before anything is
    // allocated — not as std::bad_alloc from a 2^40- or 2^62-byte buffer.
    const std::string path = temp_path("ppsim_ppck_length.ppck");
    (void)write_sample_checkpoint(path);
    std::string payload;
    (void)load_checkpoint(path, payload);
    for (const unsigned bit : {40U, 62U}) {
        (void)write_sample_checkpoint(path);
        corrupt_file(path, [&](std::string& bytes) {
            // The u64 payload length sits right before the payload.
            const std::size_t at = bytes.size() - 8 - payload.size() - 8;
            std::uint64_t length = 0;
            std::memcpy(&length, bytes.data() + at, sizeof length);
            ASSERT_EQ(length, payload.size());
            length ^= std::uint64_t{1} << bit;
            std::memcpy(bytes.data() + at, &length, sizeof length);
        });
        std::string ignored;
        EXPECT_THROW((void)load_checkpoint(path, ignored), InvalidArgument) << "bit " << bit;
    }
    std::filesystem::remove(path);
}

TEST(CheckpointContainer, RejectsWrongFormatVersion) {
    const std::string path = temp_path("ppsim_ppck_version.ppck");
    // Version 1 is the earlier layout whose header and engine payloads
    // carried a per-run thread count, version 2 checksummed the payload
    // byte by byte, version 3 hybrid payloads carried a measured cost
    // table, version 4 headers and payload preambles named a batch mode,
    // and version 5 agent payloads carried a thinning stream: all must fail
    // loudly, not misparse or fail as a checksum mismatch.
    for (const std::uint32_t wrong : {0xFFFF'FFFFU, 1U, 2U, 3U, 4U, 5U}) {
        (void)write_sample_checkpoint(path);
        corrupt_file(path, [wrong](std::string& bytes) {
            // The container version is the u32 after the 4-byte magic.
            ASSERT_GE(bytes.size(), 8U);
            std::memcpy(bytes.data() + 4, &wrong, sizeof wrong);
        });
        EXPECT_NE(load_error(path).find("unsupported checkpoint format version"),
                  std::string::npos)
            << "version " << wrong;
    }
    std::filesystem::remove(path);
}

TEST(CheckpointContainer, RejectsWrongCpuSignature) {
    const std::string path = temp_path("ppsim_ppck_cpu.ppck");
    (void)write_sample_checkpoint(path);
    corrupt_file(path, [](std::string& bytes) {
        // Layout: magic u32, version u32, then two length-prefixed strings —
        // the library version and the CPU signature. Flip the signature's
        // first byte.
        std::uint64_t lib_len = 0;
        ASSERT_GE(bytes.size(), 16U);
        std::memcpy(&lib_len, bytes.data() + 8, sizeof lib_len);
        const std::size_t sig_len_at = 16 + static_cast<std::size_t>(lib_len);
        std::uint64_t sig_len = 0;
        ASSERT_GE(bytes.size(), sig_len_at + 8);
        std::memcpy(&sig_len, bytes.data() + sig_len_at, sizeof sig_len);
        ASSERT_GT(sig_len, 0U);  // cpu_signature() is never empty
        bytes[sig_len_at + 8] = static_cast<char>(bytes[sig_len_at + 8] ^ 0x01);
    });
    EXPECT_NE(load_error(path).find("CPU signature mismatch"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(CheckpointContainer, FailedResumeLeavesTheSimulationUntouched) {
    // "No partial resume": a rejected file must leave the target simulation
    // exactly where it was — state, counters and stream positions.
    const std::string path = temp_path("ppsim_ppck_no_partial.ppck");
    (void)write_sample_checkpoint(path);
    corrupt_file(path, [](std::string& bytes) {
        ASSERT_GT(bytes.size(), 9U);
        bytes[bytes.size() - 9] = static_cast<char>(bytes[bytes.size() - 9] ^ 0x01);
    });

    auto victim =
        ProtocolRegistry::instance().make_simulation("pll", 64, /*seed=*/23, EngineKind::agent);
    (void)victim->run_for(100);
    CheckpointWriter before;
    victim->save_checkpoint(before);
    EXPECT_THROW(victim->restore_checkpoint_file(path), InvalidArgument);
    CheckpointWriter after;
    victim->save_checkpoint(after);
    EXPECT_EQ(before.buffer(), after.buffer());
    EXPECT_EQ(victim->steps(), 100U);
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace ppsim
