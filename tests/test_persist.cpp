// Tests for execution persistence (core/persist.hpp): schedule and
// configuration round-trips, validation, and the full repro-bundle workflow
// (save a run, reload it elsewhere, continue identically), and the
// checkpoint container's rejection of every corruption it guards against.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/engine.hpp"
#include "core/persist.hpp"
#include "protocols/pll.hpp"
#include "protocols/registry.hpp"

namespace ppsim {
namespace {

std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Persist, ScheduleRoundTrips) {
    RecordedSchedule schedule;
    schedule.append(0, 1);
    schedule.append(7, 3);
    schedule.append(2, 9);
    const std::string path = temp_path("ppsim_sched.bin");
    save_schedule(path, schedule);
    const RecordedSchedule loaded = load_schedule(path);
    ASSERT_EQ(loaded.size(), schedule.size());
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        EXPECT_EQ(loaded[i], schedule[i]);
    }
    std::filesystem::remove(path);
}

TEST(Persist, EmptyScheduleRoundTrips) {
    const std::string path = temp_path("ppsim_sched_empty.bin");
    save_schedule(path, RecordedSchedule{});
    EXPECT_TRUE(load_schedule(path).empty());
    std::filesystem::remove(path);
}

TEST(Persist, RejectsWrongMagic) {
    const std::string path = temp_path("ppsim_not_a_bundle.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not a bundle";
    }
    EXPECT_THROW((void)load_schedule(path), InvalidArgument);
    EXPECT_THROW((void)load_configuration(path), InvalidArgument);
    std::filesystem::remove(path);
}

TEST(Persist, ConfigurationRoundTrips) {
    const std::size_t n = 64;
    Engine<Pll> engine(Pll::for_population(n), n, 5);
    engine.run_for(10'000);

    const ConfigurationDump dump = dump_configuration(engine.population(), "pll");
    const std::string path = temp_path("ppsim_config.bin");
    save_configuration(path, dump);
    const ConfigurationDump loaded = load_configuration(path);
    EXPECT_EQ(loaded.protocol_name, "pll");
    EXPECT_EQ(loaded.agents, n);
    EXPECT_EQ(loaded.state_size, sizeof(PllState));

    Engine<Pll> restored(Pll::for_population(n), n, 999);
    restore_configuration(loaded, restored.population(), "pll");
    restored.recount_leaders();
    EXPECT_EQ(restored.leader_count(), engine.leader_count());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(restored.population()[static_cast<AgentId>(i)],
                  engine.population()[static_cast<AgentId>(i)]);
    }
    std::filesystem::remove(path);
}

TEST(Persist, RejectsAnOverflowingAgentCount) {
    // agents × state_size wraps to a small number when agents is 2^63; the
    // loader must refuse the dump, not return one whose `states` is short.
    const std::size_t n = 16;
    Engine<Pll> engine(Pll::for_population(n), n, 5);
    const std::string path = temp_path("ppsim_config_overflow.bin");
    save_configuration(path, dump_configuration(engine.population(), "pll"));
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    // Layout: magic u32, version u32, name (u64 length + bytes), state size
    // u64, then the agent count u64.
    const std::size_t agents_at = 8 + 8 + std::string("pll").size() + 8;
    std::uint64_t agents = 0;
    std::memcpy(&agents, bytes.data() + agents_at, sizeof agents);
    ASSERT_EQ(agents, n);
    agents = std::uint64_t{1} << 63U;
    std::memcpy(bytes.data() + agents_at, &agents, sizeof agents);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW((void)load_configuration(path), InvalidArgument);
    std::filesystem::remove(path);
}

TEST(Persist, RestoreValidatesIdentity) {
    const std::size_t n = 16;
    Engine<Pll> engine(Pll::for_population(n), n, 5);
    ConfigurationDump dump = dump_configuration(engine.population(), "pll");

    Population<PllState> wrong_size(8, PllState{});
    EXPECT_THROW(restore_configuration(dump, wrong_size, "pll"), InvalidArgument);

    Population<PllState> ok(n, PllState{});
    EXPECT_THROW(restore_configuration(dump, ok, "other_protocol"), InvalidArgument);
    EXPECT_NO_THROW(restore_configuration(dump, ok, "pll"));
}

TEST(Persist, FullReproBundleWorkflow) {
    // Record a run (schedule + final configuration), persist both, then
    // replay the schedule from scratch elsewhere and reach the same
    // configuration byte for byte.
    const std::size_t n = 48;
    const std::string sched_path = temp_path("ppsim_bundle_sched.bin");
    const std::string config_path = temp_path("ppsim_bundle_config.bin");
    {
        Engine<Pll> engine(Pll::for_population(n), n, 0xB0B);
        RecordingScheduler<UniformScheduler> recorder(UniformScheduler(n, 0xB0B));
        for (int i = 0; i < 30'000; ++i) engine.apply(recorder.next());
        save_schedule(sched_path, recorder.record());
        save_configuration(config_path, dump_configuration(engine.population(), "pll"));
    }
    {
        Engine<Pll> replayer(Pll::for_population(n), n, 1);
        replayer.apply(load_schedule(sched_path));
        const ConfigurationDump expected = load_configuration(config_path);
        Engine<Pll> reference(Pll::for_population(n), n, 2);
        restore_configuration(expected, reference.population(), "pll");
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(replayer.population()[static_cast<AgentId>(i)],
                      reference.population()[static_cast<AgentId>(i)]);
        }
    }
    std::filesystem::remove(sched_path);
    std::filesystem::remove(config_path);
}

// --- checkpoint containers ("PPCK", core/persist.hpp) -----------------------
//
// A checkpoint the user asked to resume from must either load exactly or
// fail with a clear error — and a failed load must never leave a half-restored
// simulation behind. These tests corrupt a valid container every way the
// loader guards against and check both halves of that contract.

/// A small valid checkpoint file to corrupt, plus the simulation that wrote
/// it (still live, for no-partial-restore checks).
std::unique_ptr<Simulation> write_sample_checkpoint(const std::string& path) {
    auto sim = ProtocolRegistry::instance().make_simulation(
        "pll", 64, /*seed=*/11, EngineKind::batched, BatchMode::pairwise);
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
    EXPECT_EQ(header.engine, "batched");
    EXPECT_EQ(header.batch_mode, "pairwise");
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
    // byte by byte, and version 3 hybrid payloads carried a measured cost
    // table: all must fail loudly, not misparse or fail as a checksum
    // mismatch.
    for (const std::uint32_t wrong : {0xFFFF'FFFFU, 1U, 2U, 3U}) {
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

    auto victim = ProtocolRegistry::instance().make_simulation(
        "pll", 64, /*seed=*/23, EngineKind::batched, BatchMode::pairwise);
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
