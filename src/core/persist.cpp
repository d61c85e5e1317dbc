#include "persist.hpp"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace ppsim {

namespace {

constexpr std::uint32_t schedule_magic = 0x50505343;    // "PPSC"
constexpr std::uint32_t config_magic = 0x50504346;      // "PPCF"
constexpr std::uint32_t checkpoint_magic = 0x5050434B;  // "PPCK"
constexpr std::uint32_t format_version = 1;
constexpr std::uint32_t checkpoint_format_version = 4;

void write_u32(std::ofstream& out, std::uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_u64(std::ofstream& out, std::uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t read_u32(std::ifstream& in) {
    std::uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof v);
    require(in.good(), "truncated file while reading header");
    return v;
}

std::uint64_t read_u64(std::ifstream& in) {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof v);
    require(in.good(), "truncated file while reading header");
    return v;
}

/// Bytes between the read position and the end of the file: every length
/// field is checked against it before anything is allocated, so a corrupt
/// length fails as a truncated file instead of a giant allocation.
std::uint64_t bytes_left(std::ifstream& in) {
    const std::streampos here = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(here);
    require(here >= 0 && end >= here, "cannot determine the remaining file size");
    return static_cast<std::uint64_t>(end - here);
}

void write_string(std::ofstream& out, std::string_view s) {
    write_u64(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::ifstream& in) {
    const std::uint64_t len = read_u64(in);
    require(len < 4096, "implausible string length");
    require(len <= bytes_left(in), "truncated string payload");
    std::string s(len, '\0');
    in.read(s.data(), static_cast<std::streamsize>(len));
    require(in.good(), "truncated string payload");
    return s;
}

/// A short signature of the CPU a checkpoint was written on (model name +
/// hardware thread count): bit-identical resume is only defined there.
std::string cpu_signature() {
    std::string model = "unknown-cpu";
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                model = line.substr(colon + 1);
                const std::size_t first = model.find_first_not_of(' ');
                if (first != std::string::npos) model.erase(0, first);
            }
            break;
        }
    }
    return model + " x" + std::to_string(std::thread::hardware_concurrency());
}

std::ofstream open_for_write(const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    require(out.good(), "cannot open " + path + " for writing");
    return out;
}

std::ifstream open_for_read(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    require(in.good(), "cannot open " + path + " for reading");
    return in;
}

}  // namespace

void save_schedule(const std::string& path, const RecordedSchedule& schedule) {
    std::ofstream out = open_for_write(path);
    write_u32(out, schedule_magic);
    write_u32(out, format_version);
    write_u64(out, schedule.size());
    for (const Interaction& ia : schedule.view()) {
        write_u32(out, ia.initiator);
        write_u32(out, ia.responder);
    }
    require(out.good(), "I/O error while writing " + path);
}

RecordedSchedule load_schedule(const std::string& path) {
    std::ifstream in = open_for_read(path);
    require(read_u32(in) == schedule_magic, path + " is not a ppsim schedule file");
    require(read_u32(in) == format_version, "unsupported schedule format version");
    const std::uint64_t count = read_u64(in);
    RecordedSchedule schedule;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint32_t a = read_u32(in);
        const std::uint32_t b = read_u32(in);
        schedule.append(a, b);
    }
    return schedule;
}

void save_configuration(const std::string& path, const ConfigurationDump& dump) {
    require(dump.states.size() == dump.agents * dump.state_size,
            "inconsistent configuration dump payload");
    std::ofstream out = open_for_write(path);
    write_u32(out, config_magic);
    write_u32(out, format_version);
    write_u64(out, dump.protocol_name.size());
    out.write(dump.protocol_name.data(),
              static_cast<std::streamsize>(dump.protocol_name.size()));
    write_u64(out, dump.state_size);
    write_u64(out, dump.agents);
    out.write(reinterpret_cast<const char*>(dump.states.data()),
              static_cast<std::streamsize>(dump.states.size()));
    require(out.good(), "I/O error while writing " + path);
}

ConfigurationDump load_configuration(const std::string& path) {
    std::ifstream in = open_for_read(path);
    require(read_u32(in) == config_magic, path + " is not a ppsim configuration file");
    require(read_u32(in) == format_version, "unsupported configuration format version");
    ConfigurationDump dump;
    const std::uint64_t name_len = read_u64(in);
    require(name_len < 4096, "implausible protocol name length");
    require(name_len <= bytes_left(in), "truncated configuration header");
    dump.protocol_name.resize(name_len);
    in.read(dump.protocol_name.data(), static_cast<std::streamsize>(name_len));
    dump.state_size = read_u64(in);
    dump.agents = read_u64(in);
    require(dump.state_size > 0 && dump.state_size <= 4096, "implausible state size");
    // Dividing instead of multiplying: agents × state_size may overflow.
    require(dump.agents <= bytes_left(in) / dump.state_size,
            "truncated configuration payload");
    dump.states.resize(dump.agents * dump.state_size);
    in.read(reinterpret_cast<char*>(dump.states.data()),
            static_cast<std::streamsize>(dump.states.size()));
    require(in.good(), "truncated configuration payload");
    return dump;
}

std::uint64_t checkpoint_checksum(std::string_view payload) noexcept {
    constexpr std::uint64_t prime = 0x100000001b3ULL;  // FNV prime
    std::uint64_t h = 0xcbf29ce484222325ULL;           // FNV-1a 64-bit offset basis
    std::size_t i = 0;
    for (; i + 8 <= payload.size(); i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, payload.data() + i, sizeof word);  // host byte order
        h = (h ^ word) * prime;
    }
    for (; i < payload.size(); ++i) {
        h = (h ^ static_cast<std::uint8_t>(payload[i])) * prime;
    }
    return h;
}

void save_checkpoint(const std::string& path, const CheckpointHeader& header,
                     const std::string& payload) {
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
    }
    // Temp-file-plus-rename: a crash mid-write (the very event checkpoints
    // exist for) or a concurrent reader can never observe a torn file.
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<std::uint64_t>(::getpid()));
    {
        std::ofstream out = open_for_write(tmp);
        write_u32(out, checkpoint_magic);
        write_u32(out, checkpoint_format_version);
        write_string(out, library_version);
        write_string(out, cpu_signature());
        write_string(out, header.protocol);
        write_string(out, header.engine);
        write_string(out, header.batch_mode);
        write_u64(out, header.population);
        write_u64(out, header.seed);
        write_u64(out, header.step);
        write_u64(out, payload.size());
        out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        write_u64(out, checkpoint_checksum(payload));
        require(out.good(), "I/O error while writing " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        require(false, "cannot move checkpoint into place at " + path);
    }
}

CheckpointHeader load_checkpoint(const std::string& path, std::string& payload) {
    std::ifstream in = open_for_read(path);
    require(read_u32(in) == checkpoint_magic, path + " is not a ppsim checkpoint file");
    require(read_u32(in) == checkpoint_format_version,
            "unsupported checkpoint format version in " + path);
    require(read_string(in) == library_version,
            "checkpoint " + path + " was written by another library version");
    require(read_string(in) == cpu_signature(),
            "checkpoint " + path +
                " was written on another machine (CPU signature mismatch); "
                "bit-identical resume is only defined on the original machine");
    CheckpointHeader header;
    header.protocol = read_string(in);
    header.engine = read_string(in);
    header.batch_mode = read_string(in);
    header.population = read_u64(in);
    header.seed = read_u64(in);
    header.step = read_u64(in);
    const std::uint64_t payload_size = read_u64(in);
    require(payload_size <= bytes_left(in), "truncated checkpoint payload in " + path);
    payload.resize(payload_size);
    in.read(payload.data(), static_cast<std::streamsize>(payload_size));
    require(in.good() && static_cast<std::uint64_t>(in.gcount()) == payload_size,
            "truncated checkpoint payload in " + path);
    const std::uint64_t stored = read_u64(in);
    require(stored == checkpoint_checksum(payload),
            "checkpoint payload checksum mismatch in " + path +
                " (file corrupted); refusing to resume");
    return header;
}

}  // namespace ppsim
