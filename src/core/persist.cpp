#include "persist.hpp"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace ppsim {

namespace {

constexpr std::uint32_t checkpoint_magic = 0x5050434B;  // "PPCK"
constexpr std::uint32_t checkpoint_format_version = 6;

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
/// Computed once per process: every checkpoint save and load asks for it,
/// and each read of /proc/cpuinfo costs tens of microseconds.
const std::string& cpu_signature() {
    static const std::string signature = [] {
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
    }();
    return signature;
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
