#include "calibration.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "common.hpp"

namespace ppsim {

namespace {

constexpr std::uint32_t calibration_magic = 0x5050434C;  // "PPCL"
constexpr std::uint32_t calibration_format_version = 3;

void write_u32(std::ofstream& out, std::uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_u64(std::ofstream& out, std::uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_f64(std::ofstream& out, double v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void write_string(std::ofstream& out, std::string_view s) {
    write_u64(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
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

double read_f64(std::ifstream& in) {
    double v = 0.0;
    in.read(reinterpret_cast<char*>(&v), sizeof v);
    require(in.good(), "truncated file while reading payload");
    return v;
}

std::string read_string(std::ifstream& in) {
    const std::uint64_t len = read_u64(in);
    require(len < 4096, "implausible string length");
    std::string s(len, '\0');
    in.read(s.data(), static_cast<std::streamsize>(len));
    require(in.good(), "truncated string payload");
    return s;
}

/// Strict loader: throws on any structural or identity mismatch; the public
/// load_calibration catches and degrades to nullopt (stale cache = re-probe,
/// never an error).
CalibrationTable load_calibration_strict(const std::string& path,
                                         std::string_view protocol) {
    std::ifstream in(path, std::ios::binary);
    require(in.good(), "cannot open " + path + " for reading");
    require(read_u32(in) == calibration_magic, path + " is not a calibration file");
    require(read_u32(in) == calibration_format_version,
            "unsupported calibration format version");
    require(read_string(in) == library_version, "calibration from another library version");
    require(read_string(in) == cpu_signature(), "calibration from another machine");
    require(read_string(in) == protocol, "calibration for another protocol");
    CalibrationTable table;
    table.probe_population = read_u64(in);
    for (ModeCost& cost : table.costs) {
        cost.wide_ns = read_f64(in);
        cost.narrow_ns = read_f64(in);
        cost.wide_exponent = read_f64(in);
        cost.narrow_exponent = read_f64(in);
        require(cost.wide_ns > 0.0 && cost.narrow_ns > 0.0,
                "calibration holds non-positive costs");
        require(std::isfinite(cost.wide_exponent) && std::isfinite(cost.narrow_exponent),
                "calibration holds non-finite exponents");
    }
    return table;
}

/// The ambient options + per-key memo, one mutex for both: option changes
/// and table lookups are rare (per engine construction, never per round).
struct CalibrationRegistry {
    std::mutex mutex;
    HybridOptions options;
    std::map<std::string, CalibrationTable> memo;  ///< key: proto|n_p
};

CalibrationRegistry& registry() {
    static CalibrationRegistry instance;
    return instance;
}

std::string memo_key(const std::string& protocol, std::size_t probe_population) {
    return protocol + "|" + std::to_string(probe_population);
}

}  // namespace

std::string_view to_string(HybridMode mode) noexcept {
    switch (mode) {
        case HybridMode::agent: return "agent";
        case HybridMode::batched_pairwise: return "batched-pairwise";
        case HybridMode::batched_bulk: return "batched-bulk";
        case HybridMode::gillespie: return "gillespie";
    }
    return "unknown";
}

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

std::string default_calibration_dir() {
    if (const char* dir = std::getenv("PPSIM_CALIBRATION_DIR"); dir != nullptr && *dir) {
        return dir;
    }
    if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg != nullptr && *xdg) {
        return std::string(xdg) + "/ppsim";
    }
    if (const char* home = std::getenv("HOME"); home != nullptr && *home) {
        return std::string(home) + "/.cache/ppsim";
    }
    return std::filesystem::temp_directory_path().string() + "/ppsim";
}

std::string calibration_cache_path(std::string_view protocol, std::size_t probe_population,
                                   std::string_view dir) {
    std::string base = dir.empty() ? default_calibration_dir() : std::string(dir);
    std::string name(protocol);
    for (char& c : name) {  // registry names are alnum/underscore; be defensive
        if (c == '/' || c == '\\' || c == '.') c = '_';
    }
    return base + "/calibration-" + name + "-n" + std::to_string(probe_population) +
           ".ppcl";
}

void save_calibration(const std::string& path, std::string_view protocol,
                      const CalibrationTable& table) {
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
    }
    // Temp-file-plus-rename keeps concurrent processes (parallel ctest, racing
    // sweeps) from ever observing a torn table; last writer wins.
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<std::uint64_t>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        require(out.good(), "cannot open " + tmp + " for writing");
        write_u32(out, calibration_magic);
        write_u32(out, calibration_format_version);
        write_string(out, library_version);
        write_string(out, cpu_signature());
        write_string(out, protocol);
        write_u64(out, table.probe_population);
        for (const ModeCost& cost : table.costs) {
            write_f64(out, cost.wide_ns);
            write_f64(out, cost.narrow_ns);
            write_f64(out, cost.wide_exponent);
            write_f64(out, cost.narrow_exponent);
        }
        require(out.good(), "I/O error while writing " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        require(false, "cannot move calibration into place at " + path);
    }
}

std::optional<CalibrationTable> load_calibration(const std::string& path,
                                                 std::string_view protocol) {
    try {
        return load_calibration_strict(path, protocol);
    } catch (const std::exception&) {
        return std::nullopt;  // missing/corrupt/stale cache: caller re-probes
    }
}

void set_hybrid_options(HybridOptions options) {
    CalibrationRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.options = std::move(options);
    reg.memo.clear();
}

HybridOptions hybrid_options() {
    CalibrationRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.options;
}

CalibrationTable calibration_for(const std::string& protocol, std::size_t probe_population,
                                 const std::function<CalibrationTable()>& probe) {
    CalibrationRegistry& reg = registry();
    // Held across the probe on purpose: the first builder pays the probe, a
    // concurrent second builder blocks and then reads the memo — both see
    // the identical table, the same-process determinism contract.
    const std::lock_guard<std::mutex> lock(reg.mutex);
    if (reg.options.injected) return *reg.options.injected;
    const std::string key = memo_key(protocol, probe_population);
    if (const auto it = reg.memo.find(key); it != reg.memo.end()) return it->second;
    const std::string path =
        calibration_cache_path(protocol, probe_population, reg.options.cache_dir);
    if (!reg.options.recalibrate) {
        if (std::optional<CalibrationTable> cached = load_calibration(path, protocol)) {
            reg.memo.emplace(key, *cached);
            return *cached;
        }
    }
    const CalibrationTable probed = probe();
    try {
        save_calibration(path, protocol, probed);
    } catch (const std::exception&) {
        // Best-effort: an unwritable cache dir degrades to per-process
        // probing, never to a failed run.
    }
    reg.memo.emplace(key, probed);
    return probed;
}

}  // namespace ppsim
