/// \file args.hpp
/// \brief Minimal command-line flag parser for the tools and examples.
///
/// Supports `--name value`, `--name=value` and boolean `--flag` forms, plus
/// typed accessors with defaults and a rendered usage string. Flags may
/// repeat: the typed getters read the last occurrence, `get_strings`
/// returns them all (how `--inject` accumulates a fault plan). Deliberately
/// tiny: no subcommands, no dependency.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"

namespace ppsim {

/// Parsed command-line flags.
class ArgParser {
public:
    /// Declares a flag with a help line and optional default (shown in usage).
    void declare(const std::string& name, const std::string& help,
                 const std::string& default_value = "") {
        declared_.push_back(Declared{name, help, default_value});
    }

    /// Parses argv; throws InvalidArgument on unknown or malformed flags.
    void parse(int argc, const char* const* argv) {
        for (int i = 1; i < argc; ++i) {
            std::string token = argv[i];
            require(token.size() > 2 && token.starts_with("--"),
                    "unexpected argument: " + token + " (flags are --name value)");
            token.erase(0, 2);
            std::string value;
            if (const std::size_t eq = token.find('='); eq != std::string::npos) {
                value = token.substr(eq + 1);
                token.erase(eq);
            } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                value = argv[++i];
            } else {
                value = "true";  // bare boolean flag
            }
            require(is_declared(token), "unknown flag: --" + token);
            values_[token].push_back(value);
        }
    }

    [[nodiscard]] bool has(const std::string& name) const {
        return values_.contains(name);
    }

    /// The names of the flags on the command line, each once, in name order.
    [[nodiscard]] std::vector<std::string> given() const {
        std::vector<std::string> names;
        for (const auto& entry : values_) names.push_back(entry.first);
        return names;
    }

    [[nodiscard]] std::string get_string(const std::string& name,
                                         const std::string& fallback) const {
        const auto it = values_.find(name);
        return it == values_.end() ? fallback : it->second.back();
    }

    /// Every value a repeatable flag was given, in command-line order
    /// (empty when the flag is absent). `--inject a --inject b` → {a, b}.
    [[nodiscard]] std::vector<std::string> get_strings(const std::string& name) const {
        const auto it = values_.find(name);
        return it == values_.end() ? std::vector<std::string>{} : it->second;
    }

    /// The whole value must be an unsigned decimal integer: a sign, a
    /// fraction or trailing characters throw InvalidArgument naming the flag.
    [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                        std::uint64_t fallback) const {
        const auto it = values_.find(name);
        if (it == values_.end()) return fallback;
        const std::optional<std::uint64_t> value = parse_u64(it->second.back());
        if (!value) {
            throw InvalidArgument("flag --" + name + " expects an unsigned integer, got '" +
                                  it->second.back() + "'");
        }
        return *value;
    }

    /// The whole value must be a finite number; anything else throws
    /// InvalidArgument naming the flag.
    [[nodiscard]] double get_double(const std::string& name, double fallback) const {
        const auto it = values_.find(name);
        if (it == values_.end()) return fallback;
        const std::optional<double> value = parse_double(it->second.back());
        if (!value) {
            throw InvalidArgument("flag --" + name + " expects a number, got '" +
                                  it->second.back() + "'");
        }
        return *value;
    }

    [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const {
        const auto it = values_.find(name);
        if (it == values_.end()) return fallback;
        return it->second.back() == "true" || it->second.back() == "1" ||
               it->second.back() == "yes";
    }

    /// Usage text assembled from the declared flags.
    [[nodiscard]] std::string usage(const std::string& program) const {
        std::ostringstream out;
        out << "usage: " << program << " [flags]\n";
        for (const Declared& d : declared_) {
            out << "  --" << d.name;
            if (!d.default_value.empty()) out << " (default: " << d.default_value << ")";
            out << "\n      " << d.help << "\n";
        }
        return out.str();
    }

private:
    struct Declared {
        std::string name;
        std::string help;
        std::string default_value;
    };

    [[nodiscard]] bool is_declared(const std::string& name) const {
        for (const Declared& d : declared_) {
            if (d.name == name) return true;
        }
        return false;
    }

    std::vector<Declared> declared_;
    std::map<std::string, std::vector<std::string>> values_;  ///< flags repeat
};

}  // namespace ppsim
