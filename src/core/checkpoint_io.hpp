/// \file checkpoint_io.hpp
/// \brief In-memory byte-buffer writer/reader for checkpoint payloads.
///
/// A checkpoint (persist.hpp, the "PPCK" container) is a validated header
/// plus one opaque payload: the engine, run-layer and observer state,
/// serialised by templated code in the engine headers. That code cannot
/// live in persist.cpp (it is templated over the protocol), so it writes
/// through this small fixed vocabulary instead — little-endian scalars,
/// length-prefixed strings, raw byte blocks for trivially-copyable protocol
/// states.
///
/// The payload is buffered in memory rather than streamed so the container
/// writer can checksum it (bit-flip detection) and length-prefix it
/// (truncation detection) before anything touches the disk, and so a resume
/// validates the whole container before mutating any engine — a bad file
/// must fail cleanly, never leave a half-restored simulation.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common.hpp"

namespace ppsim {

/// Accumulates a checkpoint payload in memory. All scalars are written in
/// the host's (little-endian) byte order — checkpoint files are already
/// machine-pinned by the container's CPU-signature check.
class CheckpointWriter {
public:
    void u8(std::uint8_t v) { raw(&v, sizeof v); }
    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /// Length-prefixed string.
    void str(std::string_view s) {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /// Optional u64: presence flag + value.
    void opt_u64(const std::optional<std::uint64_t>& v) {
        boolean(v.has_value());
        if (v) u64(*v);
    }

    /// Raw object bytes of a trivially-copyable value (protocol states).
    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void pod(const T& v) {
        raw(&v, sizeof v);
    }

    void raw(const void* data, std::size_t size) {
        buffer_.append(static_cast<const char*>(data), size);
    }

    [[nodiscard]] const std::string& buffer() const noexcept { return buffer_; }
    [[nodiscard]] std::string take() noexcept { return std::move(buffer_); }

private:
    std::string buffer_;
};

/// Reads a payload produced by CheckpointWriter. Every read bounds-checks
/// against the buffer — a short or desynchronised payload throws
/// InvalidArgument instead of reading garbage.
class CheckpointReader {
public:
    explicit CheckpointReader(std::string buffer) : buffer_(std::move(buffer)) {}

    [[nodiscard]] std::uint8_t u8() { return scalar<std::uint8_t>(); }
    [[nodiscard]] std::uint32_t u32() { return scalar<std::uint32_t>(); }
    [[nodiscard]] std::uint64_t u64() { return scalar<std::uint64_t>(); }
    [[nodiscard]] double f64() { return scalar<double>(); }
    [[nodiscard]] bool boolean() { return u8() != 0; }

    [[nodiscard]] std::string str() {
        const std::uint64_t len = u64();
        require(len <= remaining(), "truncated checkpoint payload: string overruns buffer");
        std::string s(buffer_.data() + offset_, len);
        offset_ += len;
        return s;
    }

    [[nodiscard]] std::optional<std::uint64_t> opt_u64() {
        if (!boolean()) return std::nullopt;
        return u64();
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    [[nodiscard]] T pod() {
        return scalar<T>();
    }

    void raw(void* data, std::size_t size) {
        require(size <= remaining(), "truncated checkpoint payload");
        std::memcpy(data, buffer_.data() + offset_, size);
        offset_ += size;
    }

    [[nodiscard]] std::size_t remaining() const noexcept {
        return buffer_.size() - offset_;
    }

    /// Restores must consume the payload exactly: trailing bytes mean the
    /// reader and writer disagree about the format — fail loudly.
    void expect_end() const {
        require(remaining() == 0,
                "checkpoint payload has " + std::to_string(remaining()) +
                    " unconsumed bytes: reader/writer format mismatch");
    }

private:
    template <typename T>
    [[nodiscard]] T scalar() {
        T v{};
        raw(&v, sizeof v);
        return v;
    }

    std::string buffer_;
    std::size_t offset_ = 0;
};

}  // namespace ppsim
