// Full-consumption numeric parsing for CLI flags.
//
// std::stol / std::stod accept "7abc" and abort the whole process with an
// uncaught std::invalid_argument on "abc" — both wrong for a command line.
// These helpers follow the parse_thread_count contract (tensor/kernels.hpp):
// the entire token must be one number (trailing whitespace tolerated,
// anything else rejected), and failure is an empty optional the caller can
// turn into a proper usage error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace swt {

/// Signed integer; rejects empty input, non-numeric input, trailing
/// garbage, and values outside the long range (ERANGE).
[[nodiscard]] std::optional<long> parse_long(const std::string& text);

/// parse_long narrowed to int; rejects values outside the int range.
[[nodiscard]] std::optional<int> parse_int(const std::string& text);

/// Unsigned 64-bit; additionally rejects a leading '-' (strtoull would
/// silently wrap it).
[[nodiscard]] std::optional<std::uint64_t> parse_u64(const std::string& text);

/// A mebibyte count (parse_u64) converted to bytes; rejects counts whose
/// byte value would not fit in std::size_t (above SIZE_MAX >> 20) instead
/// of letting the multiplication wrap.
[[nodiscard]] std::optional<std::size_t> parse_mib(const std::string& text);

/// Finite double (rejects overflowing input and explicit "inf"/"nan": no
/// CLI knob here means infinity).
[[nodiscard]] std::optional<double> parse_double(const std::string& text);

}  // namespace swt
