#include "common/parse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace swt {

namespace {

/// Advance past trailing whitespace; the token is fully consumed iff the
/// remainder is empty.
[[nodiscard]] bool fully_consumed(const char* end) {
  while (*end == ' ' || *end == '\t' || *end == '\n' || *end == '\r') ++end;
  return *end == '\0';
}

}  // namespace

std::optional<long> parse_long(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long n = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || !fully_consumed(end) || errno == ERANGE) return std::nullopt;
  return n;
}

std::optional<int> parse_int(const std::string& text) {
  const std::optional<long> n = parse_long(text);
  if (!n.has_value() || *n < std::numeric_limits<int>::min() ||
      *n > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(*n);
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  // strtoull accepts "-1" and wraps it to 2^64-1; a negative sign anywhere
  // before the digits is a rejection here.
  for (char c : text) {
    if (c == ' ' || c == '\t') continue;
    if (c == '-') return std::nullopt;
    break;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || !fully_consumed(end) || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(n);
}

std::optional<std::size_t> parse_mib(const std::string& text) {
  const std::optional<std::uint64_t> mib = parse_u64(text);
  if (!mib.has_value() || *mib > (std::numeric_limits<std::size_t>::max() >> 20))
    return std::nullopt;
  return static_cast<std::size_t>(*mib) << 20;
}

std::optional<double> parse_double(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !fully_consumed(end) || errno == ERANGE) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace swt
