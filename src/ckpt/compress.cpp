#include "ckpt/compress.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace swt {

const char* to_string(CompressionKind k) noexcept {
  switch (k) {
    case CompressionKind::kNone: return "none";
    case CompressionKind::kFp16: return "fp16";
    case CompressionKind::kQuant8: return "quant8";
  }
  return "?";
}

std::optional<CompressionKind> parse_compression(std::string_view name) noexcept {
  for (const CompressionKind k :
       {CompressionKind::kNone, CompressionKind::kFp16, CompressionKind::kQuant8})
    if (name == to_string(k)) return k;
  return std::nullopt;
}

std::uint16_t float_to_half(float f) noexcept {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::int32_t exponent = static_cast<std::int32_t>((bits >> 23) & 0xFF) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7FFFFFu;

  if (((bits >> 23) & 0xFF) == 0xFF) {
    // Inf / NaN.
    return static_cast<std::uint16_t>(sign | 0x7C00u | (mantissa ? 0x200u : 0u));
  }
  if (exponent >= 0x1F) {
    // Overflow to infinity.
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exponent <= 0) {
    // Subnormal or underflow to zero.
    if (exponent < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x800000u;  // implicit leading 1
    const int shift = 14 - exponent;
    std::uint32_t half_mantissa = mantissa >> shift;
    // Round to nearest even.
    const std::uint32_t remainder = mantissa & ((1u << shift) - 1);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (remainder > halfway || (remainder == halfway && (half_mantissa & 1)))
      ++half_mantissa;
    return static_cast<std::uint16_t>(sign | half_mantissa);
  }
  std::uint32_t half = sign | (static_cast<std::uint32_t>(exponent) << 10) | (mantissa >> 13);
  // Round to nearest even on the 13 dropped bits.
  const std::uint32_t remainder = mantissa & 0x1FFFu;
  if (remainder > 0x1000u || (remainder == 0x1000u && (half & 1))) ++half;
  return static_cast<std::uint16_t>(half);
}

float half_to_float(std::uint16_t h) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exponent = (h >> 10) & 0x1Fu;
  std::uint32_t mantissa = h & 0x3FFu;
  std::uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // signed zero
    } else {
      // Subnormal: normalise.
      int e = -1;
      do {
        ++e;
        mantissa <<= 1;
      } while ((mantissa & 0x400u) == 0);
      mantissa &= 0x3FFu;
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) | (mantissa << 13);
    }
  } else if (exponent == 0x1F) {
    bits = sign | 0x7F800000u | (mantissa << 13);  // Inf / NaN
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(bits);
}

std::size_t encoded_size(CompressionKind kind, std::size_t count) noexcept {
  switch (kind) {
    case CompressionKind::kNone: return count * sizeof(float);
    case CompressionKind::kFp16: return count * sizeof(std::uint16_t);
    case CompressionKind::kQuant8: return 2 * sizeof(float) + count;  // scale, lo, bytes
  }
  return 0;
}

double max_abs_error_bound(CompressionKind kind, double max_abs) noexcept {
  // kNone is a bit-exact memcpy, so its bound is 0 even for NaN/Inf inputs.
  // The lossy codecs saturate non-finite values deterministically (fp16
  // keeps Inf/NaN natively; quant8 pins them to the range endpoints), so no
  // finite bound exists once max_abs itself is non-finite.
  if (!std::isfinite(max_abs) && kind != CompressionKind::kNone)
    return std::numeric_limits<double>::infinity();
  switch (kind) {
    case CompressionKind::kNone: return 0.0;
    case CompressionKind::kFp16: return max_abs * 0x1.0p-11 + 1e-24;  // half ulp at value
    case CompressionKind::kQuant8: return (2.0 * max_abs) / 255.0 * 0.5 + 1e-12;
  }
  return 0.0;
}

std::vector<std::byte> encode_values(std::span<const float> values, CompressionKind kind) {
  std::vector<std::byte> out(encoded_size(kind, values.size()));
  switch (kind) {
    case CompressionKind::kNone: {
      std::memcpy(out.data(), values.data(), out.size());
      return out;
    }
    case CompressionKind::kFp16: {
      auto* dst = reinterpret_cast<std::uint16_t*>(out.data());
      for (std::size_t i = 0; i < values.size(); ++i) dst[i] = float_to_half(values[i]);
      return out;
    }
    case CompressionKind::kQuant8: {
      // The quantisation range is computed over *finite* values only: one
      // stray NaN or Inf must not poison lo/hi (NaN propagates through
      // min/max, and an Inf range makes scale Inf) and silently turn the
      // whole tensor into garbage.  Non-finite values saturate
      // deterministically instead: NaN and -Inf to bin 0, +Inf to bin 255.
      float lo = 0.0f, hi = 0.0f;
      bool any_finite = false;
      for (float v : values) {
        if (!std::isfinite(v)) continue;
        if (!any_finite) {
          lo = hi = v;
          any_finite = true;
        } else {
          lo = std::min(lo, v);
          hi = std::max(hi, v);
        }
      }
      const float range = hi - lo;
      const float scale = range > 0.0f ? range / 255.0f : 1.0f;
      std::memcpy(out.data(), &scale, sizeof scale);
      std::memcpy(out.data() + sizeof scale, &lo, sizeof lo);
      auto* dst = reinterpret_cast<std::uint8_t*>(out.data() + 2 * sizeof(float));
      // In the degenerate range (constant or no finite values, lo == hi and
      // scale falls back to 1) only bin 0 decodes to hi, so saturating +Inf
      // to bin 255 there would decode to lo + 255 instead of the endpoint.
      const std::uint8_t hi_bin = range > 0.0f ? 255 : 0;
      for (std::size_t i = 0; i < values.size(); ++i) {
        const float v = values[i];
        if (!std::isfinite(v)) {
          dst[i] = v > 0.0f ? hi_bin : 0;  // +Inf high, NaN and -Inf low
          continue;
        }
        const float q = std::round((v - lo) / scale);
        dst[i] = static_cast<std::uint8_t>(std::clamp(q, 0.0f, 255.0f));
      }
      return out;
    }
  }
  throw std::logic_error("encode_values: unknown compression kind");
}

std::vector<float> decode_values(std::span<const std::byte> bytes, std::size_t count,
                                 CompressionKind kind) {
  if (bytes.size() != encoded_size(kind, count))
    throw std::runtime_error("decode_values: payload size mismatch");
  std::vector<float> out(count);
  switch (kind) {
    case CompressionKind::kNone: {
      std::memcpy(out.data(), bytes.data(), bytes.size());
      return out;
    }
    case CompressionKind::kFp16: {
      const auto* src = reinterpret_cast<const std::uint16_t*>(bytes.data());
      for (std::size_t i = 0; i < count; ++i) out[i] = half_to_float(src[i]);
      return out;
    }
    case CompressionKind::kQuant8: {
      float scale = 0.0f, lo = 0.0f;
      std::memcpy(&scale, bytes.data(), sizeof scale);
      std::memcpy(&lo, bytes.data() + sizeof scale, sizeof lo);
      const auto* src = reinterpret_cast<const std::uint8_t*>(bytes.data() + 2 * sizeof(float));
      for (std::size_t i = 0; i < count; ++i)
        out[i] = lo + scale * static_cast<float>(src[i]);
      return out;
    }
  }
  throw std::logic_error("decode_values: unknown compression kind");
}

}  // namespace swt
