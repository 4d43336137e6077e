// Checkpoint payload compression.
//
// The paper's conclusion plans to complement weight transfer with efficient
// DNN checkpointing; its related-work section cites quantisation-based
// compression (Check-N-Run) and error-bounded lossy compression (DeepSZ).
// This module implements the corresponding codecs for our checkpoints:
//
//   kNone    - raw float32 (4 B/value), bit-exact.
//   kFp16    - IEEE-754 binary16 (2 B/value), ~2^-11 relative error.
//   kQuant8  - per-tensor linear quantisation to uint8 (1 B/value + 8 B of
//              scale/offset per tensor), absolute error <= range/510.
//
// Lossy codecs are safe for weight transfer because transferred weights are
// only an *initialisation*: training immediately refines them, so small
// perturbations cost at most a few optimizer steps (bench_ablation_compression
// measures exactly that trade-off).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"

namespace swt {

enum class CompressionKind : std::uint8_t { kNone = 0, kFp16 = 1, kQuant8 = 2 };

[[nodiscard]] const char* to_string(CompressionKind k) noexcept;
/// Inverse of to_string.
[[nodiscard]] std::optional<CompressionKind> parse_compression(std::string_view name) noexcept;

/// IEEE-754 binary16 conversions (round-to-nearest-even on encode).
[[nodiscard]] std::uint16_t float_to_half(float f) noexcept;
[[nodiscard]] float half_to_float(std::uint16_t h) noexcept;

/// Encode a tensor's values under `kind`; the layout is self-contained
/// (quantisation parameters included) and decodable with decode_values.
/// Non-finite inputs are handled deterministically: kNone round-trips them
/// bit-exactly, kFp16 keeps Inf/NaN natively, and kQuant8 computes its
/// range over finite values only and saturates +Inf to the top bin and
/// NaN/-Inf to the bottom bin.
[[nodiscard]] std::vector<std::byte> encode_values(std::span<const float> values,
                                                   CompressionKind kind);

/// Decode exactly `count` values previously produced by encode_values.
/// Throws std::runtime_error on malformed input.
[[nodiscard]] std::vector<float> decode_values(std::span<const std::byte> bytes,
                                               std::size_t count, CompressionKind kind);

/// Worst-case absolute reconstruction error for values in [-max_abs, max_abs].
/// Non-finite `max_abs` yields +infinity for the lossy kinds (no finite
/// bound exists) and 0 for kNone (bit-exact regardless).
[[nodiscard]] double max_abs_error_bound(CompressionKind kind, double max_abs) noexcept;

/// Encoded payload size for `count` values.
[[nodiscard]] std::size_t encoded_size(CompressionKind kind, std::size_t count) noexcept;

}  // namespace swt
