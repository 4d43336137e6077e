// LP and LCS matching (Section IV-A).
//
// Both heuristics return index pairs (provider_index, receiver_index) of
// identical tokens, strictly increasing in both coordinates:
//
//   LP  — longest common prefix: match tokens position-by-position from the
//         front until the first mismatch.  O(min(n, m)).  Motivated by the
//         transferability of early layers (Yosinski et al.).
//   LCS — longest common subsequence via Wagner-Fischer dynamic programming,
//         O(nm); handles layer insertions/deletions between provider and
//         receiver, so LCS always matches at least as many tokens as LP.
//
// Tokens come in two granularities (see shape_seq.hpp): raw tensor shapes
// (ShapeSeq) and per-layer signatures (SigSeq, the paper's granularity).
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/shape_seq.hpp"

namespace swt {

enum class TransferMode { kNone, kLP, kLCS };

[[nodiscard]] const char* to_string(TransferMode m) noexcept;
/// Inverse of to_string, ignoring case ("lcs" and "LCS" both name kLCS).
[[nodiscard]] std::optional<TransferMode> parse_transfer_mode(std::string_view name) noexcept;

using MatchPairs = std::vector<std::pair<std::size_t, std::size_t>>;

[[nodiscard]] MatchPairs lp_match(const ShapeSeq& provider, const ShapeSeq& receiver);
[[nodiscard]] MatchPairs lp_match(const SigSeq& provider, const SigSeq& receiver);

/// When several LCS alignments exist, the backtrack prefers diagonal moves
/// (earliest consistent matches), giving a canonical deterministic alignment.
[[nodiscard]] MatchPairs lcs_match(const ShapeSeq& provider, const ShapeSeq& receiver);
[[nodiscard]] MatchPairs lcs_match(const SigSeq& provider, const SigSeq& receiver);

/// Dispatch on mode; kNone returns an empty match.
[[nodiscard]] MatchPairs match(TransferMode mode, const ShapeSeq& provider,
                               const ShapeSeq& receiver);
[[nodiscard]] MatchPairs match(TransferMode mode, const SigSeq& provider,
                               const SigSeq& receiver);

}  // namespace swt
