#include "core/match.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace swt {

const char* to_string(TransferMode m) noexcept {
  switch (m) {
    case TransferMode::kNone: return "baseline";
    case TransferMode::kLP: return "LP";
    case TransferMode::kLCS: return "LCS";
  }
  return "?";
}

std::optional<TransferMode> parse_transfer_mode(std::string_view name) noexcept {
  const auto same = [](char a, char b) {
    return std::tolower(static_cast<unsigned char>(a)) ==
           std::tolower(static_cast<unsigned char>(b));
  };
  for (const TransferMode m : {TransferMode::kNone, TransferMode::kLP, TransferMode::kLCS})
    if (std::ranges::equal(name, std::string_view(to_string(m)), same)) return m;
  return std::nullopt;
}

namespace {

template <typename Token>
MatchPairs lp_match_impl(const std::vector<Token>& provider,
                         const std::vector<Token>& receiver) {
  MatchPairs pairs;
  const std::size_t n = std::min(provider.size(), receiver.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(provider[i] == receiver[i])) break;
    pairs.emplace_back(i, i);
  }
  return pairs;
}

template <typename Token>
MatchPairs lcs_match_impl(const std::vector<Token>& provider,
                          const std::vector<Token>& receiver) {
  const std::size_t n = provider.size();
  const std::size_t m = receiver.size();
  if (n == 0 || m == 0) return {};

  // Wagner-Fischer DP table of LCS lengths; (n+1) x (m+1).
  std::vector<std::uint32_t> dp((n + 1) * (m + 1), 0);
  const auto at = [m](std::size_t i, std::size_t j) { return i * (m + 1) + j; };
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      if (provider[i - 1] == receiver[j - 1])
        dp[at(i, j)] = dp[at(i - 1, j - 1)] + 1;
      else
        dp[at(i, j)] = std::max(dp[at(i - 1, j)], dp[at(i, j - 1)]);
    }
  }

  // Backtrack, preferring diagonal moves for a canonical alignment.
  MatchPairs pairs;
  pairs.reserve(dp[at(n, m)]);
  std::size_t i = n, j = m;
  while (i > 0 && j > 0) {
    if (provider[i - 1] == receiver[j - 1] && dp[at(i, j)] == dp[at(i - 1, j - 1)] + 1) {
      pairs.emplace_back(i - 1, j - 1);
      --i;
      --j;
    } else if (dp[at(i - 1, j)] >= dp[at(i, j - 1)]) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(pairs.begin(), pairs.end());
  return pairs;
}

template <typename Token>
MatchPairs match_impl(TransferMode mode, const std::vector<Token>& provider,
                      const std::vector<Token>& receiver) {
  switch (mode) {
    case TransferMode::kNone: return {};
    case TransferMode::kLP: return lp_match_impl(provider, receiver);
    case TransferMode::kLCS: return lcs_match_impl(provider, receiver);
  }
  throw std::logic_error("match: unknown transfer mode");
}

}  // namespace

MatchPairs lp_match(const ShapeSeq& provider, const ShapeSeq& receiver) {
  return lp_match_impl(provider, receiver);
}
MatchPairs lp_match(const SigSeq& provider, const SigSeq& receiver) {
  return lp_match_impl(provider, receiver);
}
MatchPairs lcs_match(const ShapeSeq& provider, const ShapeSeq& receiver) {
  return lcs_match_impl(provider, receiver);
}
MatchPairs lcs_match(const SigSeq& provider, const SigSeq& receiver) {
  return lcs_match_impl(provider, receiver);
}
MatchPairs match(TransferMode mode, const ShapeSeq& provider, const ShapeSeq& receiver) {
  return match_impl(mode, provider, receiver);
}
MatchPairs match(TransferMode mode, const SigSeq& provider, const SigSeq& receiver) {
  return match_impl(mode, provider, receiver);
}

}  // namespace swt
