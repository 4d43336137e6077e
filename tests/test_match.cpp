// Properties of the LP and LCS shape-sequence matchers (Section IV).
#include "core/match.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace swt {
namespace {

ShapeSeq seq(std::initializer_list<int> tokens) {
  // Encode scalar tokens as rank-1 shapes for compact test construction.
  ShapeSeq s;
  for (int t : tokens) s.push_back(Shape{t});
  return s;
}

TEST(Lp, EmptySequences) {
  EXPECT_TRUE(lp_match(ShapeSeq{}, ShapeSeq{}).empty());
  EXPECT_TRUE(lp_match(seq({1, 2}), ShapeSeq{}).empty());
  EXPECT_TRUE(lp_match(ShapeSeq{}, seq({1})).empty());
}

TEST(Lp, FullMatchOnIdenticalSequences) {
  const ShapeSeq s = seq({1, 2, 3, 4});
  const MatchPairs m = lp_match(s, s);
  ASSERT_EQ(m.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(m[i].first, i);
    EXPECT_EQ(m[i].second, i);
  }
}

TEST(Lp, StopsAtFirstMismatch) {
  const MatchPairs m = lp_match(seq({1, 2, 9, 4}), seq({1, 2, 3, 4}));
  EXPECT_EQ(m.size(), 2u);  // the trailing common 4 is NOT matched by LP
}

TEST(Lp, BoundedByShorterSequence) {
  EXPECT_EQ(lp_match(seq({1, 2, 3, 4, 5}), seq({1, 2})).size(), 2u);
}

TEST(Lp, NoMatchOnDifferentFirstToken) {
  EXPECT_TRUE(lp_match(seq({7, 2}), seq({1, 2})).empty());
}

TEST(Lcs, EmptySequences) {
  EXPECT_TRUE(lcs_match(ShapeSeq{}, ShapeSeq{}).empty());
  EXPECT_TRUE(lcs_match(seq({1}), ShapeSeq{}).empty());
}

TEST(Lcs, FullMatchOnIdenticalSequences) {
  const ShapeSeq s = seq({5, 6, 7});
  EXPECT_EQ(lcs_match(s, s).size(), 3u);
}

TEST(Lcs, HandlesInsertion) {
  // Receiver has one extra token in the middle (the paper's Fig. 3 case).
  const MatchPairs m = lcs_match(seq({1, 2, 4}), seq({1, 2, 3, 4}));
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[2], (std::pair<std::size_t, std::size_t>{2, 3}));
}

TEST(Lcs, HandlesDeletion) {
  const MatchPairs m = lcs_match(seq({1, 2, 3, 4}), seq({1, 4}));
  EXPECT_EQ(m.size(), 2u);
}

TEST(Lcs, ClassicTextbookCase) {
  // LCS("ABCBDAB", "BDCABA") has length 4.
  const auto a = seq({'A', 'B', 'C', 'B', 'D', 'A', 'B'});
  const auto b = seq({'B', 'D', 'C', 'A', 'B', 'A'});
  EXPECT_EQ(lcs_match(a, b).size(), 4u);
}

TEST(Lcs, MatchedPairsHaveEqualShapes) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    ShapeSeq a, b;
    for (int i = 0; i < 12; ++i) a.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(4))});
    for (int i = 0; i < 12; ++i) b.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(4))});
    for (const auto& [i, j] : lcs_match(a, b)) EXPECT_EQ(a[i], b[j]);
  }
}

TEST(Lcs, IndicesStrictlyIncreaseInBothCoordinates) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    ShapeSeq a, b;
    for (int i = 0; i < 15; ++i) a.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
    for (int i = 0; i < 10; ++i) b.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
    const MatchPairs m = lcs_match(a, b);
    for (std::size_t k = 1; k < m.size(); ++k) {
      EXPECT_LT(m[k - 1].first, m[k].first);
      EXPECT_LT(m[k - 1].second, m[k].second);
    }
  }
}

TEST(Lcs, IsDeterministic) {
  Rng rng(3);
  ShapeSeq a, b;
  for (int i = 0; i < 20; ++i) {
    a.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
    b.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
  }
  EXPECT_EQ(lcs_match(a, b), lcs_match(a, b));
}

TEST(LpVsLcs, LpIsNeverLongerThanLcs) {
  // "LP is a subset of LCS, therefore LCS will always transfer at least as
  // many tensors as LP" (Section IV-A).
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    ShapeSeq a, b;
    const std::size_t la = 1 + rng.uniform_index(15);
    const std::size_t lb = 1 + rng.uniform_index(15);
    for (std::size_t i = 0; i < la; ++i)
      a.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(4))});
    for (std::size_t i = 0; i < lb; ++i)
      b.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(4))});
    EXPECT_LE(lp_match(a, b).size(), lcs_match(a, b).size());
  }
}

TEST(LpVsLcs, LpPairsAreAPrefixDiagonal) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    ShapeSeq a, b;
    for (int i = 0; i < 10; ++i) {
      a.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
      b.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
    }
    const MatchPairs lp = lp_match(a, b);
    for (std::size_t k = 0; k < lp.size(); ++k) {
      EXPECT_EQ(lp[k].first, k);
      EXPECT_EQ(lp[k].second, k);
    }
  }
}

TEST(Lcs, SymmetricInLength) {
  Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    ShapeSeq a, b;
    for (int i = 0; i < 12; ++i) {
      a.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
      b.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
    }
    EXPECT_EQ(lcs_match(a, b).size(), lcs_match(b, a).size());
  }
}

/// Reference LCS length by simple recursion with memoisation.
std::size_t lcs_len_reference(const ShapeSeq& a, const ShapeSeq& b) {
  std::vector<std::vector<std::size_t>> memo(a.size() + 1,
                                             std::vector<std::size_t>(b.size() + 1, 0));
  for (std::size_t i = 1; i <= a.size(); ++i)
    for (std::size_t j = 1; j <= b.size(); ++j)
      memo[i][j] = a[i - 1] == b[j - 1]
                       ? memo[i - 1][j - 1] + 1
                       : std::max(memo[i - 1][j], memo[i][j - 1]);
  return memo[a.size()][b.size()];
}

class LcsRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LcsRandomSweep, MatchesReferenceLength) {
  Rng rng(GetParam());
  ShapeSeq a, b;
  const std::size_t la = 1 + rng.uniform_index(20);
  const std::size_t lb = 1 + rng.uniform_index(20);
  for (std::size_t i = 0; i < la; ++i)
    a.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
  for (std::size_t i = 0; i < lb; ++i)
    b.push_back(Shape{static_cast<std::int64_t>(rng.uniform_index(3))});
  EXPECT_EQ(lcs_match(a, b).size(), lcs_len_reference(a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LcsRandomSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(Match, DispatchesOnMode) {
  const ShapeSeq a = seq({1, 9, 2});
  const ShapeSeq b = seq({1, 2});
  EXPECT_TRUE(match(TransferMode::kNone, a, b).empty());
  EXPECT_EQ(match(TransferMode::kLP, a, b).size(), 1u);
  EXPECT_EQ(match(TransferMode::kLCS, a, b).size(), 2u);
}

TEST(Match, ModeNames) {
  EXPECT_STREQ(to_string(TransferMode::kNone), "baseline");
  EXPECT_STREQ(to_string(TransferMode::kLP), "LP");
  EXPECT_STREQ(to_string(TransferMode::kLCS), "LCS");
}

TEST(Match, ParseModeNamesIgnoringCase) {
  for (const TransferMode m : {TransferMode::kNone, TransferMode::kLP, TransferMode::kLCS})
    EXPECT_EQ(parse_transfer_mode(to_string(m)), m);
  EXPECT_EQ(parse_transfer_mode("lp"), TransferMode::kLP);    // nas_cli's spelling
  EXPECT_EQ(parse_transfer_mode("lcs"), TransferMode::kLCS);
  EXPECT_FALSE(parse_transfer_mode("").has_value());
  EXPECT_FALSE(parse_transfer_mode("lcs ").has_value());
  EXPECT_FALSE(parse_transfer_mode("none").has_value());
}

TEST(Match, MultiDimensionalShapeTokens) {
  ShapeSeq a = {Shape{3, 3, 1, 4}, Shape{4}, Shape{64, 10}};
  ShapeSeq b = {Shape{3, 3, 1, 4}, Shape{4}, Shape{128, 10}};
  EXPECT_EQ(lp_match(a, b).size(), 2u);
  // (64,10) != (128,10): identical rank, different extent.
  EXPECT_EQ(lcs_match(a, b).size(), 2u);
}

}  // namespace
}  // namespace swt
