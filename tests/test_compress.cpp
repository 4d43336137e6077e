#include "ckpt/compress.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ckpt/store.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"

namespace swt {
namespace {

TEST(Half, RoundTripsExactValues) {
  // Values exactly representable in binary16 must round-trip bit-exactly.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 0.25f, -0.375f, 1024.0f, 65504.0f})
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
}

TEST(Half, SignedZeroAndInfinity) {
  EXPECT_EQ(float_to_half(0.0f), 0x0000);
  EXPECT_EQ(float_to_half(-0.0f), 0x8000);
  EXPECT_EQ(half_to_float(0x7C00), std::numeric_limits<float>::infinity());
  EXPECT_EQ(half_to_float(0xFC00), -std::numeric_limits<float>::infinity());
  EXPECT_EQ(float_to_half(1e10f), 0x7C00);  // overflow -> +inf
}

TEST(Half, NanPropagates) {
  const float nan = std::nanf("");
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(nan))));
}

TEST(Half, SubnormalsSurvive) {
  // Smallest binary16 subnormal is 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(half_to_float(float_to_half(tiny)), tiny);
  // Below half the smallest subnormal flushes to zero.
  EXPECT_EQ(half_to_float(float_to_half(std::ldexp(1.0f, -26))), 0.0f);
}

TEST(Half, RelativeErrorBounded) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.gaussian(0.0, 1.0));
    const float back = half_to_float(float_to_half(v));
    EXPECT_LE(std::fabs(back - v), std::fabs(v) * 0x1.0p-10 + 1e-24f) << v;
  }
}

TEST(EncodedSize, MatchesKinds) {
  EXPECT_EQ(encoded_size(CompressionKind::kNone, 100), 400u);
  EXPECT_EQ(encoded_size(CompressionKind::kFp16, 100), 200u);
  EXPECT_EQ(encoded_size(CompressionKind::kQuant8, 100), 108u);
  EXPECT_EQ(encoded_size(CompressionKind::kNone, 0), 0u);
}

TEST(EncodeDecode, NoneIsBitExact) {
  Rng rng(2);
  std::vector<float> values(513);
  for (auto& v : values) v = static_cast<float>(rng.gaussian(0.0, 3.0));
  const auto bytes = encode_values(values, CompressionKind::kNone);
  EXPECT_EQ(decode_values(bytes, values.size(), CompressionKind::kNone), values);
}

TEST(EncodeDecode, Quant8ErrorWithinBound) {
  Rng rng(3);
  std::vector<float> values(1000);
  float max_abs = 0.0f;
  for (auto& v : values) {
    v = static_cast<float>(rng.gaussian(0.0, 0.5));
    max_abs = std::max(max_abs, std::fabs(v));
  }
  const auto bytes = encode_values(values, CompressionKind::kQuant8);
  const auto back = decode_values(bytes, values.size(), CompressionKind::kQuant8);
  const double bound = max_abs_error_bound(CompressionKind::kQuant8, max_abs);
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_LE(std::fabs(back[i] - values[i]), bound + 1e-6) << i;
}

TEST(EncodeDecode, Quant8PreservesExtremes) {
  const std::vector<float> values = {-2.0f, 0.0f, 3.0f};
  const auto back = decode_values(encode_values(values, CompressionKind::kQuant8), 3,
                                  CompressionKind::kQuant8);
  EXPECT_NEAR(back[0], -2.0f, 1e-5);
  EXPECT_NEAR(back[2], 3.0f, 1e-5);
}

TEST(EncodeDecode, Quant8ConstantTensor) {
  const std::vector<float> values(64, 1.25f);
  const auto back = decode_values(encode_values(values, CompressionKind::kQuant8), 64,
                                  CompressionKind::kQuant8);
  for (float v : back) EXPECT_FLOAT_EQ(v, 1.25f);
}

TEST(EncodeDecode, Quant8NonFiniteSaturatesDeterministically) {
  // NaN/Inf inputs (a diverged training run) must not poison the lo/hi range
  // scan or feed NaN into std::clamp: the codec saturates them — +inf to the
  // top bin, NaN and -inf to the bottom — and keeps finite neighbours exact
  // to quantisation error.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::nanf("");
  const std::vector<float> values = {-2.0f, nan, 0.5f, inf, -inf, 3.0f};
  const auto back = decode_values(encode_values(values, CompressionKind::kQuant8),
                                  values.size(), CompressionKind::kQuant8);
  for (float v : back) EXPECT_TRUE(std::isfinite(v)) << v;
  // The finite range [-2, 3] survives the non-finite neighbours.
  EXPECT_NEAR(back[0], -2.0f, 1e-5);
  EXPECT_NEAR(back[2], 0.5f, 0.02);
  EXPECT_NEAR(back[5], 3.0f, 1e-5);
  // Saturation directions: +inf -> hi end, NaN / -inf -> lo end.
  EXPECT_NEAR(back[3], 3.0f, 1e-5);
  EXPECT_NEAR(back[1], -2.0f, 1e-5);
  EXPECT_NEAR(back[4], -2.0f, 1e-5);
  // Determinism: encoding twice yields identical bytes.
  EXPECT_EQ(encode_values(values, CompressionKind::kQuant8),
            encode_values(values, CompressionKind::kQuant8));
}

TEST(EncodeDecode, Quant8AllNonFiniteRoundTripsFinite) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> values = {std::nanf(""), inf, -inf, std::nanf("1")};
  const auto back = decode_values(encode_values(values, CompressionKind::kQuant8),
                                  values.size(), CompressionKind::kQuant8);
  // No finite value anywhere: lo = hi = 0, everything decodes to 0.
  for (float v : back) EXPECT_EQ(v, 0.0f);
}

TEST(ErrorBound, NonFiniteMaxAbs) {
  const double inf_in = std::numeric_limits<double>::infinity();
  // Lossy codecs cannot bound the error of a non-finite input...
  EXPECT_TRUE(std::isinf(max_abs_error_bound(CompressionKind::kQuant8, inf_in)));
  EXPECT_TRUE(std::isinf(max_abs_error_bound(CompressionKind::kFp16,
                                             std::nan(""))));
  // ...but kNone is bit-exact regardless.
  EXPECT_EQ(max_abs_error_bound(CompressionKind::kNone, inf_in), 0.0);
}

TEST(EncodeDecode, EmptyInput) {
  for (auto kind :
       {CompressionKind::kNone, CompressionKind::kFp16, CompressionKind::kQuant8}) {
    const auto bytes = encode_values({}, kind);
    EXPECT_TRUE(decode_values(bytes, 0, kind).empty());
  }
}

TEST(EncodeDecode, SizeMismatchThrows) {
  const std::vector<float> values(16, 1.0f);
  const auto bytes = encode_values(values, CompressionKind::kFp16);
  EXPECT_THROW((void)decode_values(bytes, 15, CompressionKind::kFp16), std::runtime_error);
  EXPECT_THROW((void)decode_values(bytes, 16, CompressionKind::kNone), std::runtime_error);
}

Checkpoint sample_checkpoint(std::uint64_t seed) {
  std::vector<LayerPtr> layers;
  layers.push_back(std::make_unique<Dense>("d0", 8, 16));
  layers.push_back(std::make_unique<Dense>("d1", 16, 4));
  Sequential net(std::move(layers));
  Rng rng(seed);
  net.init(rng);
  return Checkpoint::from_network(net, {1, 2}, 0.75);
}

TEST(CompressedCheckpoint, SerializeRoundTripPerKind) {
  const Checkpoint original = sample_checkpoint(4);
  for (auto kind :
       {CompressionKind::kNone, CompressionKind::kFp16, CompressionKind::kQuant8}) {
    const auto bytes = serialize(original, kind);
    const Checkpoint restored = deserialize(bytes);
    ASSERT_EQ(restored.tensors.size(), original.tensors.size()) << to_string(kind);
    EXPECT_EQ(restored.arch, original.arch);
    for (std::size_t i = 0; i < restored.tensors.size(); ++i) {
      EXPECT_EQ(restored.tensors[i].name, original.tensors[i].name);
      EXPECT_EQ(restored.tensors[i].value.shape(), original.tensors[i].value.shape());
      EXPECT_LT(max_abs_diff(restored.tensors[i].value, original.tensors[i].value), 0.01f)
          << to_string(kind);
    }
  }
}

TEST(CompressedCheckpoint, SizesShrinkAsExpected) {
  const Checkpoint ckpt = sample_checkpoint(5);
  const auto none = serialize(ckpt, CompressionKind::kNone).size();
  const auto fp16 = serialize(ckpt, CompressionKind::kFp16).size();
  const auto quant = serialize(ckpt, CompressionKind::kQuant8).size();
  EXPECT_LT(fp16, none);
  EXPECT_LT(quant, fp16);
  // Payload dominates for this model; ratios approach 2x / 4x.
  EXPECT_GT(static_cast<double>(none) / fp16, 1.6);
  EXPECT_GT(static_cast<double>(none) / quant, 2.2);
}

TEST(CompressedCheckpoint, CrcStillDetectsCorruption) {
  auto bytes = serialize(sample_checkpoint(6), CompressionKind::kQuant8);
  bytes[bytes.size() / 2] ^= std::byte{0x40};
  EXPECT_THROW((void)deserialize(bytes), std::runtime_error);
}

TEST(CompressedStore, PutGetWithCompression) {
  CheckpointStore store(CheckpointStore::Backend::kMemory, {}, {},
                        CompressionKind::kQuant8);
  EXPECT_EQ(store.compression(), CompressionKind::kQuant8);
  const Checkpoint ckpt = sample_checkpoint(7);
  const IoStats put = store.put("k", ckpt);
  EXPECT_LT(put.bytes, serialize(ckpt, CompressionKind::kNone).size());
  const Checkpoint back = store.get("k").first;
  for (std::size_t i = 0; i < back.tensors.size(); ++i)
    EXPECT_LT(max_abs_diff(back.tensors[i].value, ckpt.tensors[i].value), 0.01f);
}

TEST(Compress, KindNames) {
  EXPECT_STREQ(to_string(CompressionKind::kNone), "none");
  EXPECT_STREQ(to_string(CompressionKind::kFp16), "fp16");
  EXPECT_STREQ(to_string(CompressionKind::kQuant8), "quant8");
}

TEST(Compress, ParseKindNames) {
  for (const CompressionKind k :
       {CompressionKind::kNone, CompressionKind::kFp16, CompressionKind::kQuant8})
    EXPECT_EQ(parse_compression(to_string(k)), k);
  EXPECT_FALSE(parse_compression("FP16").has_value());
  EXPECT_FALSE(parse_compression("").has_value());
}

class HalfSweep : public ::testing::TestWithParam<float> {};

TEST_P(HalfSweep, MonotoneNearValue) {
  // Round-trip of v and nextafter(v) must stay ordered (monotonicity).
  const float v = GetParam();
  const float next = std::nextafter(v, 1e30f);
  EXPECT_LE(half_to_float(float_to_half(v)), half_to_float(float_to_half(next)) + 1e-24f);
}

INSTANTIATE_TEST_SUITE_P(Values, HalfSweep,
                         ::testing::Values(-100.0f, -1.0f, -0.01f, 0.0f, 0.01f, 0.33f,
                                           1.0f, 3.14159f, 1000.0f));

}  // namespace
}  // namespace swt
