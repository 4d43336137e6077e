// Differential harness for the blocked/parallel compute kernels: every
// blocked result must equal the retained naive:: reference (same reduction
// order, so equality is exact), and results must be invariant across
// compute-thread counts — the contract the trace bit-reproducibility of the
// whole search stack rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "exp/runner.hpp"
#include "exp/trace_io.hpp"
#include "obs/metrics.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"

namespace swt {
namespace {

namespace k = kernels;

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Restores the compute-thread knob on scope exit so tests don't leak state.
struct ThreadGuard {
  int saved = k::compute_threads();
  ~ThreadGuard() { k::set_compute_threads(saved); }
};

/// Bit-exactness gate: memcmp first (the actual contract), elementwise only
/// to produce a useful failure message when the bytes differ.
void expect_equal(const std::vector<float>& got, const std::vector<float>& want,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size());
  if (got.empty() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0)
    return;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " diverges from reference at flat index "
                               << i;
  }
  FAIL() << what << ": memcmp differs but no element compared unequal (NaN "
            "payload or -0.0 mismatch)";
}

struct GemmShape {
  std::int64_t m, n, k;
};

/// Parameterized sweep: rotates each probe extent — degenerate (1), ragged
/// primes, and every blocking-factor boundary +/-1 (MR=4, NR=16, MC=64,
/// KC=128, NC=128) — through each of the three axes with ragged co-extents,
/// plus degenerate-zero and panel-crossing triples.  Kept to ~1e8 scalar ops
/// total so the sweep stays fast under TSan.
std::vector<GemmShape> sweep_shapes() {
  std::vector<GemmShape> shapes = {
      // Degenerate extents: empty output and empty reduction.
      {0, 8, 8}, {8, 0, 8}, {8, 8, 0}, {1, 1, 1},
      // Hand-picked panel-crossing / multi-tile triples.
      {4, 16, 8}, {64, 64, 64}, {70, 150, 40}, {129, 257, 130}, {255, 33, 129},
  };
  // Probe extents: 1, small ragged, and tile-boundary +/-1 for each factor.
  const std::int64_t probes[] = {1, 3, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257};
  for (const std::int64_t p : probes) {
    shapes.push_back({p, 37, 29});  // m axis: MR/MC tails
    shapes.push_back({37, p, 29});  // n axis: NR/NC tails
    shapes.push_back({37, 29, p});  // k axis: KC tails
  }
  return shapes;
}

const std::vector<GemmShape> kGemmShapes = sweep_shapes();

class GemmDifferential : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmDifferential, AllVariantsMatchNaive) {
  const auto [m, n, kk] = GetParam();
  const ThreadGuard guard;
  k::set_compute_threads(1);
  const auto a = random_vec(std::max<std::int64_t>(m * kk, kk * m), 1000 + m);
  const auto b = random_vec(std::max<std::int64_t>(kk * n, n * kk), 2000 + n);
  const auto c0 = random_vec(m * n, 3000 + kk);  // accumulate seed content

  struct Variant {
    const char* name;
    void (*blocked)(const float*, const float*, float*, std::int64_t, std::int64_t,
                    std::int64_t, bool);
    void (*naive)(const float*, const float*, float*, std::int64_t, std::int64_t,
                  std::int64_t, bool);
  };
  const Variant variants[] = {
      {"gemm_nn", &k::gemm_nn, &k::naive::gemm_nn},
      {"gemm_tn", &k::gemm_tn, &k::naive::gemm_tn},
      {"gemm_nt", &k::gemm_nt, &k::naive::gemm_nt},
  };
  for (const auto& v : variants) {
    for (const bool accumulate : {false, true}) {
      std::vector<float> got = c0, want = c0;
      v.blocked(a.data(), b.data(), got.data(), m, n, kk, accumulate);
      v.naive(a.data(), b.data(), want.data(), m, n, kk, accumulate);
      expect_equal(got, want,
                   (std::string(v.name) + (accumulate ? "+acc" : "")).c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmDifferential, ::testing::ValuesIn(kGemmShapes));

TEST(Kernels, GemmBitIdenticalAcrossThreadCounts) {
  // Large enough to clear kParallelFlopThreshold (2*150*170*190 ~ 9.7 MFLOP).
  const std::int64_t m = 150, n = 170, kk = 190;
  const auto a = random_vec(m * kk, 1);    // (m, kk) for nn/nt; (kk, m) for tn
  const auto b = random_vec(kk * n, 2);    // (kk, n) for nn/tn; (n, kk) for nt
  const ThreadGuard guard;
  const auto bt = random_vec(n * kk, 3);   // (n, kk): B for nt

  k::set_compute_threads(1);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  k::gemm_nn(a.data(), b.data(), ref.data(), m, n, kk);
  std::vector<float> ref_naive(static_cast<std::size_t>(m * n));
  k::naive::gemm_nn(a.data(), b.data(), ref_naive.data(), m, n, kk);
  ASSERT_EQ(0, std::memcmp(ref.data(), ref_naive.data(), ref.size() * sizeof(float)));

  const auto run_all = [&](std::vector<float>& c_nn, std::vector<float>& c_tn,
                           std::vector<float>& c_nt) {
    k::gemm_nn(a.data(), b.data(), c_nn.data(), m, n, kk);
    // tn reads A as stored (kk, m): same buffer, transposed interpretation.
    k::gemm_tn(a.data(), b.data(), c_tn.data(), m, n, kk);
    k::gemm_nt(a.data(), bt.data(), c_nt.data(), m, n, kk);
  };
  std::vector<float> nn1(ref.size()), tn1(ref.size()), nt1(ref.size());
  run_all(nn1, tn1, nt1);
  for (const int threads : {2, 4, 8, 16}) {
    k::set_compute_threads(threads);
    std::vector<float> nn(ref.size()), tn(ref.size()), nt(ref.size());
    run_all(nn, tn, nt);
    EXPECT_EQ(0, std::memcmp(nn.data(), nn1.data(), nn.size() * sizeof(float)))
        << "gemm_nn at " << threads << " threads";
    EXPECT_EQ(0, std::memcmp(tn.data(), tn1.data(), tn.size() * sizeof(float)))
        << "gemm_tn at " << threads << " threads";
    EXPECT_EQ(0, std::memcmp(nt.data(), nt1.data(), nt.size() * sizeof(float)))
        << "gemm_nt at " << threads << " threads";
  }
  // Serial-guard arm: under ScopedSerialKernels the same calls must take the
  // in-thread path (no pool dispatch) and still produce identical bytes.
  {
    k::set_compute_threads(8);
    const k::ScopedSerialKernels serial;
    std::vector<float> nn(ref.size()), tn(ref.size()), nt(ref.size());
    run_all(nn, tn, nt);
    EXPECT_EQ(0, std::memcmp(nn.data(), nn1.data(), nn.size() * sizeof(float)))
        << "gemm_nn under ScopedSerialKernels";
    EXPECT_EQ(0, std::memcmp(tn.data(), tn1.data(), tn.size() * sizeof(float)))
        << "gemm_tn under ScopedSerialKernels";
    EXPECT_EQ(0, std::memcmp(nt.data(), nt1.data(), nt.size() * sizeof(float)))
        << "gemm_nt under ScopedSerialKernels";
  }
}

// Many concurrent *callers* each dispatching parallel kernels — the shape of
// wavefront evaluation, and the case TSan watches: per-worker pack buffers
// must never be shared, and every caller must read back identical bytes.
TEST(Kernels, ConcurrentCallersBitIdentical) {
  const std::int64_t m = 150, n = 170, kk = 190;
  const auto a = random_vec(m * kk, 31);
  const auto b = random_vec(kk * n, 32);
  const ThreadGuard guard;
  k::set_compute_threads(1);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  k::gemm_nn(a.data(), b.data(), ref.data(), m, n, kk);

  k::set_compute_threads(4);
  constexpr int kCallers = 4;
  std::vector<std::vector<float>> out(kCallers,
                                      std::vector<float>(ref.size()));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      // Odd callers opt out of nested dispatch, as wavefront tasks do.
      if (t % 2 == 1) {
        const k::ScopedSerialKernels serial;
        k::gemm_nn(a.data(), b.data(), out[static_cast<std::size_t>(t)].data(), m,
                   n, kk);
      } else {
        k::gemm_nn(a.data(), b.data(), out[static_cast<std::size_t>(t)].data(), m,
                   n, kk);
      }
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_EQ(0, std::memcmp(out[static_cast<std::size_t>(t)].data(), ref.data(),
                             ref.size() * sizeof(float)))
        << "caller " << t;
  }
}

TEST(Kernels, ComputeThreadsKnob) {
  const ThreadGuard guard;
  k::set_compute_threads(3);
  EXPECT_EQ(3, k::compute_threads());
  k::set_compute_threads(0);  // reset to hardware default
  EXPECT_GE(k::compute_threads(), 1);
}

TEST(Kernels, SetComputeThreadsClampsAboveMaximumWithWarning) {
  const ThreadGuard guard;
  std::vector<std::string> warnings;
  set_log_sink([&warnings](LogLevel level, const std::string& msg) {
    if (level == LogLevel::kWarn) warnings.push_back(msg);
  });
  k::set_compute_threads(k::kMaxComputeThreads + 5);
  set_log_sink({});
  EXPECT_EQ(k::kMaxComputeThreads, k::compute_threads());
  ASSERT_EQ(1u, warnings.size());
  EXPECT_NE(std::string::npos, warnings[0].find("clamped")) << warnings[0];
}

TEST(Kernels, ParseThreadCountAcceptsPlainIntegers) {
  std::string reason;
  EXPECT_EQ(1, k::parse_thread_count("1", 7, &reason));
  EXPECT_TRUE(reason.empty());
  EXPECT_EQ(16, k::parse_thread_count("16", 7, &reason));
  EXPECT_TRUE(reason.empty());
  EXPECT_EQ(8, k::parse_thread_count("  8\n", 7, &reason));  // whitespace ok
  EXPECT_TRUE(reason.empty());
  EXPECT_EQ(k::kMaxComputeThreads,
            k::parse_thread_count(std::to_string(k::kMaxComputeThreads).c_str(), 7,
                                  &reason));
  EXPECT_TRUE(reason.empty());
}

TEST(Kernels, ParseThreadCountRejectsGarbageWithReason) {
  struct Case {
    const char* text;
    const char* why;
  };
  const Case rejected[] = {
      {"", "empty"},          {"banana", "integer"}, {"4x", "trailing"},
      {"3.5", "trailing"},    {"0", "below"},        {"-2", "below"},
      {"0x10", "trailing"},
  };
  for (const Case& c : rejected) {
    std::string reason;
    EXPECT_EQ(7, k::parse_thread_count(c.text, 7, &reason))
        << "input \"" << c.text << "\"";
    EXPECT_NE(std::string::npos, reason.find(c.why))
        << "input \"" << c.text << "\" gave reason \"" << reason << "\"";
  }
  EXPECT_EQ(7, k::parse_thread_count(nullptr, 7));
}

TEST(Kernels, ParseThreadCountClampsHugeValues) {
  std::string reason;
  EXPECT_EQ(k::kMaxComputeThreads, k::parse_thread_count("4096", 7, &reason));
  EXPECT_NE(std::string::npos, reason.find("clamped")) << reason;
  // Out of long range entirely (ERANGE path).
  EXPECT_EQ(k::kMaxComputeThreads,
            k::parse_thread_count("99999999999999999999999", 7, &reason));
  EXPECT_NE(std::string::npos, reason.find("clamped")) << reason;
}

// -----------------------------------------------------------------------
// Convolution: lane-on-wide-axis kernels vs direct naive loops
// -----------------------------------------------------------------------

struct ConvCase {
  std::int64_t n, h, w, cin, kk, cout, stride, pad_h, pad_w;
};

// Output extents follow "same" ceil(in/stride) for the padded cases and
// "valid" for pad 0; pad = max(0, (out-1)*stride + k - in) / 2.
k::ConvGeom make_geom(const ConvCase& c) {
  k::ConvGeom g;
  g.n = c.n;
  g.h = c.h;
  g.w = c.w;
  g.cin = c.cin;
  g.kh = c.kk;
  g.kw = c.kk;
  g.cout = c.cout;
  g.stride = c.stride;
  g.pad_h = c.pad_h;
  g.pad_w = c.pad_w;
  g.oh = (c.h + 2 * c.pad_h - c.kk) / c.stride + 1;
  g.ow = (c.w + 2 * c.pad_w - c.kk) / c.stride + 1;
  return g;
}

std::string describe(const k::ConvGeom& g) {
  std::ostringstream os;
  os << "n" << g.n << " " << g.h << "x" << g.w << "x" << g.cin << " k" << g.kh << "x" << g.kw
     << " -> " << g.oh << "x" << g.ow << "x" << g.cout << " s" << g.stride << " pad "
     << g.pad_h << "," << g.pad_w;
  return os.str();
}

/// Every pass of one geometry against the naive loops, bit for bit: y, and
/// dx/dw/db with dw/db seeded non-zero (they are accumulated into), plus
/// the dx == nullptr path, whose dw/db must match the full backward's.
void expect_conv_matches_naive(const k::ConvGeom& g, std::uint64_t seed) {
  SCOPED_TRACE(describe(g));
  const std::int64_t x_size = g.n * g.h * g.w * g.cin;
  const std::int64_t w_size = g.kh * g.kw * g.cin * g.cout;
  const auto x = random_vec(x_size, seed + 1);
  const auto w = random_vec(w_size, seed + 2);
  const auto bias = random_vec(g.cout, seed + 3);
  const auto dy = random_vec(g.patch_rows() * g.cout, seed + 4);
  const auto dw0 = random_vec(w_size, seed + 5);
  const auto db0 = random_vec(g.cout, seed + 6);

  std::vector<float> y_want(static_cast<std::size_t>(g.patch_rows() * g.cout));
  std::vector<float> y(y_want.size());
  k::naive::conv_forward(x.data(), w.data(), bias.data(), y_want.data(), g);
  k::conv_forward(x.data(), w.data(), bias.data(), y.data(), g);
  expect_equal(y, y_want, "conv_forward");

  std::vector<float> dx_want(static_cast<std::size_t>(x_size), 0.0f);
  std::vector<float> dw_want = dw0, db_want = db0;
  k::naive::conv_backward(x.data(), w.data(), dy.data(), dx_want.data(), dw_want.data(),
                          db_want.data(), g);
  std::vector<float> dx(static_cast<std::size_t>(x_size), 0.0f);
  std::vector<float> dw = dw0, db = db0;
  k::conv_backward(x.data(), w.data(), dy.data(), dx.data(), dw.data(), db.data(), g);
  expect_equal(dx, dx_want, "conv_backward dx");
  expect_equal(dw, dw_want, "conv_backward dw");
  expect_equal(db, db_want, "conv_backward db");

  std::vector<float> dw_nodx = dw0, db_nodx = db0;
  k::conv_backward(x.data(), w.data(), dy.data(), nullptr, dw_nodx.data(), db_nodx.data(),
                   g);
  expect_equal(dw_nodx, dw_want, "conv_backward (dx == nullptr) dw");
  expect_equal(db_nodx, db_want, "conv_backward (dx == nullptr) db");
}

const ConvCase kConvCases[] = {
    {2, 6, 7, 3, 3, 4, 1, 1, 1},   // stride-1 "same"
    {2, 6, 7, 3, 3, 4, 1, 0, 0},   // stride-1 "valid"
    {1, 7, 9, 2, 3, 3, 2, 1, 1},   // stride-2 padded
    {2, 8, 8, 1, 3, 2, 2, 0, 0},   // stride-2 "valid"
    {1, 1, 1, 1, 1, 1, 1, 0, 0},   // 1x1 degenerate
    {3, 1, 11, 2, 1, 3, 2, 0, 1},  // 1-D geometry (h = kh = 1), padded strided
    {2, 9, 9, 5, 3, 17, 2, 1, 1},  // cout just past a 16-lane vector
    {1, 12, 12, 3, 3, 33, 2, 0, 0},  // cout crosses four 8-channel tiles
    {1, 8, 8, 4, 3, 129, 1, 1, 1},   // wide cout
    {16, 1, 1, 12, 3, 12, 1, 1, 1},  // 1x1 spatial "same": 8 of 9 taps never land
    {3, 2, 2, 5, 5, 3, 1, 2, 2},     // 5x5 kernel on 2x2: only the centre 2x2 taps land
    {2, 1, 6, 40, 1, 3, 1, 0, 0},    // k = 40 taps: a 16-lane tail chunk in dw
};

class ConvDifferential : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvDifferential, AllPassesMatchNaive) {
  const ThreadGuard guard;
  k::set_compute_threads(1);
  expect_conv_matches_naive(make_geom(GetParam()), 10);
}

INSTANTIATE_TEST_SUITE_P(Cases, ConvDifferential, ::testing::ValuesIn(kConvCases));

/// The committed kernel-call census: every conv geometry a real search runs.
std::vector<k::ConvGeom> census_geometries() {
  std::ifstream in(SWTNAS_KERNEL_CENSUS);
  std::vector<k::ConvGeom> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("conv_", 0) != 0) continue;
    std::istringstream fields(line);
    std::string f;
    std::getline(fields, f, ',');  // op
    std::getline(fields, f, ',');  // calls
    std::vector<std::int64_t> v;
    while (std::getline(fields, f, ',')) v.push_back(std::stoll(f));
    if (v.size() != 12) continue;
    k::ConvGeom g;
    g.n = v[0], g.h = v[1], g.w = v[2], g.cin = v[3], g.kh = v[4], g.kw = v[5];
    g.cout = v[6], g.oh = v[7], g.ow = v[8], g.stride = v[9], g.pad_h = v[10];
    g.pad_w = v[11];
    const bool seen = std::any_of(out.begin(), out.end(), [&](const k::ConvGeom& o) {
      return std::memcmp(&o, &g, sizeof g) == 0;
    });
    if (!seen) out.push_back(g);
  }
  return out;
}

TEST(ConvCensus, EveryCensusShapeMatchesNaive) {
  const std::vector<k::ConvGeom> shapes = census_geometries();
  ASSERT_GT(shapes.size(), 100u) << "census file " << SWTNAS_KERNEL_CENSUS;
  const ThreadGuard guard;
  k::set_compute_threads(1);
  std::uint64_t seed = 100;
  for (const k::ConvGeom& g : shapes) expect_conv_matches_naive(g, seed += 10);
}

TEST(ConvSweep, ChannelsStridesPaddingAndRankMatchNaive) {
  const ThreadGuard guard;
  k::set_compute_threads(1);
  std::uint64_t seed = 5000;
  for (const bool one_d : {false, true}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const bool same : {false, true}) {
        for (const std::int64_t cin : {1, 3, 4, 8, 12, 16, 24}) {
          for (std::int64_t cout = 1; cout <= 25; ++cout) {
            // 2-D: 5x7 input (70 pixels at stride 1: two full 32-pixel
            // blocks and a tail); 1-D: length 13.
            const std::int64_t h = one_d ? 1 : 5, w = one_d ? 13 : 7, kk = 3;
            k::ConvGeom g;
            if (one_d) {
              const std::int64_t olen = same ? (w + stride - 1) / stride : (w - kk) / stride + 1;
              const std::int64_t pad =
                  same ? std::max<std::int64_t>(0, (olen - 1) * stride + kk - w) / 2 : 0;
              g = k::conv1d_geom(2, w, cin, kk, cout, olen, stride, pad);
            } else {
              const std::int64_t p = same ? 1 : 0;
              g = make_geom({2, h, w, cin, kk, cout, stride, p, p});
            }
            expect_conv_matches_naive(g, seed += 10);
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(Kernels, ConvGradientsAccumulateAcrossCalls) {
  // Two backward calls into the same dw/db/dx continue each element's chain,
  // exactly as two naive calls do.
  const k::ConvGeom g = make_geom({2, 6, 6, 4, 3, 8, 1, 1, 1});
  const ThreadGuard guard;
  k::set_compute_threads(1);
  const std::int64_t x_size = g.n * g.h * g.w * g.cin, w_size = g.kh * g.kw * g.cin * g.cout;
  const auto x = random_vec(x_size, 71);
  const auto w = random_vec(w_size, 72);
  const auto dy1 = random_vec(g.patch_rows() * g.cout, 73);
  const auto dy2 = random_vec(g.patch_rows() * g.cout, 74);
  std::vector<float> dx(static_cast<std::size_t>(x_size), 0.0f);
  std::vector<float> dw(static_cast<std::size_t>(w_size), 0.0f);
  std::vector<float> db(static_cast<std::size_t>(g.cout), 0.0f);
  std::vector<float> dx_n = dx, dw_n = dw, db_n = db;
  for (const auto* dy : {&dy1, &dy2}) {
    k::conv_backward(x.data(), w.data(), dy->data(), dx.data(), dw.data(), db.data(), g);
    k::naive::conv_backward(x.data(), w.data(), dy->data(), dx_n.data(), dw_n.data(),
                            db_n.data(), g);
  }
  expect_equal(dx, dx_n, "dx after two calls");
  expect_equal(dw, dw_n, "dw after two calls");
  expect_equal(db, db_n, "db after two calls");
}

TEST(Kernels, ConvSkipsInputGradientWhenDxIsNull) {
  // dx == nullptr computes dw/db only, and db may be null as well.
  const k::ConvGeom g = make_geom({2, 5, 5, 3, 3, 4, 1, 1, 1});
  const std::int64_t w_size = g.kh * g.kw * g.cin * g.cout;
  const auto x = random_vec(g.n * g.h * g.w * g.cin, 81);
  const auto w = random_vec(w_size, 82);
  const auto dy = random_vec(g.patch_rows() * g.cout, 83);
  std::vector<float> dx(static_cast<std::size_t>(g.n * g.h * g.w * g.cin), 0.0f);
  std::vector<float> dw_full(static_cast<std::size_t>(w_size), 0.0f), dw_only = dw_full;
  k::conv_backward(x.data(), w.data(), dy.data(), dx.data(), dw_full.data(), nullptr, g);
  k::conv_backward(x.data(), w.data(), dy.data(), nullptr, dw_only.data(), nullptr, g);
  expect_equal(dw_only, dw_full, "dw without dx");
}

class ConvThreads : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvThreads, BitIdenticalAcrossThreadCounts) {
  // Both cases are above kParallelFlopThreshold, so 2+ threads really split
  // pixel blocks (y), tap chunks or channel rows (dw) and images (dx).
  const k::ConvGeom g = make_geom(GetParam());
  SCOPED_TRACE(describe(g));
  const std::int64_t x_size = g.n * g.h * g.w * g.cin, w_size = g.kh * g.kw * g.cin * g.cout;
  const auto x = random_vec(x_size, 91);
  const auto w = random_vec(w_size, 92);
  const auto bias = random_vec(g.cout, 93);
  const auto dy = random_vec(g.patch_rows() * g.cout, 94);
  const ThreadGuard guard;
  const auto run = [&] {
    std::vector<float> y(static_cast<std::size_t>(g.patch_rows() * g.cout));
    std::vector<float> dx(static_cast<std::size_t>(x_size), 0.0f);
    std::vector<float> dw(static_cast<std::size_t>(w_size), 0.0f);
    std::vector<float> db(static_cast<std::size_t>(g.cout), 0.0f);
    k::conv_forward(x.data(), w.data(), bias.data(), y.data(), g);
    k::conv_backward(x.data(), w.data(), dy.data(), dx.data(), dw.data(), db.data(), g);
    return std::array<std::vector<float>, 4>{y, dx, dw, db};
  };
  k::set_compute_threads(1);
  const auto ref = run();
  for (const bool serial_guard : {false, true}) {
    for (const int threads : {1, 2, 4, 8}) {
      k::set_compute_threads(threads);
      const auto got = [&] {
        if (!serial_guard) return run();
        const k::ScopedSerialKernels serial;
        return run();
      }();
      const std::string at = std::to_string(threads) + " threads" +
                             (serial_guard ? " under ScopedSerialKernels" : "");
      expect_equal(got[0], ref[0], ("y at " + at).c_str());
      expect_equal(got[1], ref[1], ("dx at " + at).c_str());
      expect_equal(got[2], ref[2], ("dw at " + at).c_str());
      expect_equal(got[3], ref[3], ("db at " + at).c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvThreads,
    ::testing::Values(
        // 3x3 "same" on 16x16: a zero-padded source view, dw on tap chunks
        // (~4.7 MFLOP forward).
        ConvCase{8, 16, 16, 8, 3, 16, 1, 1, 1},
        // 1x1 maps, few input channels: one-tap window, dw on channel rows.
        ConvCase{256, 1, 1, 8, 3, 32, 1, 1, 1}));

TEST(Kernels, TinyConvCallsAreCountedExactly) {
  // Calls below 64 KFLOP are timed by sample, but every call and FLOP is
  // counted, and the sampled time reaches the gauge.
  const k::ConvGeom g = make_geom({16, 1, 1, 4, 3, 8, 1, 1, 1});
  ASSERT_LT(g.flops(), 1 << 16);
  const auto x = random_vec(g.n * g.h * g.w * g.cin, 51);
  const auto w = random_vec(g.kh * g.kw * g.cin * g.cout, 52);
  std::vector<float> y(static_cast<std::size_t>(g.patch_rows() * g.cout));
  const bool was_enabled = swt::metrics_enabled();
  swt::set_metrics_enabled(true);
  swt::Counter& calls = swt::metrics().counter("tensor.conv_total");
  swt::Counter& flops = swt::metrics().counter("tensor.conv_flops_total");
  swt::Gauge& seconds = swt::metrics().gauge("tensor.conv_seconds");
  const std::int64_t calls0 = calls.value(), flops0 = flops.value();
  const double seconds0 = seconds.value();
  constexpr int kCalls = 256;
  for (int i = 0; i < kCalls; ++i)
    k::conv_forward(x.data(), w.data(), nullptr, y.data(), g);
  EXPECT_EQ(calls.value() - calls0, kCalls);
  EXPECT_EQ(flops.value() - flops0, kCalls * g.flops());
  EXPECT_GT(seconds.value(), seconds0);
  swt::set_metrics_enabled(was_enabled);
}

// -----------------------------------------------------------------------
// NaN propagation: the old `if (a == 0.0f) continue;` fast path silently
// evaluated 0 * NaN as 0.  IEEE requires NaN.
// -----------------------------------------------------------------------

TEST(Kernels, ZeroTimesNanPropagates) {
  Tensor a(Shape{2, 2});  // all zeros
  Tensor b(Shape{2, 2});
  b.at(0, 0) = std::nanf("");
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isnan(c.at(1, 0)));
  EXPECT_EQ(0.0f, c.at(0, 1));

  const Tensor c_tn = matmul_tn(b, a);  // NaN now on the A side of tn
  EXPECT_TRUE(std::isnan(c_tn.at(0, 0)));
  EXPECT_TRUE(std::isnan(c_tn.at(0, 1)));

  const Tensor c_nt = matmul_nt(a, b);
  EXPECT_TRUE(std::isnan(c_nt.at(0, 0)));
  EXPECT_TRUE(std::isnan(c_nt.at(1, 0)));
}

TEST(Kernels, ConvNanPropagatesThroughPaddedTaps) {
  // As with zero-filled patch columns, a NaN weight reaches every output of
  // its channel: through a tap that is off the image for some pixels (4x4)
  // and through a tap no pixel ever lands on (1x1 spatial).
  for (const ConvCase& c : {ConvCase{1, 4, 4, 2, 3, 3, 1, 1, 1},
                            ConvCase{2, 1, 1, 2, 3, 3, 1, 1, 1}}) {
    const k::ConvGeom g = make_geom(c);
    SCOPED_TRACE(describe(g));
    const auto x = random_vec(g.n * g.h * g.w * g.cin, 61);
    auto w = random_vec(g.kh * g.kw * g.cin * g.cout, 62);
    w[static_cast<std::size_t>(1 * g.cout + 1)] = std::nanf("");  // tap (0,0), ic 1, oc 1
    std::vector<float> y(static_cast<std::size_t>(g.patch_rows() * g.cout));
    k::conv_forward(x.data(), w.data(), nullptr, y.data(), g);
    for (std::int64_t p = 0; p < g.patch_rows(); ++p)
      for (std::int64_t oc = 0; oc < g.cout; ++oc)
        EXPECT_EQ(oc == 1, std::isnan(y[static_cast<std::size_t>(p * g.cout + oc)]))
            << "pixel " << p << " channel " << oc;

    auto dy = random_vec(g.patch_rows() * g.cout, 63);
    dy[2] = std::nanf("");  // pixel 0, channel 2
    std::vector<float> dw(w.size(), 0.0f), db(static_cast<std::size_t>(g.cout), 0.0f);
    k::conv_backward(x.data(), w.data(), dy.data(), nullptr, dw.data(), db.data(), g);
    for (std::int64_t row = 0; row < g.kh * g.kw * g.cin; ++row)
      for (std::int64_t oc = 0; oc < g.cout; ++oc)
        EXPECT_EQ(oc == 2, std::isnan(dw[static_cast<std::size_t>(row * g.cout + oc)]))
            << "kernel row " << row << " channel " << oc;
  }
}

TEST(Kernels, ConvSkippedTapsKeepSignedZeros) {
  // 1x1 input, 3x3 "same": only the centre tap lands on the image.  With a
  // zero input, -0 bias and negative weights every term is -0 and the sum
  // stays -0; one positive weight on a tap that never lands adds +0 — as
  // its zero-filled patch column did — and the sum becomes +0.
  const k::ConvGeom g = make_geom({1, 1, 1, 1, 3, 2, 1, 1, 1});
  const std::vector<float> x = {0.0f};
  const std::vector<float> bias = {-0.0f, -0.0f};
  std::vector<float> w(18, -1.0f);
  w[1] = 1.0f;  // tap (0,0), channel 1
  std::vector<float> y(2);
  k::conv_forward(x.data(), w.data(), bias.data(), y.data(), g);
  EXPECT_TRUE(y[0] == 0.0f && std::signbit(y[0]));
  EXPECT_TRUE(y[1] == 0.0f && !std::signbit(y[1]));

  // dw: -0 + 0 * dy per row; dy = -1 keeps -0, dy = +1 gives +0.
  const std::vector<float> dy = {-1.0f, 1.0f};
  std::vector<float> dw(18, -0.0f);
  k::conv_backward(x.data(), w.data(), dy.data(), nullptr, dw.data(), nullptr, g);
  for (std::size_t row = 0; row < 9; ++row) {
    EXPECT_TRUE(std::signbit(dw[row * 2])) << "row " << row;
    EXPECT_FALSE(std::signbit(dw[row * 2 + 1])) << "row " << row;
  }
}

// -----------------------------------------------------------------------
// End-to-end: a fixed-seed search writes a byte-identical trace CSV at 1
// and 4 compute threads (the registry/compare_runs CI gate's assumption).
// -----------------------------------------------------------------------

TEST(Kernels, SearchTraceBitReproducibleAcrossThreadCounts) {
  const AppConfig app = make_app(AppId::kMnist, 11, {.data_scale = 0.2});
  NasRunConfig cfg;
  cfg.mode = TransferMode::kLCS;
  cfg.n_evals = 10;
  cfg.seed = 7;
  cfg.evolution = {.population_size = 4, .sample_size = 2};
  // Fixed virtual train time: wall-clock noise would otherwise differ in the
  // CSV regardless of the kernels.
  cfg.cluster.fixed_train_seconds = 5.0;

  const ThreadGuard guard;
  const auto run_to_csv = [&](int threads) {
    k::set_compute_threads(threads);
    const NasRun run = run_nas(app, cfg);
    std::ostringstream csv;
    write_trace_csv(csv, run.trace);
    return csv.str();
  };
  const std::string csv1 = run_to_csv(1);
  const std::string csv4 = run_to_csv(4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4) << "trace CSV differs between 1 and 4 compute threads";
}

}  // namespace
}  // namespace swt
